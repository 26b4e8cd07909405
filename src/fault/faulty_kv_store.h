#ifndef QUAESTOR_FAULT_FAULTY_KV_STORE_H_
#define QUAESTOR_FAULT_FAULTY_KV_STORE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "fault/fault_injector.h"
#include "kv/kv_store.h"

namespace quaestor::fault {

/// A KvStore whose message queues are a lossy channel: pushes may be
/// dropped, corrupted, duplicated, delayed, or reordered, driven entirely
/// by a seeded FaultInjector. Strings/hashes/pub-sub stay reliable — the
/// paper's fault model targets the Quaestor ↔ InvaliDB Redis queues, not
/// the EBF substrate.
///
/// Delayed and reordered messages are parked in a per-queue holding pen:
/// a delayed message is released once its due time passes, a reordered
/// message after 1–3 subsequent pushes to the same queue overtake it.
/// Releases are checked at every queue operation, so any pumping loop
/// (DrainNotifications / ProcessPending, from any thread) eventually
/// delivers them. FlushHeld() force-releases everything (test teardown).
class FaultyKvStore : public kv::KvStore {
 public:
  /// `injector` must outlive the store.
  FaultyKvStore(Clock* clock, FaultInjector* injector)
      : kv::KvStore(clock), clock_(clock), injector_(injector) {}

  void QueuePush(const std::string& queue, std::string message) override;
  std::optional<std::string> QueueTryPop(const std::string& queue) override;
  size_t QueueLen(const std::string& queue) const override;

  /// Releases every held (delayed/reordered) message immediately.
  /// Returns how many were released.
  size_t FlushHeld();

  /// Messages currently parked in holding pens.
  size_t held_count() const;

  FaultInjector& injector() { return *injector_; }

 private:
  struct Held {
    std::string message;
    Micros due_time = -1;      // release when clock reaches this (-1: n/a)
    int overtakes_left = -1;   // release after this many later pushes
  };

  /// Moves every due held message of `queue` into the real queue.
  /// `overtaking_push` marks that a new push just arrived (decrements the
  /// reorder counters).
  void ReleaseDue(const std::string& queue, bool overtaking_push);

  Clock* clock_;
  FaultInjector* injector_;

  mutable std::mutex held_mu_;
  std::unordered_map<std::string, std::deque<Held>> held_;
};

}  // namespace quaestor::fault

#endif  // QUAESTOR_FAULT_FAULTY_KV_STORE_H_
