#ifndef QUAESTOR_FAULT_FAULTY_SEND_H_
#define QUAESTOR_FAULT_FAULTY_SEND_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "fault/fault_injector.h"
#include "invalidb/reliable_queue.h"

namespace quaestor::fault {

/// A lossy channel in front of any transport medium: wraps a QueueSend
/// (a socket's frame send, a LoopbackLink) so that sends may be dropped,
/// corrupted, duplicated, delayed, or reordered, driven entirely by a
/// seeded FaultInjector. The paper's fault model targets the Quaestor ↔
/// InvaliDB queues (§4.1), so this is the one seam faults enter through.
///
/// Delayed and reordered messages wait in a holding pen: a delayed
/// message is released once its due time passes, a reordered one after
/// 1–3 later sends to the same queue overtake it. Every send releases
/// what is due; since nothing pops a queue, pumps and loop timers call
/// Release() so delayed messages go out when no send follows. FlushHeld()
/// force-releases everything (test teardown). Thread-safe.
class FaultySend {
 public:
  /// `injector` must outlive this; `inner` carries what gets through.
  FaultySend(Clock* clock, FaultInjector* injector, invalidb::QueueSend inner)
      : clock_(clock), injector_(injector), inner_(std::move(inner)) {}

  FaultySend(const FaultySend&) = delete;
  FaultySend& operator=(const FaultySend&) = delete;

  void Send(const std::string& queue, std::string message);
  /// A QueueSend through this channel; it must outlive its users.
  invalidb::QueueSend sender() {
    return [this](const std::string& queue, std::string message) {
      Send(queue, std::move(message));
    };
  }

  /// Sends every held message whose due time has passed. Returns how
  /// many were released.
  size_t Release();

  /// Sends every held (delayed/reordered) message now. Returns how many
  /// were released.
  size_t FlushHeld();

  /// Messages currently in the holding pen.
  size_t held_count() const;

 private:
  struct Held {
    std::string queue;
    std::string message;
    Micros due_time = -1;     // release when clock reaches this (-1: n/a)
    int overtakes_left = -1;  // release after this many later sends
  };

  /// Sends the held messages that are due. A send to `overtaking_queue`
  /// (nullptr: none) first counts down that queue's reorder counters.
  size_t ReleaseDue(const std::string* overtaking_queue, bool all = false);

  Clock* clock_;
  FaultInjector* injector_;
  invalidb::QueueSend inner_;

  mutable std::mutex held_mu_;
  std::deque<Held> held_;
};

}  // namespace quaestor::fault

#endif  // QUAESTOR_FAULT_FAULTY_SEND_H_
