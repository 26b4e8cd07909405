#ifndef QUAESTOR_FAULT_FAULT_INJECTOR_H_
#define QUAESTOR_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"

namespace quaestor::fault {

/// Per-message fault probabilities for the injected channel. All rates are
/// independent per decision; a message can be both delayed and duplicated.
struct FaultProfile {
  double drop_rate = 0.0;       // message silently disappears
  double duplicate_rate = 0.0;  // message is delivered twice
  double reorder_rate = 0.0;    // message is held back and released later
  double delay_rate = 0.0;      // message is held until `max_delay` passes
  Micros max_delay = 0;         // upper bound for injected delays
  double corrupt_rate = 0.0;    // message bytes are mutated in place
  /// Origin latency spikes: with this probability a served request is
  /// slowed by up to `max_latency_spike` (models GC pauses / noisy
  /// neighbours at the origin during overload experiments).
  double latency_spike_rate = 0.0;
  Micros max_latency_spike = 0;
};

/// Counters for what the injector actually did.
struct FaultStats {
  uint64_t decisions = 0;   // messages that passed through the injector
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t delayed = 0;
  uint64_t corrupted = 0;
  uint64_t latency_spikes = 0;
};

/// A seeded source of fault decisions: every randomized choice in the
/// fault layer flows through one injector so a chaos schedule replays
/// exactly from its seed. Thread-safe (one injector drives the FaultySend
/// of both endpoints, whose sends come from different threads).
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed, FaultProfile profile = FaultProfile())
      : rng_(seed), profile_(profile) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  bool ShouldDrop();
  bool ShouldDuplicate();
  bool ShouldReorder();
  bool ShouldCorrupt();

  /// A uniformly random delay in [1, max_delay] µs (0 when the profile
  /// injects no delay for this message).
  Micros DelayFor();

  /// A uniformly random origin latency spike in [1, max_latency_spike] µs
  /// (0 when no spike fires for this request).
  Micros LatencySpikeFor();

  /// Mutates `message` in place: truncation, byte flips, or random-byte
  /// splices, chosen by the seeded stream. The result is intentionally
  /// often invalid JSON — receivers must reject it, never crash.
  void Corrupt(std::string* message);

  /// Uniform double in [0, 1) from the injector's stream (for callers
  /// that need extra seeded decisions tied to the same schedule).
  double NextDouble();

  /// Uniform value in [0, n).
  uint64_t NextUint64(uint64_t n);

  void set_profile(const FaultProfile& profile);
  FaultProfile profile() const;
  FaultStats stats() const;

 private:
  mutable std::mutex mu_;
  Rng rng_;
  FaultProfile profile_;
  FaultStats stats_;
};

/// One scheduled elastic-resize point in a chaos run: after the stream's
/// `after_event`-th change event, repartition to the given grid shape.
struct ResizePoint {
  size_t after_event = 0;
  size_t query_partitions = 1;
  size_t object_partitions = 1;
};

/// Derives a deterministic resize schedule from `seed`: up to
/// `max_resizes` points at strictly increasing positions within a stream
/// of `num_events` events, each with partition counts in
/// [1, max_partitions]. Chaos suites interleave these with fault-injected
/// traffic to exercise resize-under-failure windows reproducibly.
std::vector<ResizePoint> MakeResizeSchedule(uint64_t seed, size_t num_events,
                                            size_t max_resizes,
                                            size_t max_partitions);

}  // namespace quaestor::fault

#endif  // QUAESTOR_FAULT_FAULT_INJECTOR_H_
