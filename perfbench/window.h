// One measured window: generator threads drive the stack for a fixed time
// while the main thread samples the process's CPU at every slice boundary.
// A window's end-to-end values are interquartile means over its slices,
// so a short disturbance (a descheduled vCPU, a noisy neighbour) moves one
// slice and hardly the result.

#ifndef QUAESTOR_PERFBENCH_WINDOW_H_
#define QUAESTOR_PERFBENCH_WINDOW_H_

#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "measure.h"
#include "obs/trace.h"
#include "oracle_replay.h"

namespace quaestor::perfbench {

/// Slice length: long enough for ten samples beyond the p99 of the
/// slowest-sampled series (probe ops at 500/s).
inline constexpr int64_t kSliceNs = 2'000'000'000;

/// One generator thread's share of a window.
struct GenStats {
  // Deques grow in fixed blocks: no copy of the whole series mid-run, and
  // peak RSS grows with the samples taken instead of in doubling steps.
  std::deque<Sample> reads;      // record reads and queries
  std::deque<Sample> hit_reads;  // sdk-mix reads the session cache served
  std::deque<Sample> writes;
  std::deque<Sample> late;        // open-loop send lateness by due time
  std::vector<CheckEntry> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t check_failures = 0;
  std::string first_failure;
  std::string first_problem;

  /// A failed operation (counts against fail_ratio).
  void Fail(const std::string& what);
  /// An operation whose output was wrong (fails the run).
  void Problem(const std::string& what);
};

/// When a generator stops: the window's end, or an early stop (the traced
/// window stops once the span budget is spent).
struct Deadline {
  int64_t t1 = 0;
  const std::atomic<bool>* stop = nullptr;
  bool Passed(int64_t now) const {
    return now >= t1 || stop->load(std::memory_order_relaxed);
  }
};

using GenFn = std::function<void(int64_t t0, const Deadline&, GenStats*)>;

struct Window {
  int64_t t0 = 0;
  int64_t slice_ns = 0;
  size_t slices = 0;  // complete slices measured
  int64_t end_ns = 0;  // where measurement stopped (early stop included)
  std::vector<GenStats> gens;
  /// CPU of every thread except the generators and the main thread, per
  /// slice and over the whole window.
  std::vector<int64_t> slice_serving_cpu_ns;
  int64_t serving_cpu_ns = 0;
  /// CPU of the busiest non-generator thread over the window / wall time.
  double busiest_util = 0.0;
  /// Share of the machine's CPU time stolen by the hypervisor during the
  /// window; runs that fall behind coincide with high steal.
  double host_steal = 0.0;

  /// Samples of one series bucketed into the complete slices.
  std::vector<std::vector<int64_t>> Sliced(
      std::deque<Sample> GenStats::*series) const;
  std::vector<std::vector<int64_t>> Sliced(
      const std::deque<Sample>& samples) const;
  /// Every sample of one series inside [t0, end_ns).
  std::vector<int64_t> All(std::deque<Sample> GenStats::*series) const;
  /// Completion rate (ops/s) in each complete slice: completions between
  /// the slice's first and last one, over the time between them.
  std::vector<double> RatePerSlice() const;
  /// Operations (reads + writes) started or due in the whole window.
  uint64_t Ops() const;
  uint64_t Sum(uint64_t GenStats::*field) const;
};

/// Runs every generator on its own thread for `seconds` (whole slices),
/// stopping early once `tracer` holds `span_budget` spans. The main thread
/// calls `tick` at every slice boundary; its CPU is not serving CPU.
Window RunWindow(const std::vector<GenFn>& fns, int seconds,
                 obs::Tracer* tracer, size_t span_budget,
                 const std::function<void()>& tick);

/// Open-loop schedule: one op every 1/rate seconds from t0, timed into
/// `series`. `op(start)` runs the operation and returns its outcome;
/// `start` is the time its latency counts from. `check(outcome)` runs
/// after the operation's end was stamped and records failures in `st`.
/// The wait the system imposed counts (the previous operation on this
/// thread's connection was still running when this one was due); the
/// generator's own timer wake-up delay does not. That delay is the VM's
/// timer jitter, up to hundreds of µs at p99, and is reported as lateness
/// instead.
template <typename Op, typename Check>
void OpenLoop(double rate, int64_t t0, const Deadline& deadline, GenStats* st,
              std::deque<Sample> GenStats::*series, Op&& op, Check&& check) {
  const double interval = 1e9 / rate;
  int64_t prev_done = 0;
  for (uint64_t i = 0;; ++i) {
    const int64_t due =
        t0 + static_cast<int64_t>(static_cast<double>(i) * interval);
    if (deadline.Passed(due)) break;
    WaitUntil(due);
    const int64_t sent = NowNs();
    st->late.push_back({due, sent - due});
    const int64_t start = sent - std::max<int64_t>(0, prev_done - due);
    ++st->attempted;
    const auto outcome = op(start);
    prev_done = NowNs();
    (st->*series).push_back({due, prev_done - start});
    check(outcome);
  }
}

}  // namespace quaestor::perfbench

#endif  // QUAESTOR_PERFBENCH_WINDOW_H_
