// Timing, percentile and process-accounting helpers for the socket-path
// benchmark. Everything here reads the kernel's clocks and /proc; nothing
// touches the system under test.

#ifndef QUAESTOR_PERFBENCH_MEASURE_H_
#define QUAESTOR_PERFBENCH_MEASURE_H_

#include <sys/syscall.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <map>
#include <vector>

namespace quaestor::perfbench {

inline int64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// CLOCK_MONOTONIC in nanoseconds: the per-operation timer. It shares its
/// base with SystemClock (std::chrono::steady_clock), so NowNs() / 1000 is
/// comparable with commit times stamped by the database.
inline int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
inline int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
inline int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

inline pid_t Gettid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

/// Sleeps until `due_ns` on the monotonic clock. Callers set a 1 ns timer
/// slack so the wake-up is not rounded; spinning instead would take a core
/// from the server threads and stall them behind the spinner.
inline void WaitUntil(int64_t due_ns) {
  const timespec ts{static_cast<time_t>(due_ns / 1000000000),
                    static_cast<long>(due_ns % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// One timed operation: when it started (closed loop) or was due (open
/// loop), and how long it took from then.
struct Sample {
  int64_t at_ns = 0;
  int64_t ns = 0;
};

/// A percentile (µs) with the number of samples behind it.
struct Pct {
  double value = 0.0;
  size_t n = 0;
};

/// Nearest-rank percentile (p in [0,1]) of nanosecond samples, in
/// microseconds. Sorts `samples` in place.
Pct PercentileUs(std::vector<int64_t>* samples, double p);

/// The interquartile mean over slices of each slice's percentile; `n`
/// counts every sample. Empty slices are skipped.
Pct SlicedPercentileUs(std::vector<std::vector<int64_t>>* slices, double p);

double Median(std::vector<double> values);

/// Interquartile mean: the mean of the values left after dropping the
/// lowest and the highest quarter. Robust to a few disturbed slices like a
/// median, but it averages over the slow phases of a shared host, which a
/// median of slices does not (its run-to-run spread was 10–30% lower).
double MidMean(std::vector<double> values);

/// utime + stime of every thread of this process, in nanoseconds, keyed by
/// thread id (from /proc/self/task/<tid>/stat).
std::map<pid_t, int64_t> TaskCpuNs();

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Cumulative CPU ticks of the whole machine from /proc/stat: all of them,
/// and the "steal" share the hypervisor gave to other guests.
struct HostTicks {
  int64_t total = 0;
  int64_t steal = 0;
};
HostTicks ReadHostTicks();

}  // namespace quaestor::perfbench

#endif  // QUAESTOR_PERFBENCH_MEASURE_H_
