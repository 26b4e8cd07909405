#include "window.h"

#include <pthread.h>
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <unordered_set>

namespace quaestor::perfbench {

void GenStats::Fail(const std::string& what) {
  ++failed;
  if (first_failure.empty()) first_failure = what;
}

void GenStats::Problem(const std::string& what) {
  ++check_failures;
  if (first_problem.empty()) first_problem = what;
}

std::vector<std::vector<int64_t>> Window::Sliced(
    const std::deque<Sample>& samples) const {
  std::vector<std::vector<int64_t>> out(slices);
  for (const Sample& s : samples) {
    if (s.at_ns < t0) continue;
    const size_t k = static_cast<size_t>((s.at_ns - t0) / slice_ns);
    if (k < slices) out[k].push_back(s.ns);
  }
  return out;
}

std::vector<std::vector<int64_t>> Window::Sliced(
    std::deque<Sample> GenStats::*series) const {
  std::deque<Sample> all;
  for (const GenStats& g : gens) {
    all.insert(all.end(), (g.*series).begin(), (g.*series).end());
  }
  return Sliced(all);
}

std::vector<int64_t> Window::All(std::deque<Sample> GenStats::*series) const {
  std::vector<int64_t> out;
  for (const GenStats& g : gens) {
    for (const Sample& s : g.*series) {
      if (s.at_ns >= t0 && s.at_ns < end_ns) out.push_back(s.ns);
    }
  }
  return out;
}

std::vector<double> Window::RatePerSlice() const {
  std::vector<std::vector<int64_t>> done(slices);
  for (const GenStats& g : gens) {
    for (const auto* series : {&g.reads, &g.writes}) {
      for (const Sample& s : *series) {
        const int64_t at = s.at_ns + s.ns;
        if (at < t0) continue;
        const size_t k = static_cast<size_t>((at - t0) / slice_ns);
        if (k < slices) done[k].push_back(at);
      }
    }
  }
  std::vector<double> out;
  for (std::vector<int64_t>& d : done) {
    if (d.size() < 2) {
      out.push_back(0.0);
      continue;
    }
    const auto [first, last] = std::minmax_element(d.begin(), d.end());
    out.push_back(static_cast<double>(d.size() - 1) * 1e9 /
                  static_cast<double>(*last - *first));
  }
  return out;
}

uint64_t Window::Ops() const {
  return All(&GenStats::reads).size() + All(&GenStats::writes).size();
}

uint64_t Window::Sum(uint64_t GenStats::*field) const {
  uint64_t n = 0;
  for (const GenStats& g : gens) n += g.*field;
  return n;
}

namespace {

/// CPU clocks read together at one instant.
struct CpuMark {
  int64_t process = 0;
  int64_t main = 0;
  int64_t generators = 0;
};

}  // namespace

Window RunWindow(const std::vector<GenFn>& fns, int seconds,
                 obs::Tracer* tracer, size_t span_budget,
                 const std::function<void()>& tick) {
  Window w;
  const int64_t total = static_cast<int64_t>(seconds) * 1'000'000'000;
  w.slice_ns = std::min(kSliceNs, total);
  const size_t planned = static_cast<size_t>(total / w.slice_ns);
  w.gens.resize(fns.size());
  w.t0 = NowNs() + 20'000'000;
  std::atomic<bool> stop{false};
  std::atomic<bool> release{false};
  const Deadline deadline{w.t0 + static_cast<int64_t>(planned) * w.slice_ns,
                          &stop};

  std::vector<std::thread> threads;
  std::vector<pid_t> tids(fns.size(), 0);
  std::atomic<size_t> ready{0};
  for (size_t i = 0; i < fns.size(); ++i) {
    threads.emplace_back([&, i] {
      tids[i] = Gettid();
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      ready.fetch_add(1);
      WaitUntil(w.t0);
      fns[i](w.t0, deadline, &w.gens[i]);
      // Stay alive until the main thread read this thread's CPU clock for
      // the last time.
      release.wait(false);
    });
  }
  while (ready.load() < fns.size()) std::this_thread::yield();
  std::vector<clockid_t> clocks(threads.size());
  for (size_t i = 0; i < threads.size(); ++i) {
    pthread_getcpuclockid(threads[i].native_handle(), &clocks[i]);
  }
  const auto mark = [&] {
    CpuMark m;
    m.process = ProcessCpuNs();
    m.main = ThreadCpuNs();
    for (clockid_t c : clocks) m.generators += ClockNs(c);
    return m;
  };

  WaitUntil(w.t0);
  std::vector<CpuMark> marks{mark()};
  const std::map<pid_t, int64_t> tasks0 = TaskCpuNs();
  const HostTicks host0 = ReadHostTicks();
  bool stopped = false;
  for (size_t k = 1; k <= planned && !stopped; ++k) {
    const int64_t boundary = w.t0 + static_cast<int64_t>(k) * w.slice_ns;
    for (int64_t now = NowNs(); now < boundary; now = NowNs()) {
      WaitUntil(std::min(boundary, now + 5'000'000));
      if (tracer != nullptr && tracer->SpanCount() >= span_budget) {
        stop.store(true);
        stopped = true;
        break;
      }
    }
    if (!stopped) w.slices = k;
    marks.push_back(mark());
    tick();
  }
  w.end_ns = stopped ? NowNs() : deadline.t1;
  const std::map<pid_t, int64_t> tasks1 = TaskCpuNs();
  const HostTicks host1 = ReadHostTicks();
  if (host1.total > host0.total) {
    w.host_steal = static_cast<double>(host1.steal - host0.steal) /
                   static_cast<double>(host1.total - host0.total);
  }
  const CpuMark last = marks.back();
  release.store(true);
  release.notify_all();
  for (std::thread& t : threads) t.join();

  const auto serving = [](const CpuMark& a, const CpuMark& b) {
    return (b.process - a.process) - (b.generators - a.generators) -
           (b.main - a.main);
  };
  for (size_t k = 0; k < w.slices; ++k) {
    w.slice_serving_cpu_ns.push_back(serving(marks[k], marks[k + 1]));
  }
  w.serving_cpu_ns = serving(marks.front(), last);

  std::unordered_set<pid_t> excluded(tids.begin(), tids.end());
  excluded.insert(Gettid());
  int64_t busiest = 0;
  for (const auto& [tid, cpu] : tasks1) {
    if (excluded.count(tid) > 0) continue;
    auto before = tasks0.find(tid);
    busiest = std::max(busiest,
                       cpu - (before == tasks0.end() ? 0 : before->second));
  }
  w.busiest_util =
      static_cast<double>(busiest) / static_cast<double>(w.end_ns - w.t0);
  return w;
}

}  // namespace quaestor::perfbench
