// Socket-path benchmark: drives the real HTTP / frame stack from one
// load-generator process and prints the end-to-end metrics (untraced run,
// --trace 0) or the per-layer metrics (traced run, --trace 1). README.md
// explains the workloads, the metrics and why they are shaped as they are.
//
// Usage: perfbench --workload origin-read|write-invalidate|sdk-mix
//                  --seed N --seconds S --trace 0|1
//                  [--git-sha SHA] [--out-dir DIR]

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "measure.h"
#include "obs/trace.h"
#include "oracle_replay.h"
#include "stack.h"
#include "window.h"
#include "workloads.h"

namespace quaestor::perfbench {
namespace {

// setup_s is the median of kSetups setups. An untraced run measures one
// window of --seconds / kSetups after each setup and reports the median
// over the windows: each setup starts the stack's threads afresh, and how
// the VM places them moved write-invalidate's CPU per operation between
// three levels from run to run (~72, ~90 and ~110 us).
constexpr int kSetups = 5;
constexpr size_t kSpanBudget = 600000;  // the traced window stops here
// An open-loop generator fell behind when half the sends of a slice left
// more than this late (normally they leave within ~0.1 ms): for at least a
// second a backlog, not the offered rate, set the latencies. A stall that
// is worked off sooner stays one slice's noise, which the interquartile
// mean over slices drops.
constexpr double kBehindUs = 10000.0;
// A generator that fell behind while the hypervisor stole more than this
// share of the machine's CPU time was held up by the host: every window
// that fell behind had 12-23% steal, calm windows see 0-2%. Such a window
// is discarded and measured again, up to kWindowTries times in a row, if
// falling behind is its only problem. A window that fell behind with less
// steal, or on the last try, fails the run, as does any other problem.
constexpr double kMaxSteal = 0.05;
constexpr int kWindowTries = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string out_dir = ".";
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Reporting

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t n = 0) {
    metrics_.push_back({name, value, unit, n});
  }
  void AddPct(const std::string& name, const Pct& p) {
    Add(name, p.value, "us", p.n);
  }
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Human-readable lines (percentiles with their sample counts), then the
  /// JSON result as the last line.
  void Print(const std::string& header, bool correct, uint64_t attempted,
             uint64_t failed) const {
    std::printf("%s\n", header.c_str());
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %14.4f %-6s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.n > 0) std::printf(" (n=%zu)", m.n);
      std::printf("\n");
    }
    for (const std::string& n : notes_) std::printf("  note: %s\n", n.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t n = 0;  // samples behind a percentile
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// ---------------------------------------------------------------------------
// One measured window plus its checks

/// A window after its purges drained and its oracle log was replayed.
/// `failed` counts failed operations plus missing purges.
struct Measured {
  Window w;
  std::deque<Sample> inval;  // query-purge latency by write due time
  uint64_t attempted = 0;
  uint64_t failed = 0;
  ReplayResult replay;
  std::vector<std::string> problems;
  // Open-loop generators that fell behind; kept apart from the other
  // problems because only this one may be measured again.
  std::vector<std::string> behind;

  bool correct() const { return problems.empty() && behind.empty(); }
  double ops_per_s() const {
    return static_cast<double>(w.Ops()) /
           (static_cast<double>(w.end_ns - w.t0) / 1e9);
  }
  double cpu_us_per_op() const {
    return Ratio(static_cast<double>(w.serving_cpu_ns) / 1000.0,
                 static_cast<double>(w.Ops()));
  }
};

Measured Measure(Workload& wl, const Args& args, int seconds,
                 obs::Tracer* tracer) {
  Measured m;
  PurgeTracker& tracker = wl.stack().tracker();
  m.w = RunWindow(wl.Generators(), seconds, tracer, kSpanBudget,
                  [&tracker] { tracker.Match(); });
  const bool drained = tracker.Drain(kDrainNs);
  m.inval = tracker.SamplesDueIn(m.w.t0, m.w.end_ns);
  m.attempted = m.w.Sum(&GenStats::attempted);
  const uint64_t op_failures = m.w.Sum(&GenStats::failed);
  m.failed = op_failures + tracker.Outstanding();
  if (op_failures > 0) {
    std::string first;
    for (const GenStats& g : m.w.gens) {
      if (first.empty()) first = g.first_failure;
    }
    m.problems.push_back(std::to_string(op_failures) +
                         " operations failed, first: " + first);
  }
  if (!drained) {
    m.problems.push_back(std::to_string(tracker.Outstanding()) +
                         " expected purges missing, " +
                         std::to_string(tracker.Unexpected()) +
                         " unexplained purges");
  }
  for (const GenStats& g : m.w.gens) {
    if (g.check_failures > 0) {
      m.problems.push_back(std::to_string(g.check_failures) +
                           " output check failures, first: " +
                           g.first_problem);
    }
    std::vector<std::vector<int64_t>> late = m.w.Sliced(g.late);
    for (size_t k = 0; k < late.size(); ++k) {
      const Pct p50 = PercentileUs(&late[k], 0.50);
      if (p50.n > 0 && p50.value > kBehindUs) {
        m.behind.push_back("open-loop generator fell behind: median send " +
                             std::to_string(p50.value / 1000.0) +
                             " ms late in slice " + std::to_string(k));
        break;
      }
    }
  }
  if (wl.LogsChecks()) {
    std::vector<CheckEntry> checks;
    for (GenStats& g : m.w.gens) {
      checks.insert(checks.end(), g.checks.begin(), g.checks.end());
      std::vector<CheckEntry>().swap(g.checks);
    }
    m.replay = ReplayOracle(args.seed, tracker.Commits(), std::move(checks),
                            kDelta + kMicrosPerSecond / 2);
    if (m.replay.violations > 0) {
      m.problems.push_back(std::to_string(m.replay.violations) +
                           " oracle violations, first: " +
                           m.replay.first_violation);
    }
    if (m.replay.version_mismatches > 0) {
      m.problems.push_back("oracle replica diverged from the commit log");
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics

/// One window's end-to-end values: each is the interquartile mean over
/// the window's slices.
struct EndToEnd {
  double cpu_us_per_op = 0.0;
  double ops_per_s = 0.0;
  Pct read_p50;
  Pct write_p50;
  Pct inval_p50;
};

EndToEnd WindowEndToEnd(const Measured& m) {
  const Window& w = m.w;
  const std::vector<double> ops_per_s = w.RatePerSlice();
  const double slice_s = static_cast<double>(w.slice_ns) / 1e9;
  std::vector<double> cpu_per_op;
  for (size_t k = 0; k < w.slices; ++k) {
    cpu_per_op.push_back(
        Ratio(static_cast<double>(w.slice_serving_cpu_ns[k]) / 1e3,
              ops_per_s[k] * slice_s));
  }
  std::vector<std::vector<int64_t>> reads = w.Sliced(&GenStats::reads);
  std::vector<std::vector<int64_t>> writes = w.Sliced(&GenStats::writes);
  std::vector<std::vector<int64_t>> inval = w.Sliced(m.inval);
  EndToEnd e;
  e.cpu_us_per_op = MidMean(cpu_per_op);
  e.ops_per_s = MidMean(ops_per_s);
  e.read_p50 = SlicedPercentileUs(&reads, 0.50);
  e.write_p50 = SlicedPercentileUs(&writes, 0.50);
  e.inval_p50 = SlicedPercentileUs(&inval, 0.50);
  return e;
}

/// The median over windows of each value; a percentile keeps the count of
/// every sample behind it.
void ReportEndToEnd(const std::vector<EndToEnd>& windows, double setup_s,
                    bool closed_loop, Report* r) {
  const auto median = [&](double EndToEnd::*field) {
    std::vector<double> v;
    for (const EndToEnd& e : windows) v.push_back(e.*field);
    return Median(std::move(v));
  };
  const auto median_pct = [&](Pct EndToEnd::*field) {
    Pct out;
    std::vector<double> v;
    for (const EndToEnd& e : windows) {
      v.push_back((e.*field).value);
      out.n += (e.*field).n;
    }
    out.value = Median(std::move(v));
    return out;
  };
  r->Add("setup_s", setup_s, "s");
  r->Add("rss_mb", PeakRssMb(), "MB");
  r->Add("cpu_us_per_op", median(&EndToEnd::cpu_us_per_op), "us");
  if (closed_loop) r->Add("ops_per_s", median(&EndToEnd::ops_per_s), "1/s");
  r->AddPct("read_p50_us", median_pct(&EndToEnd::read_p50));
  r->AddPct("write_p50_us", median_pct(&EndToEnd::write_p50));
  r->AddPct("inval_p50_us", median_pct(&EndToEnd::inval_p50));
  std::string per_window = "per window, cpu_us_per_op and read/write/inval p50:";
  for (const EndToEnd& e : windows) {
    char one[96];
    std::snprintf(one, sizeof(one), " [%.1f %.1f/%.1f/%.1f]", e.cpu_us_per_op,
                  e.read_p50.value, e.write_p50.value, e.inval_p50.value);
    per_window += one;
  }
  r->Note(per_window);
  r->Note("each metric but setup_s and rss_mb is the median over " +
          std::to_string(windows.size()) +
          " windows of the interquartile mean over their 2-s slices");
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics

/// Stats snapshot for per-layer deltas.
struct Counters {
  core::ServerStats server;
  invalidb::ClusterStats cluster;
  std::vector<client::ClientStats> clients;
  webcache::CacheStats cdn;
  uint64_t deliveries = 0;
  uint64_t frames_shed = 0;
  uint64_t full_scans = 0;
};

Counters Snapshot(Workload& wl) {
  Stack& st = wl.stack();
  Counters c;
  c.server = st.server().stats();
  c.cluster = st.worker().worker()->cluster().stats();
  c.clients = wl.ClientStats();
  c.cdn = st.cdn().stats();
  c.deliveries = st.net().bridged_kv()->deliveries() +
                 st.worker().bridged_kv()->deliveries();
  c.frames_shed = st.net().hub()->frames_shed() +
                  st.worker().frame_client()->frames_shed() +
                  st.purge_client().frames_shed();
  const workload::WorkloadOptions& o = st.gen().options();
  for (size_t t = 0; t < o.num_tables; ++t) {
    c.full_scans +=
        st.db()
            .GetOrCreateTable(workload::WorkloadGenerator::TableName(t))
            ->full_scans();
  }
  return c;
}

void WriteSpans(const std::string& path, const std::vector<obs::Span>& spans) {
  std::ofstream out(path);
  out << "id\tparent\tname\tstart_us\tend_us\ttid\n";
  for (const obs::Span& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.name << '\t' << s.start
        << '\t' << s.end << '\t' << s.tid << '\n';
  }
}

void ReportPerLayer(const Args& args, bool closed_loop, const Measured& base,
                    const Measured& m, const Counters& c0, const Counters& c1,
                    const obs::Tracer& tracer, Report* r) {
  const std::vector<obs::Span> spans = tracer.Spans();
  WriteSpans(args.out_dir + "/trace-" + args.workload + "-seed" +
                 std::to_string(args.seed) + ".tsv",
             spans);
  std::map<std::string, std::vector<int64_t>> durations;
  for (const obs::Span& s : spans) {
    if (s.finished()) durations[s.name].push_back((s.end - s.start) * 1000);
  }
  const auto span_p50 = [&](const char* name) {
    return PercentileUs(&durations[name], 0.50);
  };
  const auto d = [](uint64_t before, uint64_t after) {
    return static_cast<double>(after - before);
  };

  double sdk_ops = 0, hits = 0, revalidations = 0, origin_fetches = 0;
  for (size_t i = 0; i < c1.clients.size(); ++i) {
    const client::ClientStats& a = c0.clients[i];
    const client::ClientStats& b = c1.clients[i];
    sdk_ops += d(a.reads + a.queries, b.reads + b.queries);
    hits += d(a.client_cache_hits, b.client_cache_hits);
    revalidations += d(a.revalidations, b.revalidations);
    origin_fetches += d(a.origin_fetches, b.origin_fetches);
  }
  const double cdn_lookups =
      d(c0.cdn.hits + c0.cdn.misses + c0.cdn.expired_misses,
        c1.cdn.hits + c1.cdn.misses + c1.cdn.expired_misses);
  const double writes = d(c0.server.writes, c1.server.writes);
  const double changes =
      d(c0.cluster.changes_ingested, c1.cluster.changes_ingested);
  std::vector<int64_t> hit_reads = m.w.All(&GenStats::hit_reads);
  std::vector<int64_t> all_reads = m.w.All(&GenStats::reads);
  std::vector<int64_t> all_writes = m.w.All(&GenStats::writes);
  std::vector<int64_t> late = m.w.All(&GenStats::late);
  std::vector<int64_t> inval;
  for (const Sample& s : m.inval) inval.push_back(s.ns);
  const Pct fetch = span_p50("server.fetch");
  const Pct rtt = span_p50("bench.http_fetch");

  // The client and webcache layers only work on sdk-mix.
  const bool sdk = !c1.clients.empty();
  if (sdk) {
    r->Add("client.hit_ratio", Ratio(hits, sdk_ops), "ratio");
    r->AddPct("client.read_us_p50", PercentileUs(&hit_reads, 0.50));
    r->Add("client.revalidation_ratio", Ratio(revalidations, sdk_ops),
           "ratio");
    r->Add("webcache.cdn_hit_ratio",
           Ratio(d(c0.cdn.hits, c1.cdn.hits), cdn_lookups), "ratio");
    r->Add("webcache.origin_fetch_ratio", Ratio(origin_fetches, sdk_ops),
           "ratio");
  }
  r->AddPct("net.http_rtt_us_p50", rtt);
  r->Add("net.http_overhead_us_p50",
         rtt.n > 0 && fetch.n > 0 ? rtt.value - fetch.value : 0.0, "us");
  r->Add("net.bridge_deliveries_per_write",
         Ratio(d(c0.deliveries, c1.deliveries), writes), "ratio");
  r->Add("net.frames_shed", d(c0.frames_shed, c1.frames_shed), "count");
  r->AddPct("core.fetch_us_p50", fetch);
  r->Add("core.not_modified_ratio",
         Ratio(d(c0.server.not_modified, c1.server.not_modified),
               d(c0.server.record_reads + c0.server.query_reads,
                 c1.server.record_reads + c1.server.query_reads)),
         "ratio");
  r->Add("core.memo_hit_ratio",
         Ratio(d(c0.server.body_memo_hits, c1.server.body_memo_hits),
               d(c0.server.body_memo_hits + c0.server.body_memo_misses,
                 c1.server.body_memo_hits + c1.server.body_memo_misses)),
         "ratio");
  r->AddPct("core.write_us_p50", span_p50("server.write"));
  r->AddPct("core.on_notification_us_p50", span_p50("server.on_notification"));
  r->AddPct("ttl.estimate_us_p50", span_p50("ttl.estimate"));
  r->AddPct("ebf.report_read_us_p50", span_p50("ebf.report_read"));
  r->AddPct("db.execute_us_p50", span_p50("db.execute"));
  r->Add("db.full_scans", d(c0.full_scans, c1.full_scans), "count");
  r->AddPct("invalidb.match_us_p50", span_p50("invalidb.match"));
  r->AddPct("invalidb.notify_us_p50", span_p50("invalidb.notify"));
  r->Add("invalidb.notifications_per_write",
         Ratio(d(c0.cluster.notifications_delivered,
                 c1.cluster.notifications_delivered),
               changes),
         "ratio");
  r->Add("invalidb.match_checks_per_change",
         Ratio(d(c0.cluster.match_checks, c1.cluster.match_checks), changes),
         "ratio");
  r->Add("bench.busiest_thread_util", m.w.busiest_util, "ratio");
  r->AddPct("bench.gen_lateness_us_p99", PercentileUs(&late, 0.99));
  r->AddPct("tail.read_p99_us", PercentileUs(&all_reads, 0.99));
  r->AddPct("tail.write_p99_us", PercentileUs(&all_writes, 0.99));
  r->AddPct("tail.inval_p99_us", PercentileUs(&inval, 0.99));
  if (sdk) {
    r->Add("check.stale_read_ratio",
           Ratio(static_cast<double>(m.replay.stale_reads),
                 static_cast<double>(m.replay.record_reads)),
           "ratio");
  }
  // Closed loops lose throughput to tracing; open loops keep their rate,
  // so there the overhead shows as CPU per operation.
  const double overhead =
      closed_loop ? 1.0 - Ratio(m.ops_per_s(), base.ops_per_s())
                  : Ratio(m.cpu_us_per_op(), base.cpu_us_per_op()) - 1.0;
  r->Add("obs.trace_overhead", overhead, "ratio");
  r->Add("obs.spans_dropped", static_cast<double>(tracer.DroppedSpans()),
         "count");
  r->Note("traced window " +
          std::to_string(static_cast<double>(m.w.end_ns - m.w.t0) / 1e9) +
          " s, " + std::to_string(spans.size()) + " spans");
}

int Run(const Args& args) {
  char header[512];
  std::snprintf(header, sizeof(header),
                "perfbench workload=%s seed=%" PRIu64
                " seconds=%d trace=%d build=%s nproc=%u git=%s",
                args.workload.c_str(), args.seed, args.seconds,
                args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
                std::thread::hardware_concurrency(), args.git_sha.c_str());
  Report report;
  std::vector<double> setup_s;
  std::vector<EndToEnd> windows;
  std::unique_ptr<Workload> wl;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const auto account = [&](const Measured& m, const std::string& label) {
    correct = correct && m.correct();
    attempted += m.attempted;
    failed += m.failed;
    for (const std::string& p : m.problems) report.Note(label + p);
    for (const std::string& p : m.behind) report.Note(label + p);
    report.Note(label + "host steal " +
                std::to_string(100.0 * m.w.host_steal) +
                "% of CPU time during the window");
  };
  // Measures a window on the current stack, again while falling behind in
  // high steal is its only problem. `before` runs before every try.
  const auto measure = [&](int seconds, obs::Tracer* tracer,
                           const std::string& label,
                           const std::function<void()>& before) {
    Measured m;
    for (int t = 1;; ++t) {
      before();
      m = Measure(*wl, args, seconds, tracer);
      if (m.behind.empty() || !m.problems.empty() ||
          m.w.host_steal <= kMaxSteal || t == kWindowTries) {
        break;
      }
      report.Note(label + "window discarded, fell behind in host steal " +
                  std::to_string(100.0 * m.w.host_steal) + "%");
    }
    account(m, label);
    return m;
  };
  const auto nothing = [] {};

  for (int i = 0; i < kSetups; ++i) {
    wl.reset();
    malloc_trim(0);  // return the torn-down stack's memory before the next
    wl = MakeWorkload(args.workload);
    const int64_t start = NowNs();
    std::string error;
    if (!wl->SetUp(args.seed, &error)) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!args.trace) {
      windows.push_back(
          WindowEndToEnd(measure(std::max(1, args.seconds / kSetups), nullptr,
                                 "window " + std::to_string(i) + ": ",
                                 nothing)));
    }
  }

  if (!args.trace) {
    ReportEndToEnd(windows, Median(setup_s), wl->ClosedLoop(), &report);
  } else {
    // The last stack measures an untraced window, then a traced one; the
    // pair gives the tracing overhead. Each takes half of --seconds, so
    // that retries still end within the run's time limit.
    const int seconds = std::max(1, args.seconds / 2);
    const Measured base = measure(seconds, nullptr, "untraced: ", nothing);
    obs::TracerOptions topts;
    topts.deterministic_ids = false;
    obs::Tracer tracer(SystemClock::Default(), topts);
    wl->SetTracer(&tracer);
    Counters c0;
    const Measured traced =
        measure(seconds, &tracer, "traced: ", [&] {
          tracer.Clear();
          c0 = Snapshot(*wl);
        });
    const Counters c1 = Snapshot(*wl);
    wl->SetTracer(nullptr);
    ReportPerLayer(args, wl->ClosedLoop(), base, traced, c0, c1, tracer,
                   &report);
  }
  report.Note("fail_ratio " +
              std::to_string(Ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted))));
  report.Print(header, correct, attempted, failed);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return MakeWorkload(a->workload) != nullptr && a->seconds > 0;
}

}  // namespace
}  // namespace quaestor::perfbench

int main(int argc, char** argv) {
  quaestor::perfbench::Args args;
  if (!quaestor::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload origin-read|write-invalidate|"
                 "sdk-mix --seed N --seconds S --trace 0|1 [--git-sha SHA] "
                 "[--out-dir DIR]\n");
    return 2;
  }
  return quaestor::perfbench::Run(args);
}
