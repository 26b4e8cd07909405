// End-to-end write-path throughput over the message-queue transport:
// change events flow remote → reliable queue → worker → cluster matching →
// notifications → reliable queue → remote sink. Sweeps the batch size
// (1 = every change and every dispatch ships at once, the default)
// against two update workloads over a 10,000-query indexed cluster and
// writes BENCH_write.json so CI can gate on the batched speedup.
//
// Notification counts must be identical across batch sizes for the same
// workload — batching changes the framing, never the matching output.
//
// Usage: bench_write_throughput [output.json] [events-per-config] [repeats]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "db/document.h"
#include "db/query.h"
#include "db/value.h"
#include "invalidb/transport.h"

namespace quaestor::bench {
namespace {

using invalidb::BatchOptions;
using invalidb::InvalidbOptions;
using invalidb::InvalidbRemote;
using invalidb::InvalidbWorker;
using invalidb::LoopbackLink;
using invalidb::TransportOptions;

constexpr size_t kQueries = 10000;
constexpr size_t kMemberDocs = 2 * kQueries;  // 2 result members per query
const std::vector<size_t> kBatchSizes = {1, 8, 64, 256};

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

db::Value MemberBody(size_t i, int64_t views) {
  db::Object o;
  o["group"] = db::Value(static_cast<int64_t>(i % kQueries));
  o["views"] = db::Value(views);
  return db::Value(std::move(o));
}

db::Value StrayBody(size_t i, int64_t views) {
  db::Object o;
  // Groups >= kQueries match no registered query: the index probe comes
  // back empty and no notification is emitted.
  o["group"] = db::Value(static_cast<int64_t>(kQueries + (i % kQueries)));
  o["views"] = db::Value(views);
  return db::Value(std::move(o));
}

db::Document MemberDoc(size_t i, int64_t views, Micros now) {
  db::Document d;
  d.table = "posts";
  d.id = "post-" + std::to_string(i);
  d.version = 1;
  d.write_time = now;
  d.body = MemberBody(i, views);
  return d;
}

struct RunResult {
  double events_per_s = 0.0;
  uint64_t notifications = 0;
  uint64_t batches_sent = 0;
};

/// One closed-loop run: registers the query set, then pumps `num_events`
/// update events through the transport until every notification is back.
/// `match_rate` is the fraction of events that touch a query member.
RunResult Run(size_t batch, size_t num_events, double match_rate) {
  Clock* clock = SystemClock::Default();
  LoopbackLink to_worker;
  LoopbackLink to_remote;

  TransportOptions topts;
  topts.batching.max_batch = batch;
  // Size- and barrier-triggered flushes only: the pump cadence, not the
  // wall clock, decides when partial batches ship.
  topts.batching.flush_interval = kMicrosPerSecond;

  InvalidbOptions copts;
  copts.query_partitions = 2;
  copts.object_partitions = 2;
  copts.threaded = true;  // the real-throughput mode: per-node workers

  uint64_t notifications = 0;
  InvalidbWorker worker(clock, to_remote.sender(), "bench", copts, topts);
  InvalidbRemote remote(
      clock, to_worker.sender(), "bench",
      [&notifications](const std::vector<invalidb::Notification>& batch) {
        notifications += batch.size();
      },
      topts);
  to_worker.Attach(&worker);
  to_remote.Attach(&remote);

  // Install the query set: one equality query per group, two members each.
  const Micros t0 = clock->NowMicros();
  for (size_t g = 0; g < kQueries; ++g) {
    auto q = db::Query::ParseJson("posts",
                                  "{\"group\":" + std::to_string(g) + "}");
    if (!q.ok()) std::abort();
    std::vector<db::Document> initial;
    initial.push_back(MemberDoc(g, 0, t0));
    initial.push_back(MemberDoc(g + kQueries, 0, t0));
    remote.RegisterQuery(q.value(), initial, t0);
    if (g % 512 == 511) to_worker.Pump();
  }
  to_worker.Pump();
  to_remote.Pump();

  const auto pump = [&] {
    to_worker.Pump();
    to_remote.Pump();
  };

  // Closed-loop event stream. A seeded LCG picks the victim doc; every
  // in-rate event updates a member in place (group unchanged → one
  // kChange notification), the rest touch stray groups (no candidates).
  const uint64_t rate_mod = match_rate >= 1.0
                                ? 1
                                : static_cast<uint64_t>(1.0 / match_rate);
  uint64_t lcg = 0x2545f4914f6cdd1dull;
  const double start = MonotonicSeconds();
  for (size_t n = 0; n < num_events; ++n) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const size_t i = static_cast<size_t>((lcg >> 17) % kMemberDocs);
    db::ChangeEvent ev;
    ev.kind = db::WriteKind::kUpdate;
    ev.after.table = "posts";
    ev.after.id = "post-" + std::to_string(i);
    ev.after.version = 2 + n;
    ev.after.write_time = t0 + 1 + static_cast<Micros>(n);
    ev.after.body = (n % rate_mod == 0)
                        ? MemberBody(i, static_cast<int64_t>(n))
                        : StrayBody(i, static_cast<int64_t>(n));
    ev.commit_time = ev.after.write_time;
    remote.OnChange(ev);
    if (n % 1024 == 1023) pump();
  }
  remote.FlushChanges();
  // Drain: over the loopback links every round trip completes in one pump,
  // but loop until the reliable layer confirms everything (bounded).
  for (int round = 0; round < 64; ++round) {
    pump();
    if (remote.unacked_requests() == 0 &&
        remote.pending_notifications() == 0) {
      break;
    }
  }
  const double elapsed = MonotonicSeconds() - start;

  RunResult r;
  r.events_per_s = elapsed > 0.0 ? num_events / elapsed : 0.0;
  r.notifications = notifications;
  r.batches_sent = remote.stats().batches_sent;
  return r;
}

}  // namespace
}  // namespace quaestor::bench

int main(int argc, char** argv) {
  using namespace quaestor;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_write.json";
  const size_t num_events =
      argc > 2 ? static_cast<size_t>(std::atol(argv[2])) : 40000;
  // Throughput is scheduler-noise-bound on small machines; each config
  // reports its best trial (all trials must agree on notification counts).
  const int repeats = argc > 3 ? std::atoi(argv[3]) : 3;

  const unsigned hw = std::thread::hardware_concurrency();
  bench::PrintNote("hardware threads: " + std::to_string(hw) +
                   ", build type: " + QUAESTOR_BUILD_TYPE);

  db::Object workloads;
  bool all_match = true;
  double min_speedup = 0.0;
  double max_speedup = 0.0;
  for (const double match_rate : {0.1, 1.0}) {
    const std::string wname =
        match_rate >= 1.0 ? "update_rate_1.0" : "update_rate_0.1";
    bench::PrintHeader("write throughput, " + wname + " (" +
                       std::to_string(num_events) + " events)");
    bench::PrintColumns("batch",
                        {"events/s", "notifs", "envelopes", "speedup"});
    db::Object per_batch;
    double base = 0.0;
    double at64 = 0.0;
    uint64_t expect_notifs = 0;
    bool counts_match = true;
    for (const size_t batch : bench::kBatchSizes) {
      auto r = bench::Run(batch, num_events, match_rate);
      for (int rep = 1; rep < repeats; ++rep) {
        const auto again = bench::Run(batch, num_events, match_rate);
        if (again.notifications != r.notifications) counts_match = false;
        if (again.events_per_s > r.events_per_s) r = again;
      }
      if (batch == 1) {
        base = r.events_per_s;
        expect_notifs = r.notifications;
      }
      if (batch == 64) at64 = r.events_per_s;
      if (r.notifications != expect_notifs) counts_match = false;
      const double speedup = base > 0.0 ? r.events_per_s / base : 0.0;
      per_batch["b" + std::to_string(batch)] = db::Value(r.events_per_s);
      bench::PrintRow("batch=" + std::to_string(batch),
                      {r.events_per_s, static_cast<double>(r.notifications),
                       static_cast<double>(r.batches_sent), speedup});
    }
    const double speedup64 = base > 0.0 ? at64 / base : 0.0;
    if (!counts_match) {
      bench::PrintNote("NOTIFICATION COUNT MISMATCH — batching changed "
                       "matching output");
      all_match = false;
    }
    bench::PrintNote("speedup batch64 vs batch1: " +
                     std::to_string(speedup64));
    db::Object w;
    w["events_per_s"] = db::Value(std::move(per_batch));
    w["notifications"] = db::Value(static_cast<int64_t>(expect_notifs));
    w["notifications_match"] = db::Value(counts_match);
    w["speedup_64_vs_1"] = db::Value(speedup64);
    workloads[wname] = db::Value(std::move(w));
    if (min_speedup == 0.0 || speedup64 < min_speedup) {
      min_speedup = speedup64;
    }
    if (speedup64 > max_speedup) max_speedup = speedup64;
  }

  db::Object root;
  root["benchmark"] = db::Value("write_throughput");
  root["build_type"] = db::Value(QUAESTOR_BUILD_TYPE);
  root["hardware_threads"] = db::Value(static_cast<int64_t>(hw));
  root["events_per_config"] = db::Value(static_cast<int64_t>(num_events));
  db::Array batch_axis;
  for (size_t b : bench::kBatchSizes) {
    batch_axis.push_back(db::Value(static_cast<int64_t>(b)));
  }
  root["batch_sizes"] = db::Value(std::move(batch_axis));
  root["workloads"] = db::Value(std::move(workloads));
  root["notifications_match"] = db::Value(all_match);
  // Headline: the ingest-bound workload's speedup; _min is the worst
  // workload (the notification-heavy one pays the return path's
  // byte-proportional cost in both modes) and is what CI gates on.
  root["speedup_64_vs_1"] = db::Value(max_speedup);
  root["speedup_64_vs_1_min"] = db::Value(min_speedup);
  bench::WriteJsonFile(out_path, db::Value(std::move(root)));
  return all_match ? 0 : 1;
}
