// Micro-benchmark for predicate-indexed InvaliDB matching: a grid of
// installed-query counts × update batch sizes, each cell measured twice —
// with the brute-force seed matcher (every event evaluated against every
// query) and with the query index (only candidates evaluated). Emits the
// full grid to BENCH_matching.json for machine consumption; run it from
// the repo root so the artifact lands there.
//
// The query mix mirrors a realistic subscription population: ~90%
// carry an indexable conjunct (equality on "group", a range window on
// "score", or a string prefix on "name") and ~10% are residual (no
// indexable conjunct: $exists / $ne) and must be evaluated on every
// event in both modes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "db/query.h"
#include "invalidb/matching_node.h"
#include "obs/trace.h"

namespace quaestor::bench {
namespace {

using invalidb::MatchingNode;
using invalidb::Notification;

constexpr int kGroups = 1000;
constexpr int kScoreDomain = 1000;
constexpr int kNames = 1000;

db::Query MakeQuery(Rng& rng, bool* residual) {
  const uint64_t roll = rng.NextUint64(10);
  std::string filter;
  *residual = false;
  if (roll < 5) {  // equality on group
    filter = "{\"group\":" + std::to_string(rng.NextUint64(kGroups)) + "}";
  } else if (roll < 8) {  // range window on score
    const uint64_t lo = rng.NextUint64(kScoreDomain - 5);
    filter = "{\"score\":{\"$gte\":" + std::to_string(lo) +
             ",\"$lt\":" + std::to_string(lo + 5) + "}}";
  } else if (roll < 9) {  // string prefix on name
    filter = "{\"name\":{\"$prefix\":\"u" +
             std::to_string(rng.NextUint64(kNames / 10)) + "\"}}";
  } else {  // residual: no indexable conjunct
    *residual = true;
    filter = rng.NextBool(0.5)
                 ? "{\"flags\":{\"$exists\":true}}"
                 : "{\"group\":{\"$ne\":" +
                       std::to_string(rng.NextUint64(kGroups)) + "}}";
  }
  return db::Query::ParseJson("posts", filter).value();
}

db::ChangeEvent MakeEvent(Rng& rng, int i) {
  db::ChangeEvent ev;
  ev.kind = db::WriteKind::kUpdate;
  ev.after.table = "posts";
  ev.after.id = "d" + std::to_string(i % 4096);
  db::Object body;
  body["group"] = db::Value(static_cast<int64_t>(rng.NextUint64(kGroups)));
  body["score"] =
      db::Value(static_cast<int64_t>(rng.NextUint64(kScoreDomain)));
  body["name"] = db::Value("u" + std::to_string(rng.NextUint64(kNames)));
  ev.after.body = db::Value(std::move(body));
  ev.commit_time = i;
  return ev;
}

struct ModeResult {
  double events_per_s = 0;
  double checks_per_event = 0;
  uint64_t notifications = 0;
  size_t residual_queries = 0;
};

ModeResult RunMode(bool use_index, size_t num_queries,
                   const std::vector<db::ChangeEvent>& events,
                   obs::Tracer* tracer = nullptr) {
  // Same seed in both modes → identical query populations.
  Rng rng(0xBE7C * (num_queries + 1));
  MatchingNode node(use_index);
  node.set_tracer(tracer);
  for (size_t i = 0; i < num_queries; ++i) {
    bool residual = false;
    const db::Query q = MakeQuery(rng, &residual);
    node.AddQuery(q, std::to_string(i) + ":" + q.NormalizedKey(), {});
  }
  std::vector<Notification> out;
  uint64_t checks = 0;
  uint64_t notifications = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const db::ChangeEvent& ev : events) {
    out.clear();
    checks += node.Match(ev, &out).checked;
    notifications += out.size();
  }
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start).count();

  ModeResult r;
  r.events_per_s =
      seconds > 0 ? static_cast<double>(events.size()) / seconds : 0;
  r.checks_per_event =
      static_cast<double>(checks) / static_cast<double>(events.size());
  r.notifications = notifications;
  r.residual_queries = node.ResidualQueryCount();
  return r;
}

void Run(const std::string& json_path) {
  PrintHeader("InvaliDB matching: brute-force seed vs query index");
  PrintNote("~90% indexable queries (eq/range/prefix), ~10% residual");
  PrintColumns("queries/updates",
               {"seed ev/s", "idx ev/s", "speedup", "seed chk/ev",
                "idx chk/ev", "resid%"});

  db::Array rows;
  const std::vector<size_t> query_counts = {1000, 5000, 10000};
  const std::vector<size_t> update_counts = {1000, 4000};
  for (size_t nq : query_counts) {
    for (size_t nu : update_counts) {
      Rng ev_rng(0xE0E0 + nu);
      std::vector<db::ChangeEvent> events;
      events.reserve(nu);
      for (size_t i = 0; i < nu; ++i) {
        events.push_back(MakeEvent(ev_rng, static_cast<int>(i)));
      }

      const ModeResult seed = RunMode(/*use_index=*/false, nq, events);
      const ModeResult indexed = RunMode(/*use_index=*/true, nq, events);
      const double speedup = seed.events_per_s > 0
                                 ? indexed.events_per_s / seed.events_per_s
                                 : 0;
      const double resid_pct =
          100.0 * static_cast<double>(indexed.residual_queries) /
          static_cast<double>(nq);
      PrintRow(std::to_string(nq) + "q / " + std::to_string(nu) + "u",
               {seed.events_per_s, indexed.events_per_s, speedup,
                seed.checks_per_event, indexed.checks_per_event, resid_pct});

      // Both modes must agree on what they notified about.
      if (seed.notifications != indexed.notifications) {
        PrintNote("MISMATCH: seed delivered " +
                  std::to_string(seed.notifications) + ", indexed " +
                  std::to_string(indexed.notifications));
      }

      db::Object row;
      row["queries"] = db::Value(static_cast<int64_t>(nq));
      row["updates"] = db::Value(static_cast<int64_t>(nu));
      row["residual_queries"] =
          db::Value(static_cast<int64_t>(indexed.residual_queries));
      row["seed_events_per_s"] = db::Value(seed.events_per_s);
      row["indexed_events_per_s"] = db::Value(indexed.events_per_s);
      row["speedup"] = db::Value(speedup);
      row["seed_checks_per_event"] = db::Value(seed.checks_per_event);
      row["indexed_checks_per_event"] =
          db::Value(indexed.checks_per_event);
      row["notifications"] =
          db::Value(static_cast<int64_t>(indexed.notifications));
      row["notifications_match"] =
          db::Value(seed.notifications == indexed.notifications);
      rows.push_back(db::Value(std::move(row)));
    }
  }

  // Tracer overhead: the per-request span instrumentation must cost
  // < 5% matching throughput (CI gates on this). Each trial times the
  // tracer-off and tracer-on node back to back on the same events, and
  // the reported overhead is the median of the per-trial ratios — the
  // pairing cancels load drift that would swamp the sub-percent signal
  // if the two modes were timed in separate passes.
  PrintHeader("Tracer overhead on indexed matching (10000q)");
  Rng overhead_rng(0xE0E0 + 1000);
  std::vector<db::ChangeEvent> overhead_events;
  overhead_events.reserve(1000);
  for (size_t i = 0; i < 1000; ++i) {
    overhead_events.push_back(MakeEvent(overhead_rng, static_cast<int>(i)));
  }

  // Identical query populations in both nodes (same seed).
  MatchingNode off_node(/*use_index=*/true);
  MatchingNode on_node(/*use_index=*/true);
  for (MatchingNode* node : {&off_node, &on_node}) {
    Rng rng(0xBE7C * (10000 + 1));
    for (size_t i = 0; i < 10000; ++i) {
      bool residual = false;
      const db::Query q = MakeQuery(rng, &residual);
      node->AddQuery(q, std::to_string(i) + ":" + q.NormalizedKey(), {});
    }
  }
  obs::TracerOptions topts;
  topts.deterministic_ids = false;  // wall-clock mode, as in production
  obs::Tracer tracer(SystemClock::Default(), topts);
  on_node.set_tracer(&tracer);

  // Short slices interleave the two modes finely, so a load spike lands
  // on both sides of a pair rather than skewing one whole pass.
  constexpr size_t kSliceEvents = 200;
  constexpr int kTrials = 21;
  const auto time_slice = [&overhead_events](MatchingNode* node,
                                             size_t offset) {
    std::vector<Notification> out;
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kSliceEvents; ++i) {
      out.clear();
      node->Match(overhead_events[(offset + i) % overhead_events.size()],
                  &out);
    }
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
  };

  std::vector<double> ratios;
  double sum_off = 0.0;
  double sum_on = 0.0;
  (void)time_slice(&off_node, 0);  // warm both nodes before timing
  (void)time_slice(&on_node, 0);
  tracer.Clear();
  for (int trial = 0; trial < kTrials; ++trial) {
    const size_t offset = static_cast<size_t>(trial) * kSliceEvents;
    const double t_off = time_slice(&off_node, offset);
    const double t_on = time_slice(&on_node, offset);
    tracer.Clear();  // keep the span buffer from growing across trials
    if (t_off > 0) ratios.push_back(t_on / t_off);
    sum_off += t_off;
    sum_on += t_on;
  }
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio =
      ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
  const double overhead_pct = (median_ratio - 1.0) * 100.0;
  const double total_events =
      static_cast<double>(kTrials) * static_cast<double>(kSliceEvents);
  const double best_off = sum_off > 0 ? total_events / sum_off : 0.0;
  const double best_on = sum_on > 0 ? total_events / sum_on : 0.0;
  PrintRow("tracer off/on ev/s", {best_off, best_on, overhead_pct});
  PrintNote("overhead% (median of paired trials) must stay <= 5 (CI-gated)");

  db::Object root;
  root["benchmark"] = db::Value("invalidb_matching");
  root["description"] = db::Value(
      "MatchingNode::Match throughput, brute-force seed vs query index");
  root["rows"] = db::Value(std::move(rows));
  root["tracer_events_per_s_off"] = db::Value(best_off);
  root["tracer_events_per_s_on"] = db::Value(best_on);
  root["tracer_overhead_pct"] = db::Value(overhead_pct);
  WriteJsonFile(json_path, db::Value(std::move(root)));

  obs::MetricsRegistry registry;
  registry.SetGauge("tracer_overhead_pct", overhead_pct);
  registry.SetGauge("matching_events_per_s", {{"tracer", "off"}}, best_off);
  registry.SetGauge("matching_events_per_s", {{"tracer", "on"}}, best_on);
  AccumulateObs(registry.Snapshot());
}

}  // namespace
}  // namespace quaestor::bench

int main(int argc, char** argv) {
  quaestor::bench::Run(argc > 1 ? argv[1] : "BENCH_matching.json");
  quaestor::bench::WriteObsSnapshot("invalidb_matching");
  return 0;
}
