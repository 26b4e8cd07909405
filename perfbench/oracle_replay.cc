#include "oracle_replay.h"

#include <algorithm>
#include <unordered_map>

#include "check/oracle.h"
#include "db/database.h"
#include "stack.h"
#include "ttl/representation.h"
#include "workload/workload.h"

namespace quaestor::perfbench {

ReplayResult ReplayOracle(uint64_t seed,
                          const std::vector<db::ChangeEvent>& commits,
                          std::vector<CheckEntry> checks, Micros bound) {
  ReplayResult out;
  SimulatedClock clock;
  db::Database replica(&clock);
  check::OracleOptions oopts;
  oopts.delta = bound;
  check::ConsistencyOracle oracle(&clock, &replica, oopts);
  // The initial load enters the oracle's write history through the
  // replica's change stream; replayed commits are fed by hand below.
  bool loading = true;
  replica.AddChangeListener([&](const db::ChangeEvent& ev) {
    if (loading) oracle.OnCommit(ev);
  });
  workload::WorkloadGenerator gen(PaperShape(), seed);
  gen.Load(&replica);
  loading = false;
  const workload::WorkloadOptions& shape = gen.options();
  for (size_t t = 0; t < shape.num_tables; ++t) {
    for (const db::Query& q : gen.QueriesFor(t)) oracle.TrackQuery(q);
  }

  // Per-record commit history (commit time, version) for the staleness
  // ratio: which version was current when a read started.
  std::unordered_map<std::string, std::vector<std::pair<Micros, uint64_t>>>
      history;
  std::stable_sort(checks.begin(), checks.end(),
                   [](const CheckEntry& a, const CheckEntry& b) {
                     return a.end_us < b.end_us;
                   });
  size_t next_commit = 0;
  const auto apply_commits_until = [&](Micros t) {
    while (next_commit < commits.size() &&
           commits[next_commit].commit_time <= t) {
      const db::ChangeEvent& ev = commits[next_commit++];
      auto res = replica.Upsert(ev.after.table, ev.after.id, ev.after.body);
      if (!res.ok() || res.value().version != ev.after.version) {
        ++out.version_mismatches;
      }
      clock.SetTime(ev.commit_time);
      oracle.OnCommit(ev);
      history[ev.after.Key()].emplace_back(ev.commit_time, ev.after.version);
    }
  };

  for (const CheckEntry& c : checks) {
    apply_commits_until(c.end_us);
    clock.SetTime(std::max(clock.NowMicros(), c.end_us));
    const std::string session = "s" + std::to_string(c.session);
    if (c.kind == CheckEntry::kRead) {
      const size_t t = c.index / shape.docs_per_table;
      const size_t d = c.index % shape.docs_per_table;
      const std::string key = workload::WorkloadGenerator::TableName(t) +
                              "/" + workload::WorkloadGenerator::DocId(d);
      oracle.CheckRead(session, key, c.ok, c.value);
      if (c.ok) {
        ++out.record_reads;
        uint64_t current = 1;  // the initial load
        auto h = history.find(key);
        if (h != history.end()) {
          for (const auto& [at, version] : h->second) {
            if (at > c.start_us) break;
            current = version;
          }
        }
        if (c.value < current) ++out.stale_reads;
      }
    } else {
      const size_t t = c.index / shape.queries_per_table;
      const size_t g = c.index % shape.queries_per_table;
      oracle.CheckQuery(session, gen.QueriesFor(t)[g], c.ok, c.value,
                        static_cast<ttl::ResultRepresentation>(
                            c.representation));
    }
    ++out.checks;
  }
  out.violations = oracle.violations().size();
  if (!oracle.violations().empty()) {
    out.first_violation = oracle.violations().front().ToString();
  }
  return out;
}

}  // namespace quaestor::perfbench
