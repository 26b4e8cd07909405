// Property test: predicate-indexed matching is observationally equivalent
// to brute force. Two MatchingNodes — one indexed, one brute-force — get
// the same queries, the same initial result ids, and the same randomized
// change stream; they must emit identical notification sequences (the
// index may only prune queries whose outcome is provably "no event").
// A second property does the same for Table::Execute: an indexed table
// and an index-free table answering the same randomized queries over the
// same data must return byte-identical results.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/random.h"
#include "db/query.h"
#include "db/table.h"
#include "db/value.h"
#include "fault/fault_injector.h"
#include "fault/faulty_send.h"
#include "invalidb/cluster.h"
#include "invalidb/matching_node.h"
#include "invalidb/transport.h"

namespace quaestor::invalidb {
namespace {

using db::Array;
using db::ChangeEvent;
using db::CompareOp;
using db::Document;
using db::Object;
using db::Predicate;
using db::Query;
using db::Value;
using db::WriteKind;

const char* const kStrings[] = {"alpha", "alps",  "beta", "bet",
                                "gamma", "gam",   "",     "delta"};
const char* const kPaths[] = {"a", "b", "s", "tags", "nested.x",
                              "nested.y", "tags.0", "missing"};

Value RandomScalar(Rng& rng) {
  switch (rng.NextUint64(5)) {
    case 0:
      return Value(nullptr);
    case 1:
      return Value(rng.NextBool(0.5));
    case 2:
      return Value(static_cast<int64_t>(rng.NextUint64(6)));
    case 3:
      return Value(static_cast<double>(rng.NextUint64(6)) / 2.0);
    default:
      return Value(kStrings[rng.NextUint64(8)]);
  }
}

Value RandomDoc(Rng& rng) {
  Object doc;
  if (rng.NextBool(0.9)) doc["a"] = RandomScalar(rng);
  if (rng.NextBool(0.8)) doc["b"] = RandomScalar(rng);
  if (rng.NextBool(0.8)) doc["s"] = Value(kStrings[rng.NextUint64(8)]);
  if (rng.NextBool(0.7)) {
    Array tags;
    const size_t n = rng.NextUint64(4);
    for (size_t i = 0; i < n; ++i) tags.push_back(RandomScalar(rng));
    doc["tags"] = Value(std::move(tags));
  }
  if (rng.NextBool(0.6)) {
    Object nested;
    if (rng.NextBool(0.8)) nested["x"] = RandomScalar(rng);
    if (rng.NextBool(0.5)) nested["y"] = RandomScalar(rng);
    doc["nested"] = Value(std::move(nested));
  }
  return Value(std::move(doc));
}

/// Random predicates spanning every operator the query language has —
/// indexable conjuncts (eq / in / ranges / prefix), residual leaves
/// ($ne, $nin, $contains, $exists), and boolean combinators. The point
/// is to stress BOTH sides of the query index's indexable/residual split.
Predicate RandomPredicate(Rng& rng, int depth) {
  const uint64_t roll = rng.NextUint64(depth > 0 ? 10 : 7);
  if (roll < 7) {
    const std::string path = kPaths[rng.NextUint64(8)];
    const CompareOp ops[] = {
        CompareOp::kEq,  CompareOp::kNe,       CompareOp::kGt,
        CompareOp::kGte, CompareOp::kLt,       CompareOp::kLte,
        CompareOp::kIn,  CompareOp::kNin,      CompareOp::kContains,
        CompareOp::kExists, CompareOp::kPrefix};
    const CompareOp op = ops[rng.NextUint64(11)];
    Value operand;
    if (op == CompareOp::kIn || op == CompareOp::kNin) {
      Array elems;
      const size_t n = 1 + rng.NextUint64(3);
      for (size_t i = 0; i < n; ++i) elems.push_back(RandomScalar(rng));
      operand = Value(std::move(elems));
    } else if (op == CompareOp::kExists) {
      operand = Value(rng.NextBool(0.5));
    } else {
      operand = RandomScalar(rng);
    }
    return Predicate::Compare(path, op, operand);
  }
  if (roll < 8) {  // NOT
    return Predicate::Not(RandomPredicate(rng, depth - 1));
  }
  std::vector<Predicate> children;
  const size_t n = 2 + rng.NextUint64(2);
  for (size_t i = 0; i < n; ++i) {
    children.push_back(RandomPredicate(rng, depth - 1));
  }
  return roll < 9 ? Predicate::And(std::move(children))
                  : Predicate::Or(std::move(children));
}

bool NotificationLess(const Notification& x, const Notification& y) {
  if (x.query_key != y.query_key) return x.query_key < y.query_key;
  if (x.record_id != y.record_id) return x.record_id < y.record_id;
  return x.type < y.type;
}

// ---------------------------------------------------------------------------
// MatchingNode: indexed vs brute force
// ---------------------------------------------------------------------------

TEST(MatchingEquivalenceTest, IndexedNodeEmitsExactlyBruteForceEvents) {
  Rng rng(0x5EED2026);
  constexpr int kQueries = 120;
  constexpr int kRecords = 40;
  constexpr int kEvents = 600;

  // Initial record pool; queries are installed with consistent initial
  // result ids so remove events are reachable from the very first change.
  std::map<std::string, Value> live;
  for (int i = 0; i < kRecords; ++i) {
    live["r" + std::to_string(i)] = RandomDoc(rng);
  }

  MatchingNode indexed(/*use_index=*/true);
  MatchingNode brute(/*use_index=*/false);
  size_t installed = 0;
  for (int i = 0; i < kQueries; ++i) {
    Query q("t", RandomPredicate(rng, 2));
    // Key by index so duplicate predicates stay distinct installations.
    const std::string key = std::to_string(i) + ":" + q.NormalizedKey();
    std::vector<std::string> ids;
    for (const auto& [id, body] : live) {
      if (q.Matches(body)) ids.push_back(id);
    }
    indexed.AddQuery(q, key, ids);
    brute.AddQuery(q, key, std::move(ids));
    ++installed;
  }
  ASSERT_EQ(indexed.QueryCount(), installed);
  // The generator must produce both indexable and residual queries, or
  // the equivalence property is vacuous on one side of the split.
  ASSERT_GT(indexed.ResidualQueryCount(), 0u);
  ASSERT_LT(indexed.ResidualQueryCount(), installed);

  std::vector<Notification> got, want;
  size_t total_events = 0, adds = 0, removes = 0, changes = 0;
  uint64_t indexed_checks = 0, indexed_naive = 0;
  uint64_t brute_checks = 0, brute_naive = 0;
  for (int round = 0; round < kEvents; ++round) {
    const std::string id = "r" + std::to_string(rng.NextUint64(kRecords));
    ChangeEvent ev;
    ev.commit_time = round;
    ev.after.table = "t";
    ev.after.id = id;
    ev.after.version = static_cast<uint64_t>(round) + 2;
    const auto it = live.find(id);
    if (it != live.end() && rng.NextBool(0.2)) {
      ev.kind = WriteKind::kDelete;
      ev.after.deleted = true;
      ev.after.body = it->second;  // last pre-delete body
      live.erase(it);
    } else {
      ev.kind = it == live.end() ? WriteKind::kInsert : WriteKind::kUpdate;
      ev.after.body = RandomDoc(rng);
      live[id] = ev.after.body;
    }

    got.clear();
    want.clear();
    const MatchingNode::MatchStats ms = indexed.Match(ev, &got);
    const MatchingNode::MatchStats bs = brute.Match(ev, &want);
    indexed_checks += ms.checked;
    indexed_naive += ms.installed;
    brute_checks += bs.checked;
    brute_naive += bs.installed;
    EXPECT_EQ(ms.installed, installed);
    EXPECT_LE(ms.checked, installed);
    // Every emitted notification implies the query was a candidate.
    EXPECT_LE(got.size(), ms.checked);

    std::sort(got.begin(), got.end(), NotificationLess);
    std::sort(want.begin(), want.end(), NotificationLess);
    ASSERT_EQ(got.size(), want.size())
        << "event " << round << " id " << id << " body "
        << ev.after.body.ToJson();
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].query_key, want[i].query_key) << "event " << round;
      ASSERT_EQ(got[i].record_id, want[i].record_id) << "event " << round;
      ASSERT_EQ(got[i].type, want[i].type)
          << "event " << round << " query " << got[i].query_key;
      ASSERT_EQ(got[i].event_time, want[i].event_time);
      switch (got[i].type) {
        case NotificationType::kAdd: ++adds; break;
        case NotificationType::kRemove: ++removes; break;
        default: ++changes; break;
      }
    }
    total_events += got.size();
  }

  // Anti-vacuity: the stream must exercise every membership transition.
  EXPECT_GT(adds, 100u);
  EXPECT_GT(removes, 100u);
  EXPECT_GT(changes, 100u);
  EXPECT_GT(total_events, 0u);
  // And the index must have actually pruned work, not merely matched it.
  // (The generator is deliberately residual-heavy, so the margin is small
  // here; the selective-workload speedup is measured by the benchmark.)
  EXPECT_LT(indexed_checks, indexed_naive);
  EXPECT_EQ(brute_checks, brute_naive);
}

// ---------------------------------------------------------------------------
// Cluster with a live Resize() mid-stream vs brute force
// ---------------------------------------------------------------------------

// A cluster that repartitions halfway through a randomized update stream
// must emit exactly the notifications a single brute-force MatchingNode
// emits for the same stream — the Resize() zero-loss/zero-duplication
// contract checked against the simplest possible oracle.
TEST(MatchingEquivalenceTest, ClusterResizeMidUpdatesMatchesBruteForce) {
  Rng rng(0xE1A57);
  constexpr int kQueries = 60;
  constexpr int kRecords = 30;
  constexpr int kEvents = 400;

  std::map<std::string, Value> live;
  for (int i = 0; i < kRecords; ++i) {
    live["r" + std::to_string(i)] = RandomDoc(rng);
  }

  SimulatedClock clock(0);
  std::vector<Notification> got;
  InvalidbOptions opts;
  opts.query_partitions = 2;
  opts.object_partitions = 2;
  InvalidbCluster cluster(&clock, opts,
                          [&](const std::vector<Notification>& batch) {
                            got.insert(got.end(), batch.begin(), batch.end());
                          });
  MatchingNode brute(/*use_index=*/false);

  // Stateless queries only: the sorted layer is covered by
  // rebalance_test; here the brute node must be a complete oracle. The
  // cluster keys by NormalizedKey, so duplicate predicates are skipped on
  // both sides.
  size_t installed = 0;
  for (int i = 0; i < kQueries && installed < 40; ++i) {
    Query q("t", RandomPredicate(rng, 2));
    std::vector<Document> initial;
    std::vector<std::string> ids;
    for (const auto& [id, body] : live) {
      if (q.Matches(body)) {
        Document doc;
        doc.table = "t";
        doc.id = id;
        doc.body = body;
        initial.push_back(doc);
        ids.push_back(id);
      }
    }
    if (!cluster.RegisterQuery(q, initial).ok()) continue;
    brute.AddQuery(q, q.NormalizedKey(), std::move(ids));
    ++installed;
  }
  ASSERT_GT(installed, 20u);

  std::vector<Notification> want;
  size_t events_before_resize = 0;
  for (int round = 0; round < kEvents; ++round) {
    if (round == kEvents / 2) {
      events_before_resize = got.size();
      // Handoff path: the healthy grid carries its matching state over.
      ASSERT_EQ(cluster.Resize(3, 2), installed);
    }
    clock.Advance(kMicrosPerMilli);
    const std::string id = "r" + std::to_string(rng.NextUint64(kRecords));
    ChangeEvent ev;
    ev.commit_time = clock.NowMicros();
    ev.after.table = "t";
    ev.after.id = id;
    ev.after.version = static_cast<uint64_t>(round) + 2;
    const auto it = live.find(id);
    if (it != live.end() && rng.NextBool(0.2)) {
      ev.kind = WriteKind::kDelete;
      ev.after.deleted = true;
      ev.after.body = it->second;
      live.erase(it);
    } else {
      ev.kind = it == live.end() ? WriteKind::kInsert : WriteKind::kUpdate;
      ev.after.body = RandomDoc(rng);
      live[id] = ev.after.body;
    }
    cluster.OnChangeBatch({ev});
    brute.Match(ev, &want);
  }

  const auto by_all = [](const Notification& x, const Notification& y) {
    if (x.event_time != y.event_time) return x.event_time < y.event_time;
    return NotificationLess(x, y);
  };
  std::sort(got.begin(), got.end(), by_all);
  std::sort(want.begin(), want.end(), by_all);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].query_key, want[i].query_key) << "pos " << i;
    ASSERT_EQ(got[i].record_id, want[i].record_id) << "pos " << i;
    ASSERT_EQ(got[i].type, want[i].type) << "pos " << i;
    ASSERT_EQ(got[i].event_time, want[i].event_time) << "pos " << i;
  }
  // Anti-vacuity: the stream produced notifications on both sides of the
  // repartition, and the resize actually ran.
  EXPECT_GT(events_before_resize, 50u);
  EXPECT_GT(got.size(), events_before_resize + 50u);
  EXPECT_EQ(cluster.stats().rebalance_resizes, 1u);
  EXPECT_EQ(cluster.NumNodes(), 6u);
}

// ---------------------------------------------------------------------------
// Table::Execute: indexed vs scan
// ---------------------------------------------------------------------------

Query RandomTableQuery(Rng& rng) {
  Query q("t", RandomPredicate(rng, 2));
  if (rng.NextBool(0.5)) {
    const char* const sortable[] = {"a", "b", "s", "nested.x", "tags"};
    q.SetOrderBy({{sortable[rng.NextUint64(5)], rng.NextBool(0.5)}});
  }
  if (rng.NextBool(0.5)) {
    q.SetLimit(static_cast<int64_t>(rng.NextUint64(8)));
  }
  if (rng.NextBool(0.3)) {
    q.SetOffset(static_cast<int64_t>(rng.NextUint64(5)));
  }
  return q;
}

TEST(MatchingEquivalenceTest, IndexedTableExecutesIdenticallyToScan) {
  Rng rng(0xD0C5);
  db::Table indexed("t");
  db::Table plain("t");
  for (const char* path : {"a", "b", "s", "tags", "nested.x"}) {
    indexed.CreateIndex(path);
  }

  uint64_t compared = 0, nonempty = 0;
  for (int round = 0; round < 400; ++round) {
    const std::string id = "r" + std::to_string(rng.NextUint64(30));
    const uint64_t roll = rng.NextUint64(10);
    if (roll < 6) {
      Value body = RandomDoc(rng);
      (void)indexed.Upsert(id, body, round);
      (void)plain.Upsert(id, std::move(body), round);
    } else if (roll < 8) {
      (void)indexed.Delete(id, round);
      (void)plain.Delete(id, round);
    } else {
      const Query q = RandomTableQuery(rng);
      const std::vector<Document> a = indexed.Execute(q);
      const std::vector<Document> b = plain.Execute(q);
      ASSERT_EQ(a.size(), b.size()) << "round " << round << " query "
                                    << q.NormalizedKey();
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].id, b[i].id)
            << "round " << round << " pos " << i << " query "
            << q.NormalizedKey();
        ASSERT_EQ(a[i].version, b[i].version);
        ASSERT_EQ(a[i].body.ToJson(), b[i].body.ToJson());
      }
      ++compared;
      if (!a.empty()) ++nonempty;
    }
  }
  EXPECT_GT(compared, 40u);
  EXPECT_GT(nonempty, 10u);          // anti-vacuity
  EXPECT_EQ(plain.index_lookups(), 0u);
  EXPECT_GT(indexed.index_lookups(), 0u);  // index plans actually ran
  EXPECT_GT(indexed.index_stats().range_scans, 0u);
  EXPECT_GT(indexed.index_stats().eq_lookups, 0u);
}

// The random-doc workload above never qualifies for the top-k plan (it
// requires every live doc to carry exactly one scalar at the sort path),
// so exercise that plan's equivalence — including id tie-breaks inside
// equal-key buckets and offset windows — with a dedicated shape.
TEST(MatchingEquivalenceTest, TopKPlanExecutesIdenticallyToScan) {
  Rng rng(0x70CC);
  db::Table indexed("t");
  db::Table plain("t");
  indexed.CreateIndex("n");
  for (int i = 0; i < 60; ++i) {
    Object body;
    body["n"] = Value(static_cast<int64_t>(rng.NextUint64(10)));  // ties
    body["g"] = Value(static_cast<int64_t>(i % 4));
    const std::string id = "r" + std::to_string(i);
    ASSERT_TRUE(indexed.Insert(id, Value(body), 1).ok());
    ASSERT_TRUE(plain.Insert(id, Value(body), 1).ok());
  }

  for (int round = 0; round < 120; ++round) {
    Query q("t", rng.NextBool(0.5)
                     ? Predicate::Compare(
                           "g", CompareOp::kEq,
                           Value(static_cast<int64_t>(rng.NextUint64(4))))
                     : Predicate::True());
    q.SetOrderBy({{"n", rng.NextBool(0.5)}});
    q.SetLimit(static_cast<int64_t>(rng.NextUint64(12)));
    if (rng.NextBool(0.5)) {
      q.SetOffset(static_cast<int64_t>(rng.NextUint64(6)));
    }
    const std::vector<Document> a = indexed.Execute(q);
    const std::vector<Document> b = plain.Execute(q);
    ASSERT_EQ(a.size(), b.size()) << q.NormalizedKey();
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id)
          << "pos " << i << " query " << q.NormalizedKey();
    }
  }
  EXPECT_GT(indexed.index_stats().order_scans, 0u);
  EXPECT_EQ(plain.index_lookups(), 0u);
}

// ---------------------------------------------------------------------------
// Batch boundaries change no notification
// ---------------------------------------------------------------------------

// Canonical signature for byte-for-byte multiset comparison (event_time
// zero-padded so a lexicographic sort groups by change event; within one
// event the emission order legitimately depends on which column a query
// hashes to, so runs compare as sorted multisets — equality means the
// batch boundary changed nothing about matching output).
std::string Sig(const Notification& n) {
  char time_buf[21];
  std::snprintf(time_buf, sizeof(time_buf), "%020lld",
                static_cast<long long>(n.event_time));
  return std::string(time_buf) + "|" + n.query_key + "|" + n.record_id +
         "|" + std::to_string(static_cast<int>(n.type)) + "|" +
         std::to_string(n.new_index);
}

/// One seeded workload: stateless random-predicate queries (a complete
/// oracle needs no sorted-layer ordering; the order-sensitive stateful
/// case gets its own single-row test below), consistent initial results,
/// and a commit-ordered change stream over a shared record pool.
struct BatchWorkload {
  std::vector<Query> queries;
  std::vector<std::vector<Document>> initial;
  std::vector<ChangeEvent> stream;
};

BatchWorkload MakeBatchWorkload(uint64_t seed, int num_queries,
                                int num_records, int num_events) {
  Rng rng(seed * 0x9e3779b9u + 0xba7c4);
  BatchWorkload w;
  std::map<std::string, Value> live;
  for (int i = 0; i < num_records; ++i) {
    live["r" + std::to_string(i)] = RandomDoc(rng);
  }
  std::map<std::string, bool> seen;  // the cluster keys by NormalizedKey
  for (int i = 0; i < num_queries; ++i) {
    Query q("t", RandomPredicate(rng, 2));
    if (!seen.emplace(q.NormalizedKey(), true).second) continue;
    std::vector<Document> initial;
    for (const auto& [id, body] : live) {
      if (q.Matches(body)) {
        Document doc;
        doc.table = "t";
        doc.id = id;
        doc.body = body;
        initial.push_back(doc);
      }
    }
    w.queries.push_back(std::move(q));
    w.initial.push_back(std::move(initial));
  }
  for (int round = 0; round < num_events; ++round) {
    const std::string id =
        "r" + std::to_string(rng.NextUint64(num_records));
    ChangeEvent ev;
    ev.commit_time = (round + 1) * kMicrosPerMilli;
    ev.after.table = "t";
    ev.after.id = id;
    ev.after.version = static_cast<uint64_t>(round) + 2;
    ev.after.write_time = ev.commit_time;
    const auto it = live.find(id);
    if (it != live.end() && rng.NextBool(0.2)) {
      ev.kind = WriteKind::kDelete;
      ev.after.deleted = true;
      ev.after.body = it->second;
      live.erase(it);
    } else {
      ev.kind = it == live.end() ? WriteKind::kInsert : WriteKind::kUpdate;
      ev.after.body = RandomDoc(rng);
      live[id] = ev.after.body;
    }
    w.stream.push_back(std::move(ev));
  }
  return w;
}

/// The independent reference: one brute-force MatchingNode fed the
/// workload event by event. With stateless queries subscribed to every
/// event type the cluster delivers exactly the raw match output, so this
/// is the sorted multiset every batch size must reproduce.
std::vector<std::string> BruteForceSigs(const BatchWorkload& w) {
  MatchingNode brute(/*use_index=*/false);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    std::vector<std::string> ids;
    for (const Document& doc : w.initial[i]) ids.push_back(doc.id);
    brute.AddQuery(w.queries[i], w.queries[i].NormalizedKey(),
                   std::move(ids));
  }
  std::vector<Notification> raw;
  for (const ChangeEvent& ev : w.stream) brute.Match(ev, &raw);
  std::vector<std::string> sigs;
  for (const Notification& n : raw) sigs.push_back(Sig(n));
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

/// Feeds the stream in `batch`-sized slices through OnChangeBatch and
/// returns the sorted notification multiset. `resize_at` >= 0
/// repartitions the live cluster to 3x2 at the first batch boundary past
/// that event index — zero loss/duplication is the Resize() contract, so
/// the exact boundary may differ between batch sizes without changing the
/// multiset.
std::vector<std::string> RunBatchedCluster(const BatchWorkload& w,
                                           size_t batch, int resize_at) {
  SimulatedClock clock(0);
  std::vector<std::string> sigs;
  InvalidbOptions opts;
  opts.query_partitions = 2;
  opts.object_partitions = 2;
  InvalidbCluster cluster(&clock, opts,
                          [&](const std::vector<Notification>& batch) {
                            for (const Notification& n : batch) {
                              sigs.push_back(Sig(n));
                            }
                          });
  for (size_t i = 0; i < w.queries.size(); ++i) {
    EXPECT_TRUE(
        cluster.RegisterQuery(w.queries[i], w.initial[i]).ok());
  }
  bool resized = false;
  for (size_t i = 0; i < w.stream.size(); i += batch) {
    if (resize_at >= 0 && !resized && i >= static_cast<size_t>(resize_at)) {
      cluster.Resize(3, 2);
      resized = true;
    }
    const size_t end = std::min(i + batch, w.stream.size());
    cluster.OnChangeBatch(std::vector<ChangeEvent>(w.stream.begin() + i,
                                                   w.stream.begin() + end));
  }
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

TEST(MatchingEquivalenceTest, BatchedClusterMatchesBruteForceAcross20Seeds) {
  constexpr int kEvents = 160;
  size_t nonvacuous = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const BatchWorkload w = MakeBatchWorkload(seed, /*num_queries=*/40,
                                              /*num_records=*/24, kEvents);
    const std::vector<std::string> expected = BruteForceSigs(w);
    if (expected.size() > kEvents) ++nonvacuous;
    for (const size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
      EXPECT_EQ(RunBatchedCluster(w, batch, /*resize_at=*/-1), expected)
          << "seed " << seed << " batch " << batch;
      // Mid-stream resize: the repartition lands between two batches —
      // the multiset must not notice, wherever the boundary falls.
      EXPECT_EQ(RunBatchedCluster(w, batch, /*resize_at=*/kEvents / 2),
                expected)
          << "seed " << seed << " batch " << batch << " with resize";
    }
  }
  // Anti-vacuity: most seeds must emit more notifications than events.
  EXPECT_GT(nonvacuous, 15u);
}

// The sweep above is stateless by design: a batch is row-grouped, so
// cross-row commit interleaving — which the per-record ordering contract
// never promised — can reach the (order-sensitive) sorted layer in a
// different order. With a single object partition the grouping is the
// identity and the full stateful pipeline must be byte-identical across
// batch sizes, new_index and changeIndex moves included.
TEST(MatchingEquivalenceTest, BatchedSortedLayerSingleRowByteIdentical) {
  Rng rng(0x50fa);
  BatchWorkload w;
  Query top("t", db::Predicate::Compare("score", CompareOp::kGte,
                                        Value(int64_t{0})));
  top.SetOrderBy({{"score", false}}).SetLimit(3);
  w.queries.push_back(std::move(top));
  w.initial.emplace_back();
  for (int round = 0; round < 200; ++round) {
    ChangeEvent ev;
    ev.commit_time = (round + 1) * kMicrosPerMilli;
    ev.after.table = "t";
    ev.after.id = "r" + std::to_string(rng.NextUint64(10));
    ev.after.version = static_cast<uint64_t>(round) + 2;
    ev.after.write_time = ev.commit_time;
    ev.kind = WriteKind::kUpdate;
    Object body;
    body["score"] = Value(static_cast<int64_t>(rng.NextUint64(100)));
    ev.after.body = Value(std::move(body));
    w.stream.push_back(std::move(ev));
  }

  const auto run = [&](size_t batch) {
    SimulatedClock clock(0);
    std::vector<std::string> sigs;
    size_t index_moves = 0;
    InvalidbOptions opts;
    opts.query_partitions = 2;
    opts.object_partitions = 1;  // one row: batches keep global order
    InvalidbCluster cluster(&clock, opts,
                            [&](const std::vector<Notification>& batch) {
                              for (const Notification& n : batch) {
                                sigs.push_back(Sig(n));
                                if (n.type == NotificationType::kChangeIndex) {
                                  ++index_moves;
                                }
                              }
                            });
    EXPECT_TRUE(
        cluster.RegisterQuery(w.queries[0], w.initial[0]).ok());
    for (size_t i = 0; i < w.stream.size(); i += batch) {
      const size_t end = std::min(i + batch, w.stream.size());
      cluster.OnChangeBatch(std::vector<ChangeEvent>(w.stream.begin() + i,
                                                     w.stream.begin() + end));
    }
    EXPECT_GT(index_moves, 10u);  // the window actually reshuffled
    return sigs;  // NOT sorted: single row, order must match exactly
  };

  const std::vector<std::string> expected = run(1);
  ASSERT_GT(expected.size(), 100u);
  EXPECT_EQ(run(16), expected);
  EXPECT_EQ(run(64), expected);
}

// ---------------------------------------------------------------------------
// Write-path batching over a lossy, duplicating, reordering transport
// ---------------------------------------------------------------------------

/// Ships the workload through a remote/worker pair joined by loopback
/// links with max_batch = `batch`, each endpoint sending through a
/// FaultySend driven by `injector`, pumping until the pipeline drains.
/// Returns the sorted notification multiset as seen by the remote's sink —
/// i.e. after batch encode, the reliable layer, the faulty channel, and
/// batch decode.
std::vector<std::string> RunBatchedTransport(const BatchWorkload& w,
                                             size_t batch, SimulatedClock* clock,
                                             fault::FaultInjector* injector) {
  TransportOptions topts;
  topts.reliable.seed = 0xba7c ^ batch;
  topts.batching.max_batch = batch;
  std::vector<std::string> sigs;
  InvalidbOptions copts;
  copts.query_partitions = 2;
  copts.object_partitions = 2;
  LoopbackLink to_worker;
  LoopbackLink to_remote;
  fault::FaultySend remote_send(clock, injector, to_worker.sender());
  fault::FaultySend worker_send(clock, injector, to_remote.sender());
  InvalidbRemote remote(
      clock, remote_send.sender(), "bt",
      [&](const std::vector<Notification>& batch) {
        for (const Notification& n : batch) sigs.push_back(Sig(n));
      },
      topts);
  InvalidbWorker worker(clock, worker_send.sender(), "bt", copts, topts);
  to_worker.Attach(&worker);
  to_remote.Attach(&remote);

  for (size_t i = 0; i < w.queries.size(); ++i) {
    remote.RegisterQuery(w.queries[i], w.initial[i]);
  }
  for (const ChangeEvent& ev : w.stream) remote.OnChange(ev);
  remote.FlushChanges();

  for (int round = 0; round < 400; ++round) {
    remote_send.Release();
    to_worker.Pump();
    worker_send.Release();
    to_remote.Pump();
    clock->Advance(150 * kMicrosPerMilli);
    worker.Tick();
    remote.Tick();
    const bool drained =
        remote.unacked_requests() == 0 &&
        remote.pending_notifications() == 0 &&
        worker.unacked_notifications() == 0 &&
        remote.buffered_changes() == 0 &&
        to_worker.pending() + to_remote.pending() + remote_send.held_count() +
                worker_send.held_count() ==
            0;
    if (drained && round > 4) break;
  }
  EXPECT_EQ(remote.decode_errors(), 0u);
  EXPECT_EQ(worker.decode_errors(), 0u);
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

TEST(MatchingEquivalenceTest, BatchedTransportMatchesBruteForceAcross20Seeds) {
  constexpr int kEvents = 48;
  fault::FaultProfile profile;
  profile.drop_rate = 0.10;
  profile.duplicate_rate = 0.10;
  profile.reorder_rate = 0.10;
  uint64_t total_dropped = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const BatchWorkload w = MakeBatchWorkload(seed, /*num_queries=*/30,
                                              /*num_records=*/16, kEvents);

    const std::vector<std::string> expected = BruteForceSigs(w);
    ASSERT_GT(expected.size(), 10u) << "seed " << seed;
    // A perfect channel first, then every batch size over a faulty one.
    SimulatedClock ref_clock(0);
    fault::FaultInjector lossless(0);
    EXPECT_EQ(RunBatchedTransport(w, /*batch=*/1, &ref_clock, &lossless),
              expected)
        << "seed " << seed;

    // Every batch size must survive a 10% drop/dup/reorder channel with
    // the exact multiset: the reliable layer guards whole envelopes, so a
    // redelivered batch must dedup as one unit, never half-apply.
    for (const size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
      SimulatedClock clock(0);
      fault::FaultInjector injector(seed * 6151 + 7 * batch, profile);
      EXPECT_EQ(RunBatchedTransport(w, batch, &clock, &injector), expected)
          << "seed " << seed << " batch " << batch;
      total_dropped += injector.stats().dropped;
    }
  }
  // The sweep actually exercised the faults it claims to survive.
  EXPECT_GT(total_dropped, 50u);
}

}  // namespace
}  // namespace quaestor::invalidb
