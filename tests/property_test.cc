// Property-based tests: randomized traces cross-checked against
// independent reference implementations or invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "db/query.h"
#include "db/table.h"
#include "db/value.h"
#include "ebf/expiring_bloom_filter.h"
#include "invalidb/cluster.h"

namespace quaestor {
namespace {

using db::Value;

// ---------------------------------------------------------------------------
// Random document / query generators
// ---------------------------------------------------------------------------

Value RandomScalar(Rng& rng) {
  switch (rng.NextUint64(5)) {
    case 0:
      return Value(nullptr);
    case 1:
      return Value(rng.NextBool(0.5));
    case 2:
      return Value(static_cast<int64_t>(rng.NextUint64(20)) - 10);
    case 3:
      return Value(static_cast<double>(rng.NextUint64(100)) / 4.0);
    default:
      return Value("s" + std::to_string(rng.NextUint64(8)));
  }
}

Value RandomValue(Rng& rng, int depth) {
  if (depth <= 0) return RandomScalar(rng);
  switch (rng.NextUint64(7)) {
    case 0: {
      db::Array arr;
      const size_t n = rng.NextUint64(4);
      for (size_t i = 0; i < n; ++i) {
        arr.push_back(RandomValue(rng, depth - 1));
      }
      return Value(std::move(arr));
    }
    case 1: {
      db::Object obj;
      const size_t n = rng.NextUint64(3);
      for (size_t i = 0; i < n; ++i) {
        obj["k" + std::to_string(rng.NextUint64(4))] =
            RandomValue(rng, depth - 1);
      }
      return Value(std::move(obj));
    }
    default:
      return RandomScalar(rng);
  }
}

Value RandomDoc(Rng& rng) {
  db::Object obj;
  const size_t n = 1 + rng.NextUint64(5);
  for (size_t i = 0; i < n; ++i) {
    obj["f" + std::to_string(rng.NextUint64(6))] = RandomValue(rng, 2);
  }
  return Value(std::move(obj));
}

db::Predicate RandomPredicate(Rng& rng, int depth) {
  if (depth <= 0 || rng.NextBool(0.6)) {
    static const db::CompareOp kOps[] = {
        db::CompareOp::kEq,  db::CompareOp::kNe,      db::CompareOp::kGt,
        db::CompareOp::kGte, db::CompareOp::kLt,      db::CompareOp::kLte,
        db::CompareOp::kIn,  db::CompareOp::kContains, db::CompareOp::kExists,
    };
    const db::CompareOp op = kOps[rng.NextUint64(std::size(kOps))];
    Value operand;
    if (op == db::CompareOp::kIn) {
      db::Array arr;
      const size_t n = 1 + rng.NextUint64(3);
      for (size_t i = 0; i < n; ++i) arr.push_back(RandomScalar(rng));
      operand = Value(std::move(arr));
    } else if (op == db::CompareOp::kExists) {
      operand = Value(rng.NextBool(0.5));
    } else {
      operand = RandomScalar(rng);
    }
    return db::Predicate::Compare("f" + std::to_string(rng.NextUint64(6)),
                                  op, std::move(operand));
  }
  std::vector<db::Predicate> children;
  const size_t n = 1 + rng.NextUint64(2);
  for (size_t i = 0; i <= n; ++i) {
    children.push_back(RandomPredicate(rng, depth - 1));
  }
  switch (rng.NextUint64(3)) {
    case 0:
      return db::Predicate::And(std::move(children));
    case 1:
      return db::Predicate::Or(std::move(children));
    default:
      return db::Predicate::Not(std::move(children[0]));
  }
}

// ---------------------------------------------------------------------------
// Property: normalization is semantics-preserving across clause order
// ---------------------------------------------------------------------------

TEST(PropertyTest, NormalizedKeyEqualImpliesSameMatches) {
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    db::Predicate a = RandomPredicate(rng, 2);
    db::Predicate b = RandomPredicate(rng, 2);
    db::Query qa("t", a);
    db::Query qb("t", b);
    if (qa.NormalizedKey() != qb.NormalizedKey()) continue;
    for (int d = 0; d < 20; ++d) {
      Value doc = RandomDoc(rng);
      EXPECT_EQ(qa.Matches(doc), qb.Matches(doc))
          << qa.NormalizedKey() << " doc=" << doc.ToJson();
    }
  }
}

TEST(PropertyTest, ShuffledConjunctsShareKeyAndSemantics) {
  Rng rng(7);
  for (int round = 0; round < 100; ++round) {
    std::vector<db::Predicate> clauses;
    const size_t n = 2 + rng.NextUint64(3);
    for (size_t i = 0; i < n; ++i) {
      clauses.push_back(RandomPredicate(rng, 1));
    }
    std::vector<db::Predicate> shuffled = clauses;
    rng.Shuffle(shuffled);
    db::Query qa("t", db::Predicate::And(clauses));
    db::Query qb("t", db::Predicate::And(shuffled));
    EXPECT_EQ(qa.NormalizedKey(), qb.NormalizedKey());
    for (int d = 0; d < 10; ++d) {
      Value doc = RandomDoc(rng);
      EXPECT_EQ(qa.Matches(doc), qb.Matches(doc));
    }
  }
}

// ---------------------------------------------------------------------------
// Property: JSON canonical round-trip is the identity
// ---------------------------------------------------------------------------

TEST(PropertyTest, JsonRoundTripRandomValues) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    Value v = RandomValue(rng, 3);
    auto parsed = Value::FromJson(v.ToJson());
    ASSERT_TRUE(parsed.ok()) << v.ToJson();
    EXPECT_EQ(parsed.value(), v) << v.ToJson();
    EXPECT_EQ(parsed->ToJson(), v.ToJson());
  }
}

// ---------------------------------------------------------------------------
// Property: InvaliDB matching state == re-execution ground truth
// ---------------------------------------------------------------------------

TEST(PropertyTest, InvalidbTracksGroundTruthUnderRandomTrace) {
  SimulatedClock clock(0);
  Rng rng(4711);
  db::Table table("t");

  // A few random (but fixed) queries.
  std::vector<db::Query> queries;
  for (int i = 0; i < 8; ++i) {
    queries.emplace_back("t", RandomPredicate(rng, 2));
  }

  // Track live membership per query from notifications.
  std::map<std::string, std::set<std::string>> tracked;
  invalidb::InvalidbOptions opts;
  opts.query_partitions = 2;
  opts.object_partitions = 2;
  invalidb::InvalidbCluster cluster(
      &clock, opts, [&](const std::vector<invalidb::Notification>& batch) {
        for (const invalidb::Notification& n : batch) {
          if (n.type == invalidb::NotificationType::kAdd) {
            EXPECT_TRUE(tracked[n.query_key].insert(n.record_id).second)
                << "duplicate add for " << n.record_id;
          } else if (n.type == invalidb::NotificationType::kRemove) {
            EXPECT_EQ(tracked[n.query_key].erase(n.record_id), 1u)
                << "remove of non-member " << n.record_id;
          }
        }
      });
  for (const db::Query& q : queries) {
    ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());
    tracked[q.NormalizedKey()] = {};
  }

  // Random writes; after each, tracked membership must equal a fresh
  // evaluation against the table.
  for (int step = 0; step < 300; ++step) {
    clock.Advance(1000);
    const std::string id = "d" + std::to_string(rng.NextUint64(20));
    db::ChangeEvent ev;
    ev.commit_time = clock.NowMicros();
    if (rng.NextBool(0.15) && table.Get(id).ok()) {
      auto doc = table.Delete(id, clock.NowMicros());
      ASSERT_TRUE(doc.ok());
      ev.kind = db::WriteKind::kDelete;
      ev.after = doc.value();
    } else {
      auto doc = table.Upsert(id, RandomDoc(rng), clock.NowMicros());
      ASSERT_TRUE(doc.ok());
      ev.kind = db::WriteKind::kUpdate;
      ev.after = doc.value();
    }
    cluster.OnChangeBatch({ev});

    if (step % 10 == 9) {
      for (const db::Query& q : queries) {
        std::set<std::string> truth;
        for (const db::Document& d : table.Execute(q)) truth.insert(d.id);
        EXPECT_EQ(tracked[q.NormalizedKey()], truth)
            << "step " << step << " query " << q.NormalizedKey();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property: sorted-layer window == windowed re-execution ground truth
// ---------------------------------------------------------------------------

TEST(PropertyTest, SortedWindowTracksGroundTruth) {
  SimulatedClock clock(0);
  Rng rng(31337);
  db::Table table("t");

  db::Query q = db::Query::ParseJson("t", R"({"score":{"$gte":0}})").value();
  q.SetOrderBy({{"score", false}}).SetLimit(3).SetOffset(1);

  invalidb::InvalidbCluster cluster(
      &clock, {}, [](const std::vector<invalidb::Notification>&) {});
  ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());

  for (int step = 0; step < 300; ++step) {
    clock.Advance(1000);
    const std::string id = "d" + std::to_string(rng.NextUint64(12));
    db::ChangeEvent ev;
    ev.commit_time = clock.NowMicros();
    if (rng.NextBool(0.2) && table.Get(id).ok()) {
      auto doc = table.Delete(id, clock.NowMicros());
      ASSERT_TRUE(doc.ok());
      ev.kind = db::WriteKind::kDelete;
      ev.after = doc.value();
    } else {
      db::Object body;
      // Occasionally negative → leaves the predicate.
      body["score"] =
          Value(static_cast<int64_t>(rng.NextUint64(40)) - 5);
      auto doc = table.Upsert(id, Value(std::move(body)),
                              clock.NowMicros());
      ASSERT_TRUE(doc.ok());
      ev.kind = db::WriteKind::kUpdate;
      ev.after = doc.value();
    }
    cluster.OnChangeBatch({ev});

    std::vector<std::string> truth;
    for (const db::Document& d : table.Execute(q)) truth.push_back(d.id);
    EXPECT_EQ(cluster.SortedWindow(q.NormalizedKey()), truth)
        << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// Property: EBF never misses a truly stale key (Theorem 1 direction)
// ---------------------------------------------------------------------------

TEST(PropertyTest, EbfHasNoFalseNegativesUnderRandomTrace) {
  SimulatedClock clock(0);
  Rng rng(555);
  ebf::ExpiringBloomFilter filter(&clock);

  // Reference: for each key, the set of issued (expire_at) and the last
  // invalidation; a key is truly stale at t if some copy issued before an
  // invalidation is still unexpired.
  struct RefState {
    Micros max_expire_at = 0;    // highest TTL issued
    Micros stale_until = 0;      // from reference semantics
  };
  std::map<std::string, RefState> ref;

  for (int step = 0; step < 2000; ++step) {
    const std::string key = "k" + std::to_string(rng.NextUint64(30));
    switch (rng.NextUint64(3)) {
      case 0: {
        const Micros ttl =
            static_cast<Micros>(1 + rng.NextUint64(20)) * kMicrosPerSecond;
        filter.ReportRead(key, ttl);
        RefState& st = ref[key];
        st.max_expire_at =
            std::max(st.max_expire_at, clock.NowMicros() + ttl);
        break;
      }
      case 1: {
        filter.ReportWrite(key);
        RefState& st = ref[key];
        if (st.max_expire_at > clock.NowMicros()) {
          st.stale_until = std::max(st.stale_until, st.max_expire_at);
        }
        break;
      }
      default:
        clock.Advance(rng.NextUint64(3) * kMicrosPerSecond);
        break;
    }
    // Invariant: every truly-stale key is flagged by the snapshot (false
    // positives allowed, false negatives never).
    ebf::BloomFilter snap = filter.Snapshot();
    for (const auto& [k, st] : ref) {
      if (st.stale_until > clock.NowMicros()) {
        ASSERT_TRUE(snap.MaybeContains(k))
            << "step " << step << " missing stale key " << k;
        ASSERT_TRUE(filter.IsStale(k));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property: indexed execution equals scan execution on random data
// ---------------------------------------------------------------------------

TEST(PropertyTest, IndexedExecutionMatchesScan) {
  Rng rng(808);
  db::Table indexed("t");
  db::Table plain("t");
  indexed.CreateIndex("f0");
  indexed.CreateIndex("f1");

  for (int i = 0; i < 200; ++i) {
    const std::string id = "d" + std::to_string(i);
    Value doc = RandomDoc(rng);
    ASSERT_TRUE(indexed.Insert(id, doc, 1).ok());
    ASSERT_TRUE(plain.Insert(id, doc, 1).ok());
  }
  for (int round = 0; round < 300; ++round) {
    db::Query q("t", RandomPredicate(rng, 2));
    const auto a = indexed.Execute(q);
    const auto b = plain.Execute(q);
    ASSERT_EQ(a.size(), b.size()) << q.NormalizedKey();
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << q.NormalizedKey();
    }
  }
}

}  // namespace
}  // namespace quaestor
