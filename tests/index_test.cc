#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "db/table.h"

namespace quaestor::db {
namespace {

Value Doc(const char* json) {
  auto v = Value::FromJson(json);
  EXPECT_TRUE(v.ok());
  return v.value();
}

Query Q(const char* filter) {
  auto q = Query::ParseJson("t", filter);
  EXPECT_TRUE(q.ok());
  return q.value();
}

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() : table_("t") {
    for (int i = 0; i < 100; ++i) {
      std::string body = "{\"g\":" + std::to_string(i % 10) +
                         ",\"n\":" + std::to_string(i) + "}";
      EXPECT_TRUE(
          table_.Insert("d" + std::to_string(i), Doc(body.c_str()), 1).ok());
    }
  }

  Table table_;
};

TEST_F(IndexTest, CreateIndexBuildsFromExistingDocs) {
  table_.CreateIndex("g");
  EXPECT_TRUE(table_.HasIndex("g"));
  auto res = table_.Execute(Q(R"({"g":3})"));
  EXPECT_EQ(res.size(), 10u);
  EXPECT_EQ(table_.index_lookups(), 1u);
  EXPECT_EQ(table_.full_scans(), 0u);
}

TEST_F(IndexTest, IndexedAndScanResultsIdentical) {
  // Ground truth from a scan, then compare against the indexed plan.
  const auto scan = table_.Execute(Q(R"({"g":7})"));
  table_.CreateIndex("g");
  const auto indexed = table_.Execute(Q(R"({"g":7})"));
  ASSERT_EQ(scan.size(), indexed.size());
  for (size_t i = 0; i < scan.size(); ++i) {
    EXPECT_EQ(scan[i].id, indexed[i].id);  // same deterministic order
  }
}

TEST_F(IndexTest, RangeQueriesUseOrderedIndex) {
  table_.CreateIndex("g");
  auto res = table_.Execute(Q(R"({"g":{"$gt":3}})"));
  EXPECT_EQ(res.size(), 60u);  // g ∈ {4..9}, 10 docs each
  EXPECT_EQ(table_.full_scans(), 0u);
  EXPECT_EQ(table_.index_stats().range_scans, 1u);
}

TEST_F(IndexTest, RangeBoundsIntersected) {
  table_.CreateIndex("g");
  auto res = table_.Execute(Q(R"({"g":{"$gte":3,"$lt":5}})"));
  EXPECT_EQ(res.size(), 20u);  // g ∈ {3,4}
  EXPECT_EQ(table_.index_stats().range_scans, 1u);
  // Open/closed bound variants.
  EXPECT_EQ(table_.Execute(Q(R"({"g":{"$gt":3,"$lte":5}})")).size(), 20u);
  EXPECT_EQ(table_.Execute(Q(R"({"g":{"$gt":8}})")).size(), 10u);
  EXPECT_EQ(table_.Execute(Q(R"({"g":{"$lt":1}})")).size(), 10u);
  EXPECT_EQ(table_.full_scans(), 0u);
}

TEST_F(IndexTest, RangeScanAgreesWithScanGroundTruth) {
  const auto scan = table_.Execute(Q(R"({"g":{"$gte":2,"$lte":6}})"));
  table_.CreateIndex("g");
  const auto indexed = table_.Execute(Q(R"({"g":{"$gte":2,"$lte":6}})"));
  ASSERT_EQ(scan.size(), indexed.size());
  for (size_t i = 0; i < scan.size(); ++i) {
    EXPECT_EQ(scan[i].id, indexed[i].id);
  }
}

TEST_F(IndexTest, PrefixQueriesUseOrderedIndex) {
  Table t("x");
  ASSERT_TRUE(t.Insert("a", Doc(R"({"s":"alpha"})"), 1).ok());
  ASSERT_TRUE(t.Insert("b", Doc(R"({"s":"alps"})"), 1).ok());
  ASSERT_TRUE(t.Insert("c", Doc(R"({"s":"beta"})"), 1).ok());
  ASSERT_TRUE(t.Insert("d", Doc(R"({"s":42})"), 1).ok());
  t.CreateIndex("s");
  auto res = t.Execute(Query::ParseJson("x", R"({"s":{"$prefix":"al"}})")
                           .value());
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].id, "a");
  EXPECT_EQ(res[1].id, "b");
  EXPECT_EQ(t.index_stats().range_scans, 1u);
  EXPECT_EQ(t.full_scans(), 0u);
}

TEST_F(IndexTest, InQueriesUnionIndexBuckets) {
  table_.CreateIndex("g");
  auto res = table_.Execute(Q(R"({"g":{"$in":[2,5]}})"));
  EXPECT_EQ(res.size(), 20u);
  EXPECT_EQ(table_.index_stats().eq_lookups, 1u);
  EXPECT_EQ(table_.full_scans(), 0u);
  // $in with a null element can match docs missing the field → must scan.
  (void)table_.Execute(Q(R"({"g":{"$in":[2,null]}})"));
  EXPECT_EQ(table_.full_scans(), 1u);
}

TEST_F(IndexTest, OrderByLimitUsesTopKScan) {
  table_.CreateIndex("n");
  Query q = Q("{}");
  q.SetOrderBy({{"n", false}}).SetLimit(3);
  auto res = table_.Execute(q);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].body.Find("n")->as_int(), 99);
  EXPECT_EQ(res[1].body.Find("n")->as_int(), 98);
  EXPECT_EQ(res[2].body.Find("n")->as_int(), 97);
  EXPECT_EQ(table_.index_stats().order_scans, 1u);
  EXPECT_EQ(table_.full_scans(), 0u);

  // Ascending with offset, plus a predicate filtered during traversal.
  Query q2 = Q(R"({"g":{"$exists":true}})");
  q2.SetOrderBy({{"n", true}}).SetLimit(2).SetOffset(5);
  auto res2 = table_.Execute(q2);
  ASSERT_EQ(res2.size(), 2u);
  EXPECT_EQ(res2[0].body.Find("n")->as_int(), 5);
  EXPECT_EQ(res2[1].body.Find("n")->as_int(), 6);
  EXPECT_EQ(table_.index_stats().order_scans, 2u);
}

TEST_F(IndexTest, TopKRefusedWhenDocsMissTheSortKey) {
  // Docs missing the sort path order as null (first ascending) but are
  // invisible to the index → the top-k plan must refuse and scan.
  Table t("x");
  ASSERT_TRUE(t.Insert("a", Doc(R"({"n":1})"), 1).ok());
  ASSERT_TRUE(t.Insert("b", Doc(R"({"other":1})"), 1).ok());
  t.CreateIndex("n");
  Query q = Query::ParseJson("x", "{}").value();
  q.SetOrderBy({{"n", true}}).SetLimit(1);
  auto res = t.Execute(q);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, "b");  // null sorts first
  EXPECT_EQ(t.index_stats().order_scans, 0u);
  EXPECT_EQ(t.full_scans(), 1u);
}

TEST_F(IndexTest, TopKRefusedOnMultikeyIndex) {
  Table t("x");
  ASSERT_TRUE(t.Insert("a", Doc(R"({"tags":["b","z"]})"), 1).ok());
  ASSERT_TRUE(t.Insert("b", Doc(R"({"tags":["c"]})"), 1).ok());
  t.CreateIndex("tags");
  Query q = Query::ParseJson("x", "{}").value();
  q.SetOrderBy({{"tags", true}}).SetLimit(1);
  auto res = t.Execute(q);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(t.index_stats().order_scans, 0u);
  EXPECT_EQ(t.full_scans(), 1u);
}

TEST_F(IndexTest, TrulyNonIndexableQueriesStillScan) {
  table_.CreateIndex("g");
  (void)table_.Execute(Q(R"({"g":{"$ne":3}})"));
  (void)table_.Execute(Q(R"({"$or":[{"g":1},{"n":5}]})"));
  (void)table_.Execute(Q(R"({"g":{"$exists":true}})"));
  EXPECT_EQ(table_.full_scans(), 3u);
  EXPECT_EQ(table_.index_lookups(), 0u);
}

TEST_F(IndexTest, ConjunctUsesIndexAndVerifiesRest) {
  table_.CreateIndex("g");
  auto res = table_.Execute(Q(R"({"g":3,"n":{"$lt":50}})"));
  EXPECT_EQ(table_.index_lookups(), 1u);
  // g==3 → {3,13,23,...,93}; n<50 keeps 5 of them.
  EXPECT_EQ(res.size(), 5u);
}

TEST_F(IndexTest, IndexMaintainedOnUpdate) {
  table_.CreateIndex("g");
  Update u;
  u.Set("g", Value(3));
  ASSERT_TRUE(table_.Apply("d0", u, 2).ok());  // d0: g 0 → 3
  EXPECT_EQ(table_.Execute(Q(R"({"g":3})")).size(), 11u);
  EXPECT_EQ(table_.Execute(Q(R"({"g":0})")).size(), 9u);
}

TEST_F(IndexTest, IndexMaintainedOnDeleteAndReinsert) {
  table_.CreateIndex("g");
  ASSERT_TRUE(table_.Delete("d3", 2).ok());
  EXPECT_EQ(table_.Execute(Q(R"({"g":3})")).size(), 9u);
  ASSERT_TRUE(table_.Insert("d3", Doc(R"({"g":3})"), 3).ok());
  EXPECT_EQ(table_.Execute(Q(R"({"g":3})")).size(), 10u);
}

TEST_F(IndexTest, IndexMaintainedOnUpsert) {
  table_.CreateIndex("g");
  ASSERT_TRUE(table_.Upsert("d0", Doc(R"({"g":9})"), 2).ok());
  EXPECT_EQ(table_.Execute(Q(R"({"g":0})")).size(), 9u);
  EXPECT_EQ(table_.Execute(Q(R"({"g":9})")).size(), 11u);
}

TEST_F(IndexTest, MultikeyArrayIndex) {
  Table t("posts");
  ASSERT_TRUE(t.Insert("p1", Doc(R"({"tags":["a","b"]})"), 1).ok());
  ASSERT_TRUE(t.Insert("p2", Doc(R"({"tags":["b","c"]})"), 1).ok());
  t.CreateIndex("tags");
  // Element equality via the multikey entries.
  auto res = t.Execute(Query::ParseJson("posts", R"({"tags":"b"})").value());
  EXPECT_EQ(res.size(), 2u);
  EXPECT_EQ(t.index_lookups(), 1u);
  // Whole-array equality also indexed.
  auto exact = t.Execute(
      Query::ParseJson("posts", R"({"tags":["a","b"]})").value());
  EXPECT_EQ(exact.size(), 1u);
}

TEST_F(IndexTest, MultikeyMaintainedOnPushPull) {
  Table t("posts");
  ASSERT_TRUE(t.Insert("p1", Doc(R"({"tags":["a"]})"), 1).ok());
  t.CreateIndex("tags");
  Update push;
  push.Push("tags", Value("z"));
  ASSERT_TRUE(t.Apply("p1", push, 2).ok());
  EXPECT_EQ(
      t.Execute(Query::ParseJson("posts", R"({"tags":"z"})").value()).size(),
      1u);
  Update pull;
  pull.Pull("tags", Value("z"));
  ASSERT_TRUE(t.Apply("p1", pull, 3).ok());
  EXPECT_EQ(
      t.Execute(Query::ParseJson("posts", R"({"tags":"z"})").value()).size(),
      0u);
}

TEST_F(IndexTest, DropIndexFallsBackToScan) {
  table_.CreateIndex("g");
  table_.DropIndex("g");
  EXPECT_FALSE(table_.HasIndex("g"));
  (void)table_.Execute(Q(R"({"g":3})"));
  EXPECT_EQ(table_.full_scans(), 1u);
}

TEST_F(IndexTest, CreateIndexIsIdempotent) {
  table_.CreateIndex("g");
  table_.CreateIndex("g");
  EXPECT_EQ(table_.Execute(Q(R"({"g":3})")).size(), 10u);
}

TEST_F(IndexTest, MissingValueNotIndexed) {
  Table t("x");
  ASSERT_TRUE(t.Insert("a", Doc(R"({"g":1})"), 1).ok());
  ASSERT_TRUE(t.Insert("b", Doc(R"({"other":1})"), 1).ok());
  t.CreateIndex("g");
  EXPECT_EQ(t.Execute(Query::ParseJson("x", R"({"g":1})").value()).size(),
            1u);
  // Equality-with-null is not index-eligible (missing fields match null
  // but are absent from the index) — correctness requires a scan.
  (void)t.Execute(Query::ParseJson("x", R"({"g":null})").value());
  EXPECT_EQ(t.full_scans(), 1u);
}

TEST_F(IndexTest, OrderByStillAppliedOnIndexPath) {
  table_.CreateIndex("g");
  Query q = Q(R"({"g":3})");
  q.SetOrderBy({{"n", false}}).SetLimit(3);
  auto res = table_.Execute(q);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].body.Find("n")->as_int(), 93);
  EXPECT_EQ(res[1].body.Find("n")->as_int(), 83);
}

TEST(IndexEntryTest, DeleteReinsertThenIndexCreatedAfterTheDeletes) {
  Table t("t");
  for (int i = 0; i < 20; ++i) {
    const std::string body = "{\"g\":" + std::to_string(i % 4) + "}";
    ASSERT_TRUE(t.Insert("d" + std::to_string(i), Doc(body.c_str()), 1).ok());
  }
  ASSERT_TRUE(t.Delete("d3", 2).ok());
  ASSERT_TRUE(t.Delete("d7", 2).ok());
  ASSERT_TRUE(t.Delete("d11", 2).ok());
  ASSERT_TRUE(t.Insert("d3", Doc(R"({"g":9})"), 3).ok());
  t.CreateIndex("g");

  auto ids = [&t](const char* filter) {
    std::vector<std::string> out;
    for (const Document& d : t.Execute(Q(filter))) {
      EXPECT_EQ(d.table, "t");
      out.push_back(d.id);
    }
    return out;
  };
  EXPECT_EQ(ids(R"({"g":3})"), (std::vector<std::string>{"d15", "d19"}));
  EXPECT_EQ(ids(R"({"g":9})"), (std::vector<std::string>{"d3"}));
  EXPECT_EQ(t.Get("d3")->version, 3u);  // insert, delete, re-insert

  // A tombstone re-inserted after the index exists joins its bucket; a
  // second delete leaves it again.
  ASSERT_TRUE(t.Insert("d7", Doc(R"({"g":9})"), 4).ok());
  EXPECT_EQ(ids(R"({"g":9})"), (std::vector<std::string>{"d3", "d7"}));
  ASSERT_TRUE(t.Delete("d3", 5).ok());
  EXPECT_EQ(ids(R"({"g":{"$in":[3,9]}})"),
            (std::vector<std::string>{"d15", "d19", "d7"}));
  EXPECT_EQ(t.index_stats().full_scans, 0u);
}

/// What Execute must return, computed without indexes: every live body of
/// `model` (id → body) that matches, in query order, windowed.
std::vector<std::pair<std::string, std::string>> NaiveExecute(
    const Query& q, const std::map<std::string, Value>& model) {
  std::vector<const std::pair<const std::string, Value>*> hits;
  for (const auto& entry : model) {
    if (q.Matches(entry.second)) hits.push_back(&entry);
  }
  std::stable_sort(hits.begin(), hits.end(), [&q](auto* a, auto* b) {
    return q.order_by().empty()
               ? a->first < b->first
               : q.OrderedBefore(a->second, a->first, b->second, b->first);
  });
  const size_t begin = std::min(
      hits.size(), static_cast<size_t>(std::max<int64_t>(0, q.offset())));
  size_t end = hits.size();
  if (q.limit() >= 0) {
    end = std::min(end, begin + static_cast<size_t>(q.limit()));
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = begin; i < end; ++i) {
    out.emplace_back(hits[i]->first, hits[i]->second.ToJson());
  }
  return out;
}

TEST(IndexEntryTest, EveryPlanReturnsWhatANaiveScanReturns) {
  TableIndexStats plans;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Table t("t");
    std::map<std::string, Value> model;
    // g: a small int, sometimes an array of two (multikey); n: an int
    // every document has (the top-k path); s: a short string.
    auto body = [&rng] {
      Object o;
      if (rng.NextBool(0.2)) {
        o["g"] = Array{Value(static_cast<int64_t>(rng.NextUint64(6))),
                       Value(static_cast<int64_t>(rng.NextUint64(6)))};
      } else {
        o["g"] = static_cast<int64_t>(rng.NextUint64(6));
      }
      o["n"] = static_cast<int64_t>(rng.NextUint64(50));
      o["s"] = std::string(1, static_cast<char>('a' + rng.NextUint64(3))) +
               std::to_string(rng.NextUint64(10));
      return Value(std::move(o));
    };
    auto check = [&] {
      const int64_t g = static_cast<int64_t>(rng.NextUint64(6));
      const int64_t lo = static_cast<int64_t>(rng.NextUint64(50));
      std::vector<Query> queries = {
          Q(("{\"g\":" + std::to_string(g) + "}").c_str()),
          Q(("{\"g\":{\"$in\":[" + std::to_string(g) + "," +
             std::to_string((g + 1) % 6) + "]}}")
                .c_str()),
          Q(("{\"n\":{\"$gte\":" + std::to_string(lo) +
             ",\"$lt\":" + std::to_string(lo + 10) + "}}")
                .c_str()),
          Q(R"({"s":{"$prefix":"b"}})"),
          Q(R"({"$or":[{"g":1},{"n":{"$lt":5}}]})"),
      };
      Query top = Q("{}");
      top.SetOrderBy({{"n", rng.NextBool(0.5)}})
          .SetLimit(static_cast<int64_t>(rng.NextUint64(8)))
          .SetOffset(static_cast<int64_t>(rng.NextUint64(3)));
      queries.push_back(top);
      Query sorted = Q(R"({"g":{"$in":[0,2,4]}})");
      sorted.SetOrderBy({{"s", false}, {"n", true}}).SetLimit(6);
      queries.push_back(sorted);
      for (const Query& q : queries) {
        std::vector<std::pair<std::string, std::string>> got;
        for (const Document& d : t.Execute(q)) {
          EXPECT_EQ(d.table, "t");
          EXPECT_FALSE(d.deleted);
          got.emplace_back(d.id, d.body.ToJson());
        }
        EXPECT_EQ(got, NaiveExecute(q, model)) << q.NormalizedKey();
      }
    };
    for (int step = 0; step < 400; ++step) {
      const std::string id = "d" + std::to_string(rng.NextUint64(60));
      switch (rng.NextUint64(4)) {
        case 0: {
          Value b = body();
          const bool live = model.count(id) > 0;
          EXPECT_EQ(t.Insert(id, b, step).ok(), !live);
          if (!live) model[id] = std::move(b);
          break;
        }
        case 1: {
          Value b = body();
          ASSERT_TRUE(t.Upsert(id, b, step).ok());
          model[id] = std::move(b);
          break;
        }
        case 2: {
          Update u;
          if (rng.NextBool(0.5)) {
            u.Set("g", Value(static_cast<int64_t>(rng.NextUint64(6))));
          } else {
            u.Inc("n", Value(static_cast<int64_t>(1)));
          }
          auto it = model.find(id);
          const auto r = t.Apply(id, u, step);
          EXPECT_EQ(r.ok(), it != model.end());
          if (r.ok()) it->second = r->body;
          break;
        }
        default:
          EXPECT_EQ(t.Delete(id, step).ok(), model.erase(id) > 0);
          break;
      }
      // The indexes come after a quarter of the writes, deletes included.
      if (step == 100) {
        t.CreateIndex("g");
        t.CreateIndex("n");
        t.CreateIndex("s");
      }
      if (step % 20 == 19) check();
      if (::testing::Test::HasFailure()) return;
    }
    const TableIndexStats s = t.index_stats();
    plans.eq_lookups += s.eq_lookups;
    plans.range_scans += s.range_scans;
    plans.order_scans += s.order_scans;
    plans.full_scans += s.full_scans;
  }
  // Every plan ran.
  EXPECT_GT(plans.eq_lookups, 0u);
  EXPECT_GT(plans.range_scans, 0u);
  EXPECT_GT(plans.order_scans, 0u);
  EXPECT_GT(plans.full_scans, 0u);
}

}  // namespace
}  // namespace quaestor::db
