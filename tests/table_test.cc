#include <gtest/gtest.h>

#include <cmath>

#include "common/clock.h"
#include "db/database.h"
#include "db/table.h"

namespace quaestor::db {
namespace {

Value Doc(const char* json) {
  auto v = Value::FromJson(json);
  EXPECT_TRUE(v.ok());
  return v.value();
}

Query Q(const char* table, const char* filter) {
  auto q = Query::ParseJson(table, filter);
  EXPECT_TRUE(q.ok());
  return q.value();
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(TableTest, InsertGetRoundTrip) {
  Table t("posts");
  auto ins = t.Insert("p1", Doc(R"({"title":"hello"})"), 100);
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->version, 1u);
  EXPECT_EQ(ins->write_time, 100);
  EXPECT_EQ(ins->Key(), "posts/p1");

  auto got = t.Get("p1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->body.Find("title")->as_string(), "hello");
}

TEST(TableTest, GetVersionReportsVersionAndTimeWithoutTheBody) {
  Table t("posts");
  ASSERT_TRUE(t.Insert("p1", Doc(R"({"n":1})"), 100).ok());
  Update u;
  u.Inc("n", Value(1));
  ASSERT_TRUE(t.Apply("p1", u, 250).ok());
  auto got = t.GetVersion("p1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->version, 2u);
  EXPECT_EQ(got->write_time, 250);
  EXPECT_TRUE(t.GetVersion("missing").status().IsNotFound());
  ASSERT_TRUE(t.Delete("p1", 300).ok());
  EXPECT_TRUE(t.GetVersion("p1").status().IsNotFound());  // tombstone

  Database db(SystemClock::Default());
  EXPECT_TRUE(db.GetVersion("nope", "x").status().IsNotFound());
  auto ins = db.Insert("posts", "a", Doc("{}"));
  ASSERT_TRUE(ins.ok());
  auto via_db = db.GetVersion("posts", "a");
  ASSERT_TRUE(via_db.ok());
  EXPECT_EQ(via_db->version, ins->version);
  EXPECT_EQ(via_db->write_time, ins->write_time);
}

TEST(TableTest, InsertDuplicateFails) {
  Table t("posts");
  ASSERT_TRUE(t.Insert("p1", Doc("{}"), 1).ok());
  EXPECT_TRUE(t.Insert("p1", Doc("{}"), 2).status().IsAlreadyExists());
}

TEST(TableTest, InsertNonObjectFails) {
  Table t("posts");
  EXPECT_TRUE(t.Insert("p1", Value(5), 1).status().IsInvalidArgument());
}

TEST(TableTest, UpsertInsertsAndReplaces) {
  Table t("posts");
  auto first = t.Upsert("p1", Doc(R"({"v":1})"), 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->version, 1u);
  auto second = t.Upsert("p1", Doc(R"({"v":2})"), 2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->version, 2u);
  EXPECT_EQ(t.Get("p1")->body.Find("v")->as_int(), 2);
}

TEST(TableTest, ApplyUpdatesAndBumpsVersion) {
  Table t("posts");
  ASSERT_TRUE(t.Insert("p1", Doc(R"({"n":1})"), 1).ok());
  Update u;
  u.Inc("n", Value(1));
  auto updated = t.Apply("p1", u, 5);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->version, 2u);
  EXPECT_EQ(updated->write_time, 5);
  EXPECT_EQ(updated->body.Find("n")->as_int(), 2);
}

TEST(TableTest, ApplyMissingFails) {
  Table t("posts");
  Update u;
  u.Set("a", Value(1));
  EXPECT_TRUE(t.Apply("nope", u, 1).status().IsNotFound());
}

TEST(TableTest, DeleteTombstones) {
  Table t("posts");
  ASSERT_TRUE(t.Insert("p1", Doc("{}"), 1).ok());
  auto del = t.Delete("p1", 2);
  ASSERT_TRUE(del.ok());
  EXPECT_TRUE(del->deleted);
  EXPECT_EQ(del->version, 2u);
  EXPECT_TRUE(t.Get("p1").status().IsNotFound());
  EXPECT_TRUE(t.Delete("p1", 3).status().IsNotFound());
  EXPECT_EQ(t.LiveCount(), 0u);
}

TEST(TableTest, ReinsertAfterDeleteContinuesVersions) {
  Table t("posts");
  ASSERT_TRUE(t.Insert("p1", Doc("{}"), 1).ok());
  ASSERT_TRUE(t.Delete("p1", 2).ok());
  auto again = t.Insert("p1", Doc("{}"), 3);
  ASSERT_TRUE(again.ok());
  // Versions keep increasing across delete — caches can never confuse the
  // new incarnation with the old one.
  EXPECT_EQ(again->version, 3u);
}

TEST(TableTest, ExecuteFiltersAndSortsById) {
  Table t("posts");
  ASSERT_TRUE(t.Insert("b", Doc(R"({"g":1})"), 1).ok());
  ASSERT_TRUE(t.Insert("a", Doc(R"({"g":1})"), 1).ok());
  ASSERT_TRUE(t.Insert("c", Doc(R"({"g":2})"), 1).ok());
  auto res = t.Execute(Q("posts", R"({"g":1})"));
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].id, "a");
  EXPECT_EQ(res[1].id, "b");
}

TEST(TableTest, ExecuteOrderByLimitOffset) {
  Table t("posts");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t
                    .Insert("p" + std::to_string(i),
                            Doc(("{\"n\":" + std::to_string(i) + "}").c_str()),
                            1)
                    .ok());
  }
  Query q = Q("posts", "{}");
  q.SetOrderBy({{"n", false}}).SetLimit(3).SetOffset(2);
  auto res = t.Execute(q);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].body.Find("n")->as_int(), 7);  // 9,8 skipped by offset
  EXPECT_EQ(res[1].body.Find("n")->as_int(), 6);
  EXPECT_EQ(res[2].body.Find("n")->as_int(), 5);
}

TEST(TableTest, ExecuteOffsetPastEnd) {
  Table t("posts");
  ASSERT_TRUE(t.Insert("p1", Doc("{}"), 1).ok());
  Query q = Q("posts", "{}");
  q.SetOffset(10);
  EXPECT_TRUE(t.Execute(q).empty());
}

TEST(TableTest, ExecuteSkipsDeleted) {
  Table t("posts");
  ASSERT_TRUE(t.Insert("p1", Doc(R"({"g":1})"), 1).ok());
  ASSERT_TRUE(t.Insert("p2", Doc(R"({"g":1})"), 1).ok());
  ASSERT_TRUE(t.Delete("p1", 2).ok());
  auto res = t.Execute(Q("posts", R"({"g":1})"));
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].id, "p2");
}

TEST(TableTest, CounterBumpKeepsIndexedResultsAndMovesChangeThem) {
  Table t("posts");
  t.CreateIndex("g");
  ASSERT_TRUE(t.Insert("p1", Doc(R"({"g":1,"n":0,"tags":["a","b"]})"), 1).ok());
  Update bump;
  bump.Inc("n", Value(1));
  auto after = t.Apply("p1", bump, 2);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->body.Find("n")->as_int(), 1);
  EXPECT_EQ(t.Get("p1")->body.Find("n")->as_int(), 1);
  ASSERT_EQ(t.Execute(Q("posts", R"({"g":1})")).size(), 1u);
  Update move;
  move.Set("g", Value(2));
  ASSERT_TRUE(t.Apply("p1", move, 3).ok());
  EXPECT_TRUE(t.Execute(Q("posts", R"({"g":1})")).empty());
  ASSERT_EQ(t.Execute(Q("posts", R"({"g":2})")).size(), 1u);
  // A failed update leaves document and indexes as they were.
  Update bad;
  bad.Inc("tags", Value(1));
  EXPECT_FALSE(t.Apply("p1", bad, 4).ok());
  EXPECT_EQ(t.Get("p1")->version, 3u);
  ASSERT_EQ(t.Execute(Q("posts", R"({"g":2})")).size(), 1u);
  // An upsert over a live document re-indexes it.
  ASSERT_TRUE(t.Upsert("p1", Doc(R"({"g":3})"), 5).ok());
  EXPECT_TRUE(t.Execute(Q("posts", R"({"g":2})")).empty());
  ASSERT_EQ(t.Execute(Q("posts", R"({"g":3})")).size(), 1u);
}

// ---------------------------------------------------------------------------
// Result stamps
// ---------------------------------------------------------------------------

/// Executes `filter` on `t` and returns its stamp.
ResultStamp StampOf(const Table& t, const char* filter) {
  ResultStamp stamp;
  t.Execute(Q(t.name().c_str(), filter), &stamp);
  return stamp;
}

TEST(ResultStampTest, EqStampSurvivesWritesToOtherKeysOnly) {
  Table t("posts");
  t.CreateIndex("g");
  ASSERT_TRUE(t.Insert("p1", Doc(R"({"g":1})"), 1).ok());
  ASSERT_TRUE(t.Insert("p2", Doc(R"({"g":2})"), 1).ok());
  const ResultStamp stamp = StampOf(t, R"({"g":1})");
  EXPECT_EQ(stamp.slots.count, 1);
  EXPECT_EQ(stamp.commit, t.commit_count());
  Update u;
  u.Inc("n", Value(1));
  ASSERT_TRUE(t.Apply("p2", u, 2).ok());
  EXPECT_TRUE(t.IsCurrent(stamp));
  ASSERT_TRUE(t.Insert("p3", Doc(R"({"x":1})"), 3).ok());  // no g at all
  EXPECT_TRUE(t.IsCurrent(stamp));
  ASSERT_TRUE(t.Apply("p1", u, 4).ok());
  EXPECT_FALSE(t.IsCurrent(stamp));
}

TEST(ResultStampTest, KeysEqualUnderCompareShareASlot) {
  Table t("posts");
  t.CreateIndex("g");
  struct Case {
    const char* filter;
    const char* written;
  };
  for (const Case& c : {Case{R"({"g":1})", R"({"g":1.0})"},
                        Case{R"({"g":1.0})", R"({"g":1})"},
                        Case{R"({"g":0})", R"({"g":-0.0})"},
                        Case{R"({"g":"a"})", R"({"g":["a","b"]})"},
                        Case{R"({"g":[1,2]})", R"({"g":[1,2.0]})"}}) {
    const ResultStamp stamp = StampOf(t, c.filter);
    ASSERT_FALSE(stamp.slots.empty()) << c.filter;
    EXPECT_TRUE(t.IsCurrent(stamp));
    ASSERT_TRUE(t.Upsert("w", Doc(c.written), 1).ok());
    EXPECT_FALSE(t.IsCurrent(stamp)) << c.filter << " vs " << c.written;
  }
}

TEST(ResultStampTest, InStampsEachElementUpToTheCap) {
  Table t("posts");
  t.CreateIndex("g");
  const ResultStamp in = StampOf(t, R"({"g":{"$in":[1,2,1.0]}})");
  EXPECT_EQ(in.slots.count, 2);  // 1 and 1.0 are one key
  ASSERT_TRUE(t.Insert("p2", Doc(R"({"g":2})"), 1).ok());
  EXPECT_FALSE(t.IsCurrent(in));
  const ResultStamp wide =
      StampOf(t, R"({"g":{"$in":[1,2,3,4,5,6,7,8,9]}})");
  EXPECT_TRUE(wide.slots.empty());
}

TEST(ResultStampTest, PlansWithoutSlotsStampTheWholeTable) {
  Table t("posts");
  t.CreateIndex("g");
  ASSERT_TRUE(t.Insert("p1", Doc(R"({"g":1,"n":1})"), 1).ok());
  for (const char* filter :
       {R"({"g":{"$gt":5}})", R"({"g":null})", R"({"n":1})"}) {
    const ResultStamp stamp = StampOf(t, filter);
    EXPECT_TRUE(stamp.slots.empty()) << filter;
    EXPECT_TRUE(t.IsCurrent(stamp));
    ASSERT_TRUE(t.Upsert("other", Doc(R"({"g":100})"), 2).ok());
    EXPECT_FALSE(t.IsCurrent(stamp)) << filter;
  }
}

TEST(ResultStampTest, IndexDdlAndNanKeysInvalidateEverySlotStamp) {
  Table t("posts");
  t.CreateIndex("g");
  ResultStamp stamp = StampOf(t, R"({"g":1})");
  t.CreateIndex("h");
  EXPECT_FALSE(t.IsCurrent(stamp));
  stamp = StampOf(t, R"({"g":1})");
  t.DropIndex("h");
  EXPECT_FALSE(t.IsCurrent(stamp));
  stamp = StampOf(t, R"({"g":1})");
  // NaN compares equal to every number, so no one slot can stand for it.
  Object nan;
  nan["g"] = Value(std::nan(""));
  ASSERT_TRUE(t.Insert("p1", Value(std::move(nan)), 1).ok());
  EXPECT_FALSE(t.IsCurrent(stamp));
}

TEST(ResultStampTest, MissingTableIsCurrentOnlyAtItsEmptyStamp) {
  SimulatedClock clock(0);
  Database db(&clock);
  ResultStamp stamp;
  EXPECT_TRUE(db.Execute(Q("none", R"({"g":1})"), &stamp).empty());
  EXPECT_TRUE(db.IsCurrent("none", stamp));
  ASSERT_TRUE(db.Insert("none", "p1", Doc(R"({"g":1})")).ok());
  EXPECT_FALSE(db.IsCurrent("none", stamp));
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

TEST(DatabaseTest, CrudAcrossTables) {
  SimulatedClock clock(1000);
  Database db(&clock);
  ASSERT_TRUE(db.Insert("a", "1", Doc(R"({"x":1})")).ok());
  ASSERT_TRUE(db.Insert("b", "1", Doc(R"({"x":2})")).ok());
  EXPECT_EQ(db.Get("a", "1")->body.Find("x")->as_int(), 1);
  EXPECT_EQ(db.Get("b", "1")->body.Find("x")->as_int(), 2);
  EXPECT_TRUE(db.Get("c", "1").status().IsNotFound());
  EXPECT_EQ(db.TableNames().size(), 2u);
}

TEST(DatabaseTest, WriteTimesComeFromClock) {
  SimulatedClock clock(500);
  Database db(&clock);
  auto doc = db.Insert("t", "1", Doc("{}"));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->write_time, 500);
  clock.Advance(100);
  Update u;
  u.Set("a", Value(1));
  auto updated = db.Apply("t", "1", u);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->write_time, 600);
}

TEST(DatabaseTest, ChangeListenerReceivesAfterImages) {
  SimulatedClock clock(0);
  Database db(&clock);
  std::vector<ChangeEvent> events;
  db.AddChangeListener([&](const ChangeEvent& ev) { events.push_back(ev); });

  ASSERT_TRUE(db.Insert("t", "1", Doc(R"({"n":1})")).ok());
  Update u;
  u.Inc("n", Value(1));
  ASSERT_TRUE(db.Apply("t", "1", u).ok());
  ASSERT_TRUE(db.Delete("t", "1").ok());

  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, WriteKind::kInsert);
  EXPECT_EQ(events[0].after.body.Find("n")->as_int(), 1);
  EXPECT_EQ(events[1].kind, WriteKind::kUpdate);
  EXPECT_EQ(events[1].after.body.Find("n")->as_int(), 2);
  EXPECT_EQ(events[2].kind, WriteKind::kDelete);
  EXPECT_TRUE(events[2].after.deleted);
}

TEST(DatabaseTest, FailedWritesDoNotNotify) {
  SimulatedClock clock(0);
  Database db(&clock);
  int notifications = 0;
  db.AddChangeListener([&](const ChangeEvent&) { notifications++; });
  ASSERT_TRUE(db.Insert("t", "1", Doc("{}")).ok());
  EXPECT_FALSE(db.Insert("t", "1", Doc("{}")).ok());  // duplicate
  Update u;
  u.Set("a", Value(1));
  EXPECT_FALSE(db.Apply("t", "missing", u).ok());
  EXPECT_EQ(notifications, 1);
}

TEST(DatabaseTest, UpsertReportsKind) {
  SimulatedClock clock(0);
  Database db(&clock);
  std::vector<WriteKind> kinds;
  db.AddChangeListener(
      [&](const ChangeEvent& ev) { kinds.push_back(ev.kind); });
  ASSERT_TRUE(db.Upsert("t", "1", Doc("{}")).ok());
  ASSERT_TRUE(db.Upsert("t", "1", Doc("{}")).ok());
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], WriteKind::kInsert);
  EXPECT_EQ(kinds[1], WriteKind::kUpdate);
}

TEST(DatabaseTest, ExecuteOnMissingTableIsEmpty) {
  SimulatedClock clock(0);
  Database db(&clock);
  EXPECT_TRUE(db.Execute(Q("ghost", "{}")).empty());
}

TEST(DatabaseTest, StatsCountOperations) {
  SimulatedClock clock(0);
  Database db(&clock);
  ASSERT_TRUE(db.Insert("t", "1", Doc("{}")).ok());
  (void)db.Get("t", "1");
  (void)db.Execute(Q("t", "{}"));
  Update u;
  u.Set("a", Value(1));
  ASSERT_TRUE(db.Apply("t", "1", u).ok());
  ASSERT_TRUE(db.Delete("t", "1").ok());
  const DatabaseStats s = db.stats();
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.queries, 1u);
  EXPECT_EQ(s.updates, 1u);
  EXPECT_EQ(s.deletes, 1u);
}

TEST(DatabaseTest, ShardAssignmentIsStable) {
  SimulatedClock clock(0);
  Database db(&clock, /*num_shards=*/4);
  EXPECT_EQ(db.num_shards(), 4u);
  const size_t shard = db.ShardOf("some-key");
  EXPECT_LT(shard, 4u);
  EXPECT_EQ(db.ShardOf("some-key"), shard);
}

TEST(DatabaseTest, ShardsRoughlyBalanced) {
  SimulatedClock clock(0);
  Database db(&clock, /*num_shards=*/4);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    counts[db.ShardOf("key" + std::to_string(i))]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

}  // namespace
}  // namespace quaestor::db
