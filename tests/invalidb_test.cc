#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "db/document.h"
#include "db/query.h"
#include "invalidb/cluster.h"
#include "invalidb/matching_node.h"
#include "invalidb/notification.h"
#include "invalidb/sorted_layer.h"

namespace quaestor::invalidb {
namespace {

db::Value Doc(const char* json) {
  auto v = db::Value::FromJson(json);
  EXPECT_TRUE(v.ok());
  return v.value();
}

db::Query Q(const char* table, const char* filter) {
  auto q = db::Query::ParseJson(table, filter);
  EXPECT_TRUE(q.ok());
  return q.value();
}

db::ChangeEvent Change(const char* table, const char* id, const char* body,
                       Micros at = 0, bool deleted = false) {
  db::ChangeEvent ev;
  ev.kind = deleted ? db::WriteKind::kDelete : db::WriteKind::kUpdate;
  ev.after.table = table;
  ev.after.id = id;
  ev.after.body = Doc(body);
  ev.after.deleted = deleted;
  ev.after.write_time = at;
  ev.commit_time = at;
  return ev;
}

// ---------------------------------------------------------------------------
// MatchingNode — the add/change/remove lifecycle of Figure 5
// ---------------------------------------------------------------------------

TEST(MatchingNodeTest, Figure5Lifecycle) {
  MatchingNode node;
  db::Query q = Q("posts", R"({"tags":{"$contains":"example"}})");
  node.AddQuery(q, q.NormalizedKey(), {});

  std::vector<Notification> out;
  // New untagged post: not contained, no notification.
  node.Match(Change("posts", "p1", R"({"tags":[]})"), &out);
  EXPECT_TRUE(out.empty());

  // +'example': enters the result set → add.
  node.Match(Change("posts", "p1", R"({"tags":["example"]})"), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, NotificationType::kAdd);
  EXPECT_EQ(out[0].record_id, "p1");

  // +'music': still matches → change.
  out.clear();
  node.Match(Change("posts", "p1", R"({"tags":["example","music"]})"), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, NotificationType::kChange);

  // -'example': leaves the result set → remove.
  out.clear();
  node.Match(Change("posts", "p1", R"({"tags":["music"]})"), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, NotificationType::kRemove);

  // Further changes to a non-member: silence.
  out.clear();
  node.Match(Change("posts", "p1", R"({"tags":[]})"), &out);
  EXPECT_TRUE(out.empty());
}

TEST(MatchingNodeTest, InitialResultSeedsMatchState) {
  MatchingNode node;
  db::Query q = Q("posts", R"({"g":1})");
  node.AddQuery(q, q.NormalizedKey(), {"p1"});
  std::vector<Notification> out;
  // p1 was a match; moving it out produces remove (not silence).
  node.Match(Change("posts", "p1", R"({"g":2})"), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, NotificationType::kRemove);
}

TEST(MatchingNodeTest, DeleteOfMemberEmitsRemove) {
  MatchingNode node;
  db::Query q = Q("posts", R"({"g":1})");
  node.AddQuery(q, q.NormalizedKey(), {"p1"});
  std::vector<Notification> out;
  node.Match(Change("posts", "p1", R"({"g":1})", 0, /*deleted=*/true), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, NotificationType::kRemove);
}

TEST(MatchingNodeTest, IgnoresOtherTables) {
  MatchingNode node;
  db::Query q = Q("posts", R"({"g":1})");
  node.AddQuery(q, q.NormalizedKey(), {});
  std::vector<Notification> out;
  node.Match(Change("users", "p1", R"({"g":1})"), &out);
  EXPECT_TRUE(out.empty());
}

TEST(MatchingNodeTest, MultipleQueriesEachNotified) {
  MatchingNode node;
  db::Query q1 = Q("posts", R"({"g":1})");
  db::Query q2 = Q("posts", R"({"g":{"$lte":5}})");
  node.AddQuery(q1, q1.NormalizedKey(), {});
  node.AddQuery(q2, q2.NormalizedKey(), {});
  std::vector<Notification> out;
  node.Match(Change("posts", "p1", R"({"g":1})"), &out);
  EXPECT_EQ(out.size(), 2u);  // add for both
}

TEST(MatchingNodeTest, RemoveQueryStopsNotifications) {
  MatchingNode node;
  db::Query q = Q("posts", R"({"g":1})");
  node.AddQuery(q, q.NormalizedKey(), {});
  node.RemoveQuery(q.NormalizedKey());
  EXPECT_FALSE(node.HasQuery(q.NormalizedKey()));
  std::vector<Notification> out;
  node.Match(Change("posts", "p1", R"({"g":1})"), &out);
  EXPECT_TRUE(out.empty());
}

TEST(MatchingNodeTest, MatchSingleTargetsOneQuery) {
  MatchingNode node;
  db::Query q1 = Q("posts", R"({"g":1})");
  db::Query q2 = Q("posts", R"({"g":{"$gte":0}})");
  node.AddQuery(q1, q1.NormalizedKey(), {});
  node.AddQuery(q2, q2.NormalizedKey(), {});
  std::vector<Notification> out;
  node.MatchSingle(q1.NormalizedKey(), Change("posts", "p1", R"({"g":1})"),
                   &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].query_key, q1.NormalizedKey());
}

// ---------------------------------------------------------------------------
// SortedLayer — windowed results (ORDER BY / LIMIT / OFFSET)
// ---------------------------------------------------------------------------

db::Document MakeDoc(const char* id, const char* body) {
  db::Document d;
  d.table = "posts";
  d.id = id;
  d.body = Doc(body);
  return d;
}

class SortedLayerTest : public ::testing::Test {
 protected:
  // Top-2 by descending score.
  SortedLayerTest() {
    query_ = Q("posts", "{}");
    query_.SetOrderBy({{"score", false}}).SetLimit(2);
    key_ = query_.NormalizedKey();
    layer_.AddQuery(query_, key_,
                    {MakeDoc("a", R"({"score":30})"),
                     MakeDoc("b", R"({"score":20})"),
                     MakeDoc("c", R"({"score":10})")});
  }

  db::Document DocFor(const char* id, int score) {
    return MakeDoc(id,
                   ("{\"score\":" + std::to_string(score) + "}").c_str());
  }

  db::Query query_;
  std::string key_;
  SortedLayer layer_;
};

TEST_F(SortedLayerTest, InitialWindow) {
  EXPECT_EQ(layer_.WindowIds(key_), (std::vector<std::string>{"a", "b"}));
}

TEST_F(SortedLayerTest, AddOutsideWindowIsSilent) {
  std::vector<Notification> out;
  db::Document d = DocFor("d", 5);  // below the window
  layer_.OnRawEvent(key_, NotificationType::kAdd, d, 0, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(layer_.WindowIds(key_), (std::vector<std::string>{"a", "b"}));
}

TEST_F(SortedLayerTest, AddIntoWindowEmitsAddAndRemove) {
  std::vector<Notification> out;
  db::Document d = DocFor("d", 25);  // lands at index 1; b leaves window
  layer_.OnRawEvent(key_, NotificationType::kAdd, d, 0, &out);
  ASSERT_EQ(out.size(), 2u);
  // Order: removes first, then adds.
  EXPECT_EQ(out[0].type, NotificationType::kRemove);
  EXPECT_EQ(out[0].record_id, "b");
  EXPECT_EQ(out[1].type, NotificationType::kAdd);
  EXPECT_EQ(out[1].record_id, "d");
  EXPECT_EQ(out[1].new_index, 1);
  EXPECT_EQ(layer_.WindowIds(key_), (std::vector<std::string>{"a", "d"}));
}

TEST_F(SortedLayerTest, RemoveFromWindowSlidesNextIn) {
  std::vector<Notification> out;
  db::Document d = DocFor("a", 30);
  layer_.OnRawEvent(key_, NotificationType::kRemove, d, 0, &out);
  // a leaves; b moves to index 0 (changeIndex); c slides in at index 1.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].type, NotificationType::kRemove);
  EXPECT_EQ(out[0].record_id, "a");
  EXPECT_EQ(out[1].type, NotificationType::kChangeIndex);
  EXPECT_EQ(out[1].record_id, "b");
  EXPECT_EQ(out[1].new_index, 0);
  EXPECT_EQ(out[2].type, NotificationType::kAdd);
  EXPECT_EQ(out[2].record_id, "c");
  EXPECT_EQ(layer_.WindowIds(key_), (std::vector<std::string>{"b", "c"}));
}

TEST_F(SortedLayerTest, InPlaceChangeInsideWindow) {
  std::vector<Notification> out;
  db::Document d = DocFor("a", 35);  // still rank 0
  layer_.OnRawEvent(key_, NotificationType::kChange, d, 0, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, NotificationType::kChange);
  EXPECT_EQ(out[0].record_id, "a");
}

TEST_F(SortedLayerTest, ScoreChangeReordersWindow) {
  std::vector<Notification> out;
  db::Document d = DocFor("b", 40);  // b overtakes a
  layer_.OnRawEvent(key_, NotificationType::kChange, d, 0, &out);
  // b: index 1→0, a: index 0→1, both changeIndex.
  ASSERT_EQ(out.size(), 2u);
  for (const Notification& n : out) {
    EXPECT_EQ(n.type, NotificationType::kChangeIndex);
  }
  EXPECT_EQ(layer_.WindowIds(key_), (std::vector<std::string>{"b", "a"}));
}

TEST_F(SortedLayerTest, OffsetWindow) {
  db::Query q = Q("posts", "{}");
  q.SetOrderBy({{"score", false}}).SetLimit(1).SetOffset(1);
  const std::string key = q.NormalizedKey();
  SortedLayer layer;
  layer.AddQuery(q, key,
                 {MakeDoc("a", R"({"score":30})"),
                  MakeDoc("b", R"({"score":20})")});
  EXPECT_EQ(layer.WindowIds(key), (std::vector<std::string>{"b"}));
  // A new top element shifts the offset window.
  std::vector<Notification> out;
  layer.OnRawEvent(key, NotificationType::kAdd,
                   MakeDoc("c", R"({"score":99})"), 0, &out);
  EXPECT_EQ(layer.WindowIds(key), (std::vector<std::string>{"a"}));
}

TEST_F(SortedLayerTest, RemoveQueryForgetsState) {
  layer_.RemoveQuery(key_);
  EXPECT_FALSE(layer_.Handles(key_));
  EXPECT_TRUE(layer_.WindowIds(key_).empty());
}

// ---------------------------------------------------------------------------
// InvalidbCluster — routing, subscription filtering, replay
// ---------------------------------------------------------------------------

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : clock_(0) {}

  void MakeCluster(InvalidbOptions options) {
    options.threaded = false;
    cluster_ = std::make_unique<InvalidbCluster>(
        &clock_, options, [this](const std::vector<Notification>& batch) {
          std::lock_guard<std::mutex> lock(mu_);
          notifications_.insert(notifications_.end(), batch.begin(),
                                batch.end());
        });
  }

  std::vector<Notification> TakeNotifications() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Notification> out = std::move(notifications_);
    notifications_.clear();
    return out;
  }

  SimulatedClock clock_;
  std::unique_ptr<InvalidbCluster> cluster_;
  std::mutex mu_;
  std::vector<Notification> notifications_;
};

TEST_F(ClusterTest, SingleNodeEndToEnd) {
  MakeCluster({});
  db::Query q = Q("posts", R"({"g":1})");
  ASSERT_TRUE(cluster_->RegisterQuery(q, {}).ok());
  EXPECT_TRUE(cluster_->IsRegistered(q.NormalizedKey()));
  cluster_->OnChangeBatch({Change("posts", "p1", R"({"g":1})", 5)});
  auto ns = TakeNotifications();
  ASSERT_EQ(ns.size(), 1u);
  EXPECT_EQ(ns[0].type, NotificationType::kAdd);
  EXPECT_EQ(ns[0].event_time, 5);
}

TEST_F(ClusterTest, DuplicateRegistrationFails) {
  MakeCluster({});
  db::Query q = Q("posts", R"({"g":1})");
  ASSERT_TRUE(cluster_->RegisterQuery(q, {}).ok());
  EXPECT_TRUE(cluster_->RegisterQuery(q, {}).IsAlreadyExists());
}

TEST_F(ClusterTest, DeregisteredQueryIsSilent) {
  MakeCluster({});
  db::Query q = Q("posts", R"({"g":1})");
  ASSERT_TRUE(cluster_->RegisterQuery(q, {}).ok());
  cluster_->DeregisterQuery(q.NormalizedKey());
  EXPECT_FALSE(cluster_->IsRegistered(q.NormalizedKey()));
  cluster_->OnChangeBatch({Change("posts", "p1", R"({"g":1})")});
  EXPECT_TRUE(TakeNotifications().empty());
}

TEST_F(ClusterTest, GridPartitioningDeliversExactlyOnce) {
  InvalidbOptions opts;
  opts.query_partitions = 3;
  opts.object_partitions = 3;
  MakeCluster(opts);
  EXPECT_EQ(cluster_->NumNodes(), 9u);
  // Register many queries; fire updates matching all of them; each
  // (query, update) pair must produce exactly one notification.
  std::vector<std::string> keys;
  for (int g = 0; g < 10; ++g) {
    db::Query q = Q("posts",
                    ("{\"g\":{\"$gte\":" + std::to_string(-1) + "}}").c_str());
    // Make each query distinct via a different threshold field.
    q = Q("posts", ("{\"n\":{\"$gte\":" + std::to_string(-g - 1) + "}}")
                       .c_str());
    ASSERT_TRUE(cluster_->RegisterQuery(q, {}).ok());
    keys.push_back(q.NormalizedKey());
  }
  for (int i = 0; i < 20; ++i) {
    cluster_->OnChangeBatch(
        {Change("posts", ("p" + std::to_string(i)).c_str(), R"({"n":0})")});
  }
  auto ns = TakeNotifications();
  EXPECT_EQ(ns.size(), 10u * 20u);
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const Notification& n : ns) {
    counts[{n.query_key, n.record_id}]++;
  }
  for (const auto& [pair, count] : counts) EXPECT_EQ(count, 1);
}

TEST_F(ClusterTest, ReplayClosesActivationRace) {
  MakeCluster({});
  db::Query q = Q("posts", R"({"g":1})");
  // The write arrives BEFORE the query is activated (between Quaestor's
  // initial evaluation and installation) — replay must catch it.
  cluster_->OnChangeBatch({Change("posts", "p1", R"({"g":1})", 3)});
  ASSERT_TRUE(cluster_->RegisterQuery(q, {}).ok());
  auto ns = TakeNotifications();
  ASSERT_EQ(ns.size(), 1u);
  EXPECT_EQ(ns[0].type, NotificationType::kAdd);
  EXPECT_EQ(ns[0].record_id, "p1");
}

TEST_F(ClusterTest, ReplayDoesNotDuplicateInitialResult) {
  MakeCluster({});
  db::Query q = Q("posts", R"({"g":1})");
  // The initial evaluation already saw p1 (it is in the initial result);
  // replaying the same after-image must yield change, not add.
  cluster_->OnChangeBatch({Change("posts", "p1", R"({"g":1})", 3)});
  db::Document init = MakeDoc("p1", R"({"g":1})");
  ASSERT_TRUE(cluster_->RegisterQuery(q, {init}).ok());
  auto ns = TakeNotifications();
  ASSERT_EQ(ns.size(), 1u);
  EXPECT_EQ(ns[0].type, NotificationType::kChange);
}

TEST_F(ClusterTest, StatefulQueryEmitsWindowEvents) {
  MakeCluster({});
  db::Query q = Q("posts", "{}");
  q.SetOrderBy({{"score", false}}).SetLimit(2);
  std::vector<db::Document> init = {MakeDoc("a", R"({"score":30})"),
                                    MakeDoc("b", R"({"score":20})"),
                                    MakeDoc("c", R"({"score":10})")};
  ASSERT_TRUE(cluster_->RegisterQuery(q, init).ok());
  EXPECT_EQ(cluster_->SortedWindow(q.NormalizedKey()),
            (std::vector<std::string>{"a", "b"}));
  // A new high scorer enters the window.
  cluster_->OnChangeBatch({Change("posts", "d", R"({"score":99})")});
  auto ns = TakeNotifications();
  // remove b, add d at index 0, changeIndex a (0 → 1).
  ASSERT_EQ(ns.size(), 3u);
  EXPECT_EQ(ns[0].type, NotificationType::kRemove);
  EXPECT_EQ(ns[0].record_id, "b");
  EXPECT_EQ(ns[1].type, NotificationType::kAdd);
  EXPECT_EQ(ns[1].record_id, "d");
  EXPECT_EQ(ns[2].type, NotificationType::kChangeIndex);
  EXPECT_EQ(ns[2].record_id, "a");
  EXPECT_EQ(cluster_->SortedWindow(q.NormalizedKey()),
            (std::vector<std::string>{"d", "a"}));
}

TEST_F(ClusterTest, StatsCountMatchChecks) {
  MakeCluster({});
  db::Query q = Q("posts", R"({"g":1})");
  ASSERT_TRUE(cluster_->RegisterQuery(q, {}).ok());
  // Non-candidate changes: the query index rules them out without a single
  // predicate evaluation, while the pre-index cost shows up as "naive".
  cluster_->OnChangeBatch({Change("posts", "p1", R"({"g":9})")});
  cluster_->OnChangeBatch({Change("posts", "p2", R"({"g":9})")});
  ClusterStats stats = cluster_->stats();
  EXPECT_EQ(stats.changes_ingested, 2u);
  EXPECT_EQ(stats.match_checks, 0u);
  EXPECT_EQ(stats.match_checks_naive, 2u);
  EXPECT_EQ(stats.notifications_delivered, 0u);
  // A matching change is a candidate and gets evaluated.
  cluster_->OnChangeBatch({Change("posts", "p3", R"({"g":1})")});
  stats = cluster_->stats();
  EXPECT_EQ(stats.match_checks, 1u);
  EXPECT_EQ(stats.match_checks_naive, 3u);
  EXPECT_EQ(stats.index_candidates, 1u);
  EXPECT_EQ(stats.notifications_delivered, 1u);
}

// ---------------------------------------------------------------------------
// Threaded mode
// ---------------------------------------------------------------------------

TEST(ClusterThreadedTest, DeliversAllNotifications) {
  SystemClock* clock = SystemClock::Default();
  InvalidbOptions opts;
  opts.query_partitions = 2;
  opts.object_partitions = 2;
  opts.threaded = true;
  std::atomic<int> count{0};
  InvalidbCluster cluster(clock, opts,
                          [&](const std::vector<Notification>& batch) {
                            count += batch.size();
                          });
  db::Query q = Q("posts", R"({"g":{"$gte":0}})");
  ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());
  cluster.Flush();
  constexpr int kChanges = 500;
  for (int i = 0; i < kChanges; ++i) {
    cluster.OnChangeBatch(
        {Change("posts", ("p" + std::to_string(i)).c_str(), R"({"g":1})")});
  }
  cluster.Flush();
  EXPECT_EQ(count.load(), kChanges);
  EXPECT_EQ(cluster.stats().notifications_delivered,
            static_cast<uint64_t>(kChanges));
  EXPECT_GT(cluster.LatencyHistogram().count(), 0u);
}

TEST(ClusterThreadedTest, ShutdownWithPendingWorkIsClean) {
  SystemClock* clock = SystemClock::Default();
  InvalidbOptions opts;
  opts.threaded = true;
  std::atomic<int> count{0};
  auto cluster = std::make_unique<InvalidbCluster>(
      clock, opts, [&](const std::vector<Notification>& batch) {
                     count += batch.size();
                   });
  db::Query q = Q("posts", R"({"g":1})");
  ASSERT_TRUE(cluster->RegisterQuery(q, {}).ok());
  for (int i = 0; i < 100; ++i) {
    cluster->OnChangeBatch({Change("posts", "p", R"({"g":1})")});
  }
  cluster.reset();  // must not hang or crash
  SUCCEED();
}

}  // namespace
}  // namespace quaestor::invalidb

namespace quaestor::invalidb {
namespace {

// ---------------------------------------------------------------------------
// Additional routing / buffering coverage
// ---------------------------------------------------------------------------

TEST(ClusterRoutingTest, ObjectPartitionRowsShareQueryState) {
  // With multiple object partitions, one query's result set is split
  // across rows; membership transitions must still be exact when a record
  // "moves" between states (each record is always owned by one row).
  SimulatedClock clock(0);
  InvalidbOptions opts;
  opts.query_partitions = 1;
  opts.object_partitions = 4;
  std::vector<Notification> ns;
  InvalidbCluster cluster(&clock, opts,
                          [&](const std::vector<Notification>& batch) {
                            ns.insert(ns.end(), batch.begin(), batch.end());
                          });
  db::Query q = db::Query::ParseJson("t", R"({"g":1})").value();
  ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());

  // 40 records enter, then leave, the result set.
  for (int i = 0; i < 40; ++i) {
    db::ChangeEvent ev;
    ev.kind = db::WriteKind::kUpdate;
    ev.after.table = "t";
    ev.after.id = "d" + std::to_string(i);
    ev.after.body = db::Value::FromJson(R"({"g":1})").value();
    cluster.OnChangeBatch({ev});
  }
  for (int i = 0; i < 40; ++i) {
    db::ChangeEvent ev;
    ev.kind = db::WriteKind::kUpdate;
    ev.after.table = "t";
    ev.after.id = "d" + std::to_string(i);
    ev.after.body = db::Value::FromJson(R"({"g":2})").value();
    cluster.OnChangeBatch({ev});
  }
  ASSERT_EQ(ns.size(), 80u);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(ns[i].type, NotificationType::kAdd);
  }
  for (size_t i = 40; i < 80; ++i) {
    EXPECT_EQ(ns[i].type, NotificationType::kRemove);
  }
  // Work was actually spread over the rows.
  const auto ops = cluster.OpsPerNode();
  int busy_nodes = 0;
  for (uint64_t n : ops) {
    if (n > 0) busy_nodes++;
  }
  EXPECT_GT(busy_nodes, 1);
}

TEST(ClusterRoutingTest, ReplayBufferIsBounded) {
  SimulatedClock clock(0);
  InvalidbOptions opts;
  std::vector<Notification> ns;
  InvalidbCluster cluster(&clock, opts,
                          [&](const std::vector<Notification>& batch) {
                            ns.insert(ns.end(), batch.begin(), batch.end());
                          });
  // kReplayBufferSize + 6 events before any query exists; only the last
  // kReplayBufferSize are replayable.
  const int events = static_cast<int>(kReplayBufferSize) + 6;
  for (int i = 0; i < events; ++i) {
    db::ChangeEvent ev;
    ev.kind = db::WriteKind::kUpdate;
    ev.after.table = "t";
    ev.after.id = "d" + std::to_string(i);
    ev.after.body = db::Value::FromJson(R"({"g":1})").value();
    ev.commit_time = 100 + i;  // all in the "future" wrt evaluated_at=0
    cluster.OnChangeBatch({ev});
  }
  db::Query q = db::Query::ParseJson("t", R"({"g":1})").value();
  ASSERT_TRUE(cluster.RegisterQuery(q, {}, /*evaluated_at=*/0).ok());
  ASSERT_EQ(ns.size(), kReplayBufferSize);
  EXPECT_EQ(ns.front().record_id, "d6");
  EXPECT_EQ(ns.back().record_id, "d" + std::to_string(events - 1));
}

TEST(ClusterRoutingTest, ReplaySkipsEventsBeforeEvaluation) {
  SimulatedClock clock(1000);
  InvalidbOptions opts;
  std::vector<Notification> ns;
  InvalidbCluster cluster(&clock, opts,
                          [&](const std::vector<Notification>& batch) {
                            ns.insert(ns.end(), batch.begin(), batch.end());
                          });
  db::ChangeEvent before;
  before.kind = db::WriteKind::kUpdate;
  before.after.table = "t";
  before.after.id = "old";
  before.after.body = db::Value::FromJson(R"({"g":1})").value();
  before.commit_time = 500;  // before the evaluation snapshot
  cluster.OnChangeBatch({before});
  db::ChangeEvent after = before;
  after.after.id = "new";
  after.commit_time = 900;  // after the evaluation snapshot
  cluster.OnChangeBatch({after});

  db::Query q = db::Query::ParseJson("t", R"({"g":1})").value();
  ASSERT_TRUE(cluster.RegisterQuery(q, {}, /*evaluated_at=*/600).ok());
  ASSERT_EQ(ns.size(), 1u);
  EXPECT_EQ(ns[0].record_id, "new");
}

// ---------------------------------------------------------------------------
// Resize — compact unit cases (the chaos/equivalence properties live in
// rebalance_test.cc and matching_equivalence_test.cc)
// ---------------------------------------------------------------------------

TEST(ClusterResizeTest, HandoffCarriesMembershipToNewShape) {
  SimulatedClock clock(0);
  InvalidbOptions opts;  // 1x1
  std::vector<Notification> ns;
  InvalidbCluster cluster(&clock, opts,
                          [&](const std::vector<Notification>& batch) {
                            ns.insert(ns.end(), batch.begin(), batch.end());
                          });
  db::Query q = Q("t", R"({"g":1})");
  ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());
  cluster.OnChangeBatch({Change("t", "a", R"({"g":1})", 10)});
  ASSERT_EQ(ns.size(), 1u);
  EXPECT_EQ(ns[0].type, NotificationType::kAdd);

  EXPECT_EQ(cluster.Resize(3, 2), 1u);
  EXPECT_EQ(cluster.NumNodes(), 6u);
  EXPECT_TRUE(cluster.IsRegistered(q.NormalizedKey()));

  // Membership carried over: leaving the result emits a remove, not a
  // spurious re-add.
  cluster.OnChangeBatch({Change("t", "a", R"({"g":2})", 20)});
  ASSERT_EQ(ns.size(), 2u);
  EXPECT_EQ(ns[1].type, NotificationType::kRemove);
  EXPECT_EQ(cluster.stats().rebalance_resizes, 1u);
  EXPECT_EQ(cluster.stats().rebalance_nodes_added, 5u);
}

TEST(ClusterResizeTest, ZeroPartitionsClampToOne) {
  SimulatedClock clock(0);
  InvalidbOptions opts;
  opts.query_partitions = 2;
  opts.object_partitions = 2;
  InvalidbCluster cluster(&clock, opts,
                          [](const std::vector<Notification>&) {});
  EXPECT_EQ(cluster.Resize(0, 0), 0u);
  EXPECT_EQ(cluster.NumNodes(), 1u);
}

TEST(ClusterResizeTest, DrainedEventsNeverReplayEvenIfClockLags) {
  // Stream commit_times run far ahead of the cluster clock; a resize must
  // still not re-deliver events the old grid already matched.
  SimulatedClock clock(0);
  InvalidbOptions opts;
  std::vector<Notification> ns;
  InvalidbCluster cluster(&clock, opts,
                          [&](const std::vector<Notification>& batch) {
                            ns.insert(ns.end(), batch.begin(), batch.end());
                          });
  db::Query q = Q("t", R"({"g":1})");
  ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());
  cluster.OnChangeBatch({Change("t", "a", R"({"g":1})", /*at=*/1000000)});
  ASSERT_EQ(ns.size(), 1u);
  EXPECT_EQ(cluster.Resize(2, 2), 1u);
  EXPECT_EQ(ns.size(), 1u) << "drained event replayed as a duplicate";
}

TEST(ClusterResizeTest, MigrationPauseIsRecorded) {
  SimulatedClock clock(0);
  InvalidbOptions opts;
  InvalidbCluster cluster(&clock, opts,
                          [](const std::vector<Notification>&) {});
  EXPECT_EQ(cluster.MigrationPauseHistogram().count(), 0u);
  cluster.Resize(2, 1);
  cluster.Resize(1, 2);
  EXPECT_EQ(cluster.MigrationPauseHistogram().count(), 2u);
  EXPECT_EQ(cluster.stats().rebalance_resizes, 2u);
}

}  // namespace
}  // namespace quaestor::invalidb
