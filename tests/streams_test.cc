#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/clock.h"
#include "core/query_result.h"
#include "core/server.h"
#include "core/streams.h"
#include "db/database.h"
#include "invalidb/cluster.h"

namespace quaestor::core {
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

class StreamsTest : public ::testing::Test {
 protected:
  StreamsTest() : clock_(0) { MakeServer(ServerOptions()); }

  /// Builds a fresh database, server and hub (the server's change
  /// listener lives in the database, so both are replaced together).
  void MakeServer(const ServerOptions& options) {
    hub_.reset();
    server_.reset();
    db_ = std::make_unique<db::Database>(&clock_);
    server_ = std::make_unique<QuaestorServer>(&clock_, db_.get(), options);
    hub_ = std::make_unique<ChangeStreamHub>(server_.get());
  }

  /// Installs a second cluster as the server's pipeline, as a remote one
  /// would be: the server's own cluster then sees no traffic.
  void UseOtherPipeline() {
    other_ = std::make_unique<invalidb::InvalidbCluster>(
        &clock_, invalidb::InvalidbOptions(),
        [this](const std::vector<invalidb::Notification>& batch) {
          server_->OnNotificationBatch(batch);
        });
    server_->SetPipeline(other_.get());
  }

  /// Subscribes to a tags query and checks its add, change and remove.
  void CheckLifecycle();
  /// Subscribes to a top-2 query and checks an add into its window, then,
  /// after a pipeline outage and recovery, a move inside it.
  void CheckSortedStream();

  /// Inserts p0, p1, p2 with scores 0, 10, 20 and returns the top-2 query
  /// over them (window {p2, p1}).
  db::Query InsertTopTwo();
  /// Serves `query` through the caching path, which registers it.
  webcache::HttpResponse FetchQuery(const db::Query& query) {
    server_->RegisterQueryShape(query);
    webcache::HttpRequest req;
    req.key = query.NormalizedKey();
    return server_->Fetch(req);
  }
  /// Sets `id`'s score and reports whether `events` got a changeIndex for
  /// it (each one to index 0).
  bool MovedToTop(std::vector<StreamEvent>* events, const std::string& id,
                  int64_t score);

  SimulatedClock clock_;
  std::unique_ptr<db::Database> db_;
  std::unique_ptr<QuaestorServer> server_;
  std::unique_ptr<ChangeStreamHub> hub_;
  std::unique_ptr<invalidb::InvalidbCluster> other_;
};

TEST_F(StreamsTest, SubscribeReturnsInitialResult) {
  ASSERT_TRUE(server_->Insert("posts", "p1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(server_->Insert("posts", "p2", Doc(R"({"g":2})")).ok());
  std::vector<db::Document> initial;
  auto id = hub_->Subscribe(Q("posts", R"({"g":1})"),
                            [](const StreamEvent&) {}, &initial);
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(initial.size(), 1u);
  EXPECT_EQ(initial[0].id, "p1");
  EXPECT_EQ(hub_->TotalSubscriptions(), 1u);
}

void StreamsTest::CheckLifecycle() {
  std::vector<StreamEvent> events;
  auto id = hub_->Subscribe(
      Q("posts", R"({"tags":{"$contains":"x"}})"),
      [&](const StreamEvent& ev) { events.push_back(ev); }, nullptr);
  ASSERT_TRUE(id.ok());

  // add
  ASSERT_TRUE(server_->Insert("posts", "p1", Doc(R"({"tags":["x"]})")).ok());
  // change
  db::Update bump;
  bump.Push("tags", db::Value("y"));
  ASSERT_TRUE(server_->Update("posts", "p1", bump).ok());
  // remove
  db::Update pull;
  pull.Pull("tags", db::Value("x"));
  ASSERT_TRUE(server_->Update("posts", "p1", pull).ok());

  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, invalidb::NotificationType::kAdd);
  EXPECT_TRUE(events[0].has_body);
  EXPECT_EQ(events[1].type, invalidb::NotificationType::kChange);
  ASSERT_TRUE(events[1].has_body);
  EXPECT_EQ(events[1].body.Find("tags")->as_array().size(), 2u);
  EXPECT_EQ(events[2].type, invalidb::NotificationType::kRemove);
  EXPECT_FALSE(events[2].has_body);
}

TEST_F(StreamsTest, DeliversAddChangeRemoveLifecycle) { CheckLifecycle(); }

TEST_F(StreamsTest, DeliversAddChangeRemoveLifecycleOnInstalledPipeline) {
  UseOtherPipeline();
  CheckLifecycle();
  EXPECT_EQ(server_->invalidb().RegisteredCount(), 0u);
}

db::Query StreamsTest::InsertTopTwo() {
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(server_
                    ->Insert("posts", "p" + std::to_string(i),
                             Doc(("{\"score\":" + std::to_string(i * 10) +
                                  "}")
                                     .c_str()))
                    .ok());
  }
  db::Query top = Q("posts", "{}");
  top.SetOrderBy({{"score", false}}).SetLimit(2);
  return top;
}

bool StreamsTest::MovedToTop(std::vector<StreamEvent>* events,
                             const std::string& id, int64_t score) {
  events->clear();
  EXPECT_TRUE(
      server_->Update("posts", id, db::Update().Set("score", db::Value(score)))
          .ok());
  bool moved = false;
  for (const StreamEvent& ev : *events) {
    if (ev.type == invalidb::NotificationType::kChangeIndex &&
        ev.record_id == id) {
      EXPECT_EQ(ev.new_index, 0);
      moved = true;
    }
  }
  return moved;
}

void StreamsTest::CheckSortedStream() {
  const db::Query top = InsertTopTwo();
  std::vector<db::Document> initial;
  std::vector<StreamEvent> events;
  auto id = hub_->Subscribe(
      top, [&](const StreamEvent& ev) { events.push_back(ev); }, &initial);
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(initial.size(), 2u);
  EXPECT_EQ(initial[0].id, "p2");

  // A new top scorer: p0 window events with indices.
  ASSERT_TRUE(
      server_->Insert("posts", "p9", Doc(R"({"score":999})")).ok());
  ASSERT_GE(events.size(), 2u);
  bool saw_add_at_zero = false;
  for (const StreamEvent& ev : events) {
    if (ev.type == invalidb::NotificationType::kAdd &&
        ev.record_id == "p9") {
      EXPECT_EQ(ev.new_index, 0);
      saw_add_at_zero = true;
    }
  }
  EXPECT_TRUE(saw_add_at_zero);

  // Outage recovery registers the stream's query again: p2 overtaking p9
  // inside the window {p9, p2} still arrives as a changeIndex event.
  server_->SetPipelineDown(true);
  server_->SetPipelineDown(false);
  EXPECT_TRUE(MovedToTop(&events, "p2", 1000));
}

TEST_F(StreamsTest, SortedStreamEmitsWindowEvents) { CheckSortedStream(); }

TEST_F(StreamsTest, SortedStreamEmitsWindowEventsOnInstalledPipeline) {
  UseOtherPipeline();
  CheckSortedStream();
}

// A fetch registers a sorted query with every event it can emit; a stream
// that subscribes afterwards gets changeIndex from that registration.
TEST_F(StreamsTest, SubscribeAfterFetchGetsChangeIndex) {
  const db::Query top = InsertTopTwo();
  ASSERT_TRUE(FetchQuery(top).ok);
  std::vector<StreamEvent> events;
  ASSERT_TRUE(hub_->Subscribe(
                      top,
                      [&](const StreamEvent& ev) { events.push_back(ev); },
                      nullptr)
                  .ok());
  EXPECT_TRUE(MovedToTop(&events, "p1", 30));
  // The move also invalidates the cached result.
  EXPECT_TRUE(server_->ebf().IsStale(top.NormalizedKey()));
}

// Without any stream, a fetch registers a sorted query with changeIndex:
// a move inside the window reorders the cached result, so it invalidates
// it.
TEST_F(StreamsTest, FetchedSortedResultInvalidatedByMoveInsideWindow) {
  const db::Query top = InsertTopTwo();
  ASSERT_TRUE(FetchQuery(top).ok);
  ASSERT_FALSE(server_->ebf().IsStale(top.NormalizedKey()));
  // p1 moves from index 1 to 0 of the window {p2, p1}.
  ASSERT_TRUE(server_
                  ->Update("posts", "p1",
                           db::Update().Set("score", db::Value(int64_t{30})))
                  .ok());
  EXPECT_TRUE(server_->ebf().IsStale(top.NormalizedKey()));
}

// A kAuto switch to id-lists leaves the registration in place, and the
// server's filter passes every event of a streamed query.
TEST_F(StreamsTest, StreamSurvivesRepresentationSwitch) {
  ServerOptions opts;
  opts.representation = RepresentationPolicy::kAuto;
  MakeServer(opts);
  const db::Query top = InsertTopTwo();
  server_->RegisterQueryShape(top);
  std::vector<StreamEvent> events;
  ASSERT_TRUE(hub_->Subscribe(
                      top,
                      [&](const StreamEvent& ev) { events.push_back(ev); },
                      nullptr)
                  .ok());
  auto representation = [&] {
    return QueryResponse::FromJson(FetchQuery(top).body)->representation;
  };
  ASSERT_EQ(representation(), ttl::ResultRepresentation::kObjectList);
  // Frequent in-place changes of a window member make id-lists the
  // cheaper choice once the sticky decision is re-evaluated.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server_
                    ->Update("posts", "p2",
                             db::Update().Set("x", db::Value(int64_t{i})))
                    .ok());
  }
  clock_.Advance(6 * kMicrosPerSecond);
  ASSERT_EQ(representation(), ttl::ResultRepresentation::kIdList);
  EXPECT_TRUE(MovedToTop(&events, "p1", 30));
}

// Capacity eviction drops the cache's interest in a query, not the
// stream's.
TEST_F(StreamsTest, StreamSurvivesCapacityEviction) {
  ServerOptions opts;
  opts.query_capacity = 1;
  MakeServer(opts);
  const db::Query q1 = Q("posts", R"({"g":1})");
  const db::Query q2 = Q("posts", R"({"g":2})");
  server_->RegisterQueryShape(q1);
  int events = 0;
  ASSERT_TRUE(hub_->Subscribe(
                      q1, [&](const StreamEvent&) { events++; }, nullptr)
                  .ok());
  ASSERT_TRUE(FetchQuery(q1).ok);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(FetchQuery(q2).ok);
  ASSERT_FALSE(server_->capacity().IsAdmitted(q1.NormalizedKey()));
  ASSERT_TRUE(server_->Insert("posts", "p1", Doc(R"({"g":1})")).ok());
  EXPECT_EQ(events, 1);
}

TEST_F(StreamsTest, MultipleSubscribersShareOneRegistration) {
  int a_events = 0;
  int b_events = 0;
  db::Query q = Q("posts", R"({"g":1})");
  ASSERT_TRUE(hub_->Subscribe(
                      q, [&](const StreamEvent&) { a_events++; }, nullptr)
                  .ok());
  ASSERT_TRUE(hub_->Subscribe(
                      q, [&](const StreamEvent&) { b_events++; }, nullptr)
                  .ok());
  EXPECT_EQ(hub_->SubscriberCount(q.NormalizedKey()), 2u);
  EXPECT_EQ(server_->invalidb().RegisteredCount(), 1u);

  ASSERT_TRUE(server_->Insert("posts", "p1", Doc(R"({"g":1})")).ok());
  EXPECT_EQ(a_events, 1);
  EXPECT_EQ(b_events, 1);
}

TEST_F(StreamsTest, UnsubscribeStopsDelivery) {
  int events = 0;
  db::Query q = Q("posts", R"({"g":1})");
  auto id = hub_->Subscribe(
      q, [&](const StreamEvent&) { events++; }, nullptr);
  ASSERT_TRUE(id.ok());
  hub_->Unsubscribe(id.value());
  EXPECT_EQ(hub_->TotalSubscriptions(), 0u);
  ASSERT_TRUE(server_->Insert("posts", "p1", Doc(R"({"g":1})")).ok());
  EXPECT_EQ(events, 0);
}

// The last subscriber of a query nobody fetched takes its registration
// with it.
TEST_F(StreamsTest, LastUnsubscribeReleasesStreamOnlyRegistration) {
  const db::Query q = Q("posts", R"({"g":1})");
  auto a = hub_->Subscribe(q, [](const StreamEvent&) {}, nullptr);
  auto b = hub_->Subscribe(q, [](const StreamEvent&) {}, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  hub_->Unsubscribe(a.value());
  EXPECT_TRUE(server_->invalidb().IsRegistered(q.NormalizedKey()));
  hub_->Unsubscribe(b.value());
  EXPECT_FALSE(server_->invalidb().IsRegistered(q.NormalizedKey()));
  EXPECT_FALSE(server_->active_list().IsRegistered(q.NormalizedKey()));
}

// A cached query keeps its registration when its last subscriber leaves,
// and its cached result still gets invalidated.
TEST_F(StreamsTest, LastUnsubscribeKeepsCachedQueryRegistered) {
  const db::Query q = Q("posts", R"({"g":1})");
  ASSERT_TRUE(FetchQuery(q).ok);
  auto id = hub_->Subscribe(q, [](const StreamEvent&) {}, nullptr);
  ASSERT_TRUE(id.ok());
  hub_->Unsubscribe(id.value());
  EXPECT_TRUE(server_->invalidb().IsRegistered(q.NormalizedKey()));
  ASSERT_TRUE(FetchQuery(q).ok);
  clock_.Advance(kMicrosPerSecond);
  ASSERT_TRUE(server_->Insert("posts", "p1", Doc(R"({"g":1})")).ok());
  EXPECT_TRUE(server_->ebf().IsStale(q.NormalizedKey()));
}

// Subscribing to a query a fetch registered keeps that registration, and
// neither the subscribe nor the last unsubscribe flags its cached copies
// without a write.
TEST_F(StreamsTest, StreamOnCachedStatelessQueryLeavesCacheFresh) {
  ASSERT_TRUE(server_->Insert("posts", "p1", Doc(R"({"g":1})")).ok());
  const db::Query q = Q("posts", R"({"g":1})");
  ASSERT_TRUE(FetchQuery(q).ok);
  auto id = hub_->Subscribe(q, [](const StreamEvent&) {}, nullptr);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(server_->ebf().IsStale(q.NormalizedKey()));
  hub_->Unsubscribe(id.value());
  EXPECT_FALSE(server_->ebf().IsStale(q.NormalizedKey()));
}

TEST_F(StreamsTest, UnsubscribeUnknownIdIsNoop) {
  hub_->Unsubscribe(12345);
  EXPECT_EQ(hub_->TotalSubscriptions(), 0u);
}

TEST_F(StreamsTest, StreamCoexistsWithCaching) {
  // A query can be both cached (via the normal fetch path) and streamed.
  ASSERT_TRUE(server_->Insert("posts", "p1", Doc(R"({"g":1})")).ok());
  db::Query q = Q("posts", R"({"g":1})");
  int events = 0;
  ASSERT_TRUE(hub_->Subscribe(
                      q, [&](const StreamEvent&) { events++; }, nullptr)
                  .ok());
  // Cached fetch path reuses the existing registration.
  auto resp = FetchQuery(q);
  ASSERT_TRUE(resp.ok);
  EXPECT_GT(resp.ttl, 0);

  clock_.Advance(kMicrosPerSecond);
  db::Update u;
  u.Set("g", db::Value(2));
  ASSERT_TRUE(server_->Update("posts", "p1", u).ok());
  // Both consumers observe the change: the stream got an event and the
  // cached result was flagged stale.
  EXPECT_EQ(events, 1);
  EXPECT_TRUE(server_->ebf().IsStale(q.NormalizedKey()));
}

}  // namespace
}  // namespace quaestor::core
