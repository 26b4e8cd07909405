#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "client/client.h"
#include "common/clock.h"
#include "core/server.h"
#include "db/database.h"
#include "webcache/web_cache.h"

namespace quaestor::client {
namespace {

constexpr Micros kSecond = kMicrosPerSecond;

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

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : clock_(0), db_(&clock_) {}

  void MakeStack(ClientOptions copts = ClientOptions(),
                 core::ServerOptions sopts = core::ServerOptions()) {
    server_ = std::make_unique<core::QuaestorServer>(&clock_, &db_, sopts);
    cdn_ = std::make_unique<webcache::InvalidationCache>(&clock_);
    server_->AddPurgeTarget(
        [this](const std::string& key) { cdn_->Purge(key); });
    browser_ = std::make_unique<webcache::ExpirationCache>(&clock_);
    client_ = std::make_unique<QuaestorClient>(
        &clock_, server_.get(), browser_.get(), cdn_.get(), copts);
    client_->Connect();
  }

  /// A second, independent browser session sharing server and CDN.
  std::unique_ptr<QuaestorClient> OtherClient(
      ClientOptions copts = ClientOptions()) {
    other_cache_ = std::make_unique<webcache::ExpirationCache>(&clock_);
    auto c = std::make_unique<QuaestorClient>(
        &clock_, server_.get(), other_cache_.get(), cdn_.get(), copts);
    c->Connect();
    return c;
  }

  SimulatedClock clock_;
  db::Database db_;
  std::unique_ptr<core::QuaestorServer> server_;
  std::unique_ptr<webcache::InvalidationCache> cdn_;
  std::unique_ptr<webcache::ExpirationCache> browser_;
  std::unique_ptr<webcache::ExpirationCache> other_cache_;
  std::unique_ptr<QuaestorClient> client_;
};

TEST_F(ClientTest, ReadThroughCachesWarmsUp) {
  MakeStack();
  ASSERT_TRUE(client_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  // Own write is in the session cache (read-your-writes).
  ReadResult r1 = client_->Read("t", "1");
  ASSERT_TRUE(r1.status.ok());
  EXPECT_EQ(r1.outcome.served_by, webcache::ServedBy::kClientCache);
  EXPECT_EQ(r1.doc.Find("x")->as_int(), 1);
}

TEST_F(ClientTest, ColdReadGoesToOriginThenCaches) {
  MakeStack();
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());  // out-of-band
  ReadResult r1 = client_->Read("t", "1");
  EXPECT_EQ(r1.outcome.served_by, webcache::ServedBy::kOrigin);
  EXPECT_GT(r1.outcome.latency_ms, 100.0);
  ReadResult r2 = client_->Read("t", "1");
  EXPECT_EQ(r2.outcome.served_by, webcache::ServedBy::kClientCache);
  EXPECT_DOUBLE_EQ(r2.outcome.latency_ms, 0.0);
}

TEST_F(ClientTest, MissingRecordReturnsNotFound) {
  MakeStack();
  EXPECT_TRUE(client_->Read("t", "missing").status.IsNotFound());
}

TEST_F(ClientTest, QueryObjectListFillsRecordCache) {
  MakeStack();
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(db_.Insert("t", "2", Doc(R"({"g":1})")).ok());
  QueryResult qr = client_->ExecuteQuery(Q("t", R"({"g":1})"));
  ASSERT_TRUE(qr.status.ok());
  EXPECT_EQ(qr.docs.size(), 2u);
  EXPECT_EQ(qr.outcome.served_by, webcache::ServedBy::kOrigin);
  // Records of the result are now individually cached (§6.2): a record
  // read is a client-cache hit without ever fetching the record itself.
  ReadResult rr = client_->Read("t", "1");
  EXPECT_EQ(rr.outcome.served_by, webcache::ServedBy::kClientCache);
}

TEST_F(ClientTest, SecondQueryIsClientCacheHit) {
  MakeStack();
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"g":1})")).ok());
  (void)client_->ExecuteQuery(Q("t", R"({"g":1})"));
  QueryResult qr = client_->ExecuteQuery(Q("t", R"({"g":1})"));
  EXPECT_EQ(qr.outcome.served_by, webcache::ServedBy::kClientCache);
  EXPECT_EQ(qr.docs.size(), 1u);  // docs parsed from the cached body
}

TEST_F(ClientTest, EbfTriggersRevalidationAfterRemoteWrite) {
  ClientOptions copts;
  copts.ebf_refresh_interval = 10 * kSecond;
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());
  (void)client_->Read("t", "1");  // cached

  // Another client updates the record.
  auto other = OtherClient();
  clock_.Advance(1 * kSecond);
  db::Update u;
  u.Set("x", db::Value(2));
  ASSERT_TRUE(other->Update("t", "1", u).ok());

  // Our cached copy is stale, but the EBF is 1 s old and does not know
  // yet → stale read possible (bounded by ∆).
  clock_.Advance(1 * kSecond);
  ReadResult stale = client_->Read("t", "1");
  EXPECT_EQ(stale.doc.Find("x")->as_int(), 1);

  // Refresh the EBF: the flagged key now forces a revalidation.
  client_->RefreshEbf();
  ReadResult fresh = client_->Read("t", "1");
  EXPECT_TRUE(fresh.outcome.revalidated);
  EXPECT_EQ(fresh.doc.Find("x")->as_int(), 2);
}

TEST_F(ClientTest, DeltaAtomicityBound) {
  // Staleness never exceeds ∆ = the EBF refresh interval: after ∆ passes,
  // the next read is promoted to a revalidation and must see fresh data.
  ClientOptions copts;
  copts.ebf_refresh_interval = 5 * kSecond;
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());
  (void)client_->Read("t", "1");

  auto other = OtherClient();
  clock_.Advance(1 * kSecond);
  db::Update u;
  u.Set("x", db::Value(2));
  ASSERT_TRUE(other->Update("t", "1", u).ok());

  // ∆ elapses → automatic refresh on the next request.
  clock_.Advance(5 * kSecond);
  ReadResult r = client_->Read("t", "1");
  EXPECT_TRUE(r.outcome.ebf_refreshed);
  EXPECT_EQ(r.doc.Find("x")->as_int(), 2);
}

TEST_F(ClientTest, WhitelistAvoidsRepeatedRevalidation) {
  ClientOptions copts;
  copts.ebf_refresh_interval = 100 * kSecond;
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());
  (void)client_->Read("t", "1");
  auto other = OtherClient();
  clock_.Advance(1 * kSecond);
  db::Update u;
  u.Set("x", db::Value(2));
  ASSERT_TRUE(other->Update("t", "1", u).ok());
  client_->RefreshEbf();
  ReadResult r1 = client_->Read("t", "1");
  EXPECT_TRUE(r1.outcome.revalidated);
  // The key is whitelisted after revalidation; the next read within the
  // same EBF generation is served from cache.
  ReadResult r2 = client_->Read("t", "1");
  EXPECT_FALSE(r2.outcome.revalidated);
  EXPECT_EQ(r2.outcome.served_by, webcache::ServedBy::kClientCache);
  EXPECT_EQ(r2.doc.Find("x")->as_int(), 2);
}

TEST_F(ClientTest, ReadYourWrites) {
  MakeStack();
  ASSERT_TRUE(client_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  db::Update u;
  u.Set("x", db::Value(42));
  ASSERT_TRUE(client_->Update("t", "1", u).ok());
  ReadResult r = client_->Read("t", "1");
  EXPECT_EQ(r.doc.Find("x")->as_int(), 42);
  EXPECT_EQ(r.outcome.served_by, webcache::ServedBy::kClientCache);
}

TEST_F(ClientTest, DeleteDropsOwnCacheEntry) {
  MakeStack();
  ASSERT_TRUE(client_->Insert("t", "1", Doc(R"({"x":1})")).ok());
  ASSERT_TRUE(client_->Delete("t", "1").ok());
  EXPECT_TRUE(client_->Read("t", "1").status.IsNotFound());
}

TEST_F(ClientTest, MonotonicReadsRevalidateOnRegression) {
  ClientOptions copts;
  copts.ebf_refresh_interval = 1000 * kSecond;  // effectively static EBF
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());

  // Session sees version 2 via its own write.
  db::Update u;
  u.Set("x", db::Value(2));
  ASSERT_TRUE(client_->Update("t", "1", u).ok());

  // Simulate a cache serving the OLD version (e.g. a different edge):
  // poison the browser cache with version 1.
  browser_->Put("t/1", Doc(R"({"x":1})").ToJson(), /*etag=*/1,
                100 * kSecond);
  ReadResult r = client_->Read("t", "1");
  // The regression is detected and revalidated away.
  EXPECT_TRUE(r.outcome.revalidated);
  EXPECT_EQ(r.version, 2u);
  EXPECT_EQ(r.doc.Find("x")->as_int(), 2);
}

TEST_F(ClientTest, StrongConsistencyAlwaysRevalidates) {
  ClientOptions copts;
  copts.consistency = ConsistencyLevel::kStrong;
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());
  for (int i = 0; i < 3; ++i) {
    ReadResult r = client_->Read("t", "1");
    EXPECT_TRUE(r.outcome.revalidated);
    EXPECT_EQ(r.outcome.served_by, webcache::ServedBy::kOrigin);
  }
  EXPECT_EQ(client_->stats().revalidations, 3u);
}

TEST_F(ClientTest, StrongConsistencySeesLatestAlways) {
  ClientOptions copts;
  copts.consistency = ConsistencyLevel::kStrong;
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());
  (void)client_->Read("t", "1");
  auto other = OtherClient();
  db::Update u;
  u.Set("x", db::Value(2));
  ASSERT_TRUE(other->Update("t", "1", u).ok());
  EXPECT_EQ(client_->Read("t", "1").doc.Find("x")->as_int(), 2);
}

TEST_F(ClientTest, CausalModeRevalidatesAfterFreshRead) {
  ClientOptions copts;
  copts.consistency = ConsistencyLevel::kCausal;
  copts.ebf_refresh_interval = 1000 * kSecond;
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());
  ASSERT_TRUE(db_.Insert("t", "2", Doc(R"({"y":1})")).ok());
  // First read misses → origin → data newer than the EBF observed.
  ReadResult r1 = client_->Read("t", "1");
  EXPECT_EQ(r1.outcome.served_by, webcache::ServedBy::kOrigin);
  // Subsequent reads must revalidate until the EBF is refreshed.
  ReadResult r2 = client_->Read("t", "2");
  EXPECT_TRUE(r2.outcome.revalidated);
  client_->RefreshEbf();
  // After refresh, cached reads are allowed again.
  ReadResult r3 = client_->Read("t", "1");
  EXPECT_FALSE(r3.outcome.revalidated);
}

TEST_F(ClientTest, RevalidateAtCdnServesFromCdn) {
  ClientOptions copts;
  copts.revalidate_at_cdn = true;
  copts.ebf_refresh_interval = 100 * kSecond;
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());
  (void)client_->Read("t", "1");  // warm CDN + browser
  auto other = OtherClient();
  clock_.Advance(1 * kSecond);
  db::Update u;
  u.Set("x", db::Value(2));
  ASSERT_TRUE(other->Update("t", "1", u).ok());  // purges CDN synchronously
  // Re-warm the CDN with the fresh version via the other client.
  (void)other->Read("t", "1");
  client_->RefreshEbf();
  ReadResult r = client_->Read("t", "1");
  EXPECT_TRUE(r.outcome.revalidated);
  EXPECT_EQ(r.outcome.served_by, webcache::ServedBy::kInvalidationCache);
  EXPECT_EQ(r.doc.Find("x")->as_int(), 2);
}

TEST_F(ClientTest, IdListQueryAssemblesFromRecords) {
  core::ServerOptions sopts;
  sopts.representation = core::RepresentationPolicy::kAlwaysIdList;
  MakeStack(ClientOptions(), sopts);
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"g":1,"x":"a"})")).ok());
  ASSERT_TRUE(db_.Insert("t", "2", Doc(R"({"g":1,"x":"b"})")).ok());
  QueryResult qr = client_->ExecuteQuery(Q("t", R"({"g":1})"));
  ASSERT_TRUE(qr.status.ok());
  EXPECT_EQ(qr.representation, ttl::ResultRepresentation::kIdList);
  ASSERT_EQ(qr.docs.size(), 2u);
  EXPECT_EQ(qr.ids, (std::vector<std::string>{"t/1", "t/2"}));
  // Latency includes the query plus the parallel record fetches.
  EXPECT_GT(qr.outcome.latency_ms, 145.0);
}

TEST_F(ClientTest, EbfAgeAndAutoRefresh) {
  ClientOptions copts;
  copts.ebf_refresh_interval = 2 * kSecond;
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());
  EXPECT_EQ(client_->EbfAge(), 0);
  clock_.Advance(3 * kSecond);
  EXPECT_EQ(client_->EbfAge(), 3 * kSecond);
  ReadResult r = client_->Read("t", "1");
  EXPECT_TRUE(r.outcome.ebf_refreshed);
  EXPECT_EQ(client_->EbfAge(), 0);
  EXPECT_EQ(client_->stats().ebf_refreshes, 1u);
}

TEST_F(ClientTest, StatsAccumulate) {
  MakeStack();
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());
  (void)client_->Read("t", "1");
  (void)client_->Read("t", "1");
  (void)client_->ExecuteQuery(Q("t", R"({"x":1})"));
  ASSERT_TRUE(client_->Insert("t", "2", Doc("{}")).ok());
  const ClientStats s = client_->stats();
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.queries, 1u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.client_cache_hits, 1u);
  EXPECT_GE(s.origin_fetches, 2u);
}

TEST_F(ClientTest, NoEbfModeSkipsStaleChecks) {
  ClientOptions copts;
  copts.use_ebf = false;
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"x":1})")).ok());
  (void)client_->Read("t", "1");
  ReadResult r = client_->Read("t", "1");
  EXPECT_FALSE(r.outcome.revalidated);
  EXPECT_EQ(r.outcome.served_by, webcache::ServedBy::kClientCache);
}

}  // namespace
}  // namespace quaestor::client

namespace quaestor::client {
namespace {

db::Value Doc2(const char* json) {
  auto v = db::Value::FromJson(json);
  EXPECT_TRUE(v.ok());
  return v.value();
}

// Regression: a session's own-write cache entry must be covered by the
// EBF. The write response is cacheable (the writer keeps it for
// read-your-writes), so the server must track an issued TTL for it —
// otherwise a subsequent foreign write cannot flag the key and the
// writer's session violates ∆-atomicity for up to kOwnWriteTtl.
TEST(OwnWriteCoverageTest, ForeignWriteFlagsOwnWriteCacheEntry) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::QuaestorServer server(&clock, &db);
  webcache::ExpirationCache cache_a(&clock);
  webcache::ExpirationCache cache_b(&clock);
  ClientOptions copts;
  copts.ebf_refresh_interval = 2 * kMicrosPerSecond;
  QuaestorClient alice(&clock, &server, &cache_a, nullptr, copts);
  QuaestorClient bob(&clock, &server, &cache_b, nullptr, copts);
  alice.Connect();
  bob.Connect();

  // Alice writes and keeps her own copy (never read through the server).
  ASSERT_TRUE(alice.Insert("t", "x", Doc2(R"({"v":1})")).ok());
  clock.Advance(1 * kMicrosPerSecond);

  // Bob overwrites.
  db::Update u;
  u.Set("v", db::Value(2));
  ASSERT_TRUE(bob.Update("t", "x", u).ok());

  // The EBF must flag the key: Alice's own-write copy is out there.
  EXPECT_TRUE(server.ebf().IsStale("t/x"));

  // After ∆, Alice's read must revalidate and see v2.
  clock.Advance(2 * kMicrosPerSecond);
  auto r = alice.Read("t", "x");
  EXPECT_EQ(r.doc.Find("v")->as_int(), 2);
}

// ---------------------------------------------------------------------------
// Retry backoff and budget edge cases
// ---------------------------------------------------------------------------

// Regression: the exponential backoff was clamped only AFTER narrowing
// the double-domain product to Micros. With a max_backoff near the
// int64 ceiling the cast itself overflowed (undefined behaviour — in
// practice INT64_MIN), charging a huge *negative* wait to the response
// latency instead of capping the backoff.
TEST_F(ClientTest, BackoffClampSurvivesHugeMaxBackoff) {
  ClientOptions copts;
  copts.retry.enabled = true;
  copts.retry.max_attempts = 40;
  copts.retry.initial_backoff = kSecond;
  copts.retry.multiplier = 8.0;
  copts.retry.max_backoff = std::numeric_limits<Micros>::max();
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "x", Doc(R"({"v":1})")).ok());
  server_->SetUnavailable(true);
  ReadResult r = client_->Read("t", "x");
  EXPECT_TRUE(r.status.IsUnavailable());
  EXPECT_EQ(client_->stats().retries, 39u);
  // Every backoff wait must come out non-negative and capped.
  EXPECT_GE(r.outcome.latency_ms, 0.0);
}

// Regression: with a fractional retry budget (0 < budget < 1) the
// refill-on-success was capped at the budget itself, so the bucket could
// never accumulate one whole token and retries stayed suppressed forever
// — even against a healthy backend.
TEST_F(ClientTest, FractionalBudgetRefillsToWholeToken) {
  ClientOptions copts;
  copts.retry.enabled = true;
  copts.retry.max_attempts = 2;
  copts.retry.retry_budget = 0.5;
  copts.retry.budget_refill_per_success = 0.25;
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "x", Doc(R"({"v":1})")).ok());

  // Half a token cannot fund a retry.
  server_->SetUnavailable(true);
  (void)client_->Read("t", "x");
  EXPECT_EQ(client_->stats().retries, 0u);
  EXPECT_EQ(client_->stats().retries_suppressed, 1u);

  // A healthy stretch refills to one whole token (bucket capacity is
  // max(budget, 1.0), not the fractional budget).
  server_->SetUnavailable(false);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client_->Read("t", "x").status.ok());
  }
  EXPECT_DOUBLE_EQ(client_->retry_tokens(), 1.0);

  // ...which funds exactly one retry on the next outage. (Drop the
  // warmed copies so the read actually reaches the origin.)
  browser_->Remove("t/x");
  cdn_->Purge("t/x");
  server_->SetUnavailable(true);
  (void)client_->Read("t", "x");
  EXPECT_EQ(client_->stats().retries, 1u);
}

// Pinning: every successful fetch refills the retry budget — including a
// 304 revalidation and a flagged stale-serve under overload. Both are ok
// outcomes and must share the refill site with plain 200s.
TEST_F(ClientTest, RevalidationAndStaleServeSuccessesRefillBudget) {
  ClientOptions copts;
  copts.consistency = ConsistencyLevel::kStrong;
  copts.retry.enabled = true;
  copts.retry.max_attempts = 2;
  copts.retry.retry_budget = 4.0;
  copts.retry.budget_refill_per_success = 0.5;
  MakeStack(copts);
  ASSERT_TRUE(db_.Insert("t", "x", Doc(R"({"v":1})")).ok());

  // Burn one token so the refills below are observable under the cap.
  server_->SetUnavailable(true);
  (void)client_->Read("t", "x");
  EXPECT_DOUBLE_EQ(client_->retry_tokens(), 3.0);
  server_->SetUnavailable(false);

  // A plain 200 refills...
  ASSERT_TRUE(client_->Read("t", "x").status.ok());
  EXPECT_DOUBLE_EQ(client_->retry_tokens(), 3.5);

  // ...and so does a strong-consistency 304 revalidation.
  const uint64_t revalidated = server_->stats().not_modified;
  ASSERT_TRUE(client_->Read("t", "x").status.ok());
  EXPECT_GT(server_->stats().not_modified, revalidated);
  EXPECT_DOUBLE_EQ(client_->retry_tokens(), 4.0);

  // Stale-serve leg: a second session with an impossible deadline and a
  // sub-token budget. The CDN is purged, so its retained copy can only
  // answer via the stale-serve path — each flagged success must refill
  // until the bucket holds one whole token.
  ClientOptions sopts;
  sopts.retry.enabled = true;
  sopts.retry.max_attempts = 2;
  sopts.retry.retry_budget = 0.5;
  sopts.retry.budget_refill_per_success = 0.25;
  sopts.request_deadline = 1 * kMicrosPerMilli;
  sopts.stale_serve.enabled = true;
  sopts.stale_serve.max_age = 3600 * kSecond;
  auto other = OtherClient(sopts);
  cdn_->Purge("t/x");
  for (int i = 0; i < 3; ++i) {
    ReadResult sr = other->Read("t", "x");
    ASSERT_TRUE(sr.status.ok());
    EXPECT_TRUE(sr.outcome.served_stale_on_shed);
  }
  EXPECT_DOUBLE_EQ(other->retry_tokens(), 1.0);
}

/// An in-process backend whose server can be swapped (an origin restart)
/// and which counts query-shape registrations.
class CountingBackend final : public Backend, public webcache::Origin {
 public:
  explicit CountingBackend(core::QuaestorServer* server) : server_(server) {}

  void set_server(core::QuaestorServer* server) { server_ = server; }
  int registrations() const { return registrations_; }

  webcache::Origin* origin() override { return this; }
  webcache::HttpResponse Fetch(const webcache::HttpRequest& request) override {
    return server_->Fetch(request);
  }
  ebf::BloomFilter BloomSnapshot() override {
    return server_->BloomSnapshot();
  }
  ebf::BloomFilter BloomSnapshotForTable(const std::string& table) override {
    return server_->BloomSnapshotForTable(table);
  }
  void RegisterQueryShape(const db::Query& query) override {
    ++registrations_;
    server_->RegisterQueryShape(query);
  }
  Result<db::Document> Insert(const std::string& auth_token,
                              const std::string& table, const std::string& id,
                              db::Value body,
                              const RequestContext& ctx) override {
    return LocalBackend(server_).Insert(auth_token, table, id,
                                        std::move(body), ctx);
  }
  Result<db::Document> Update(const std::string& auth_token,
                              const std::string& table, const std::string& id,
                              const db::Update& update,
                              const RequestContext& ctx) override {
    return LocalBackend(server_).Update(auth_token, table, id, update, ctx);
  }
  Result<db::Document> Delete(const std::string& auth_token,
                              const std::string& table, const std::string& id,
                              const RequestContext& ctx) override {
    return LocalBackend(server_).Delete(auth_token, table, id, ctx);
  }

 private:
  core::QuaestorServer* server_;
  int registrations_ = 0;
};

TEST_F(ClientTest, RepeatedQueryRegistersItsShapeOnce) {
  MakeStack();
  CountingBackend backend(server_.get());
  QuaestorClient client(&clock_, &backend, browser_.get(), cdn_.get());
  client.Connect();
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"g":1})")).ok());
  for (int i = 0; i < 3; ++i) {
    QueryResult qr = client.ExecuteQuery(Q("t", R"({"g":1})"));
    ASSERT_TRUE(qr.status.ok());
    EXPECT_EQ(qr.docs.size(), 1u);
    EXPECT_EQ(qr.outcome.served_by, i == 0 ? webcache::ServedBy::kOrigin
                                           : webcache::ServedBy::kClientCache);
  }
  EXPECT_EQ(backend.registrations(), 1);
  ASSERT_TRUE(client.ExecuteQuery(Q("t", R"({"g":2})")).status.ok());
  EXPECT_EQ(backend.registrations(), 2);
}

TEST_F(ClientTest, KnownShapeIsRegisteredAgainWithAFreshOrigin) {
  MakeStack();
  CountingBackend backend(server_.get());
  // No caches: every query reaches the origin.
  QuaestorClient client(&clock_, &backend, nullptr, nullptr);
  client.Connect();
  ASSERT_TRUE(db_.Insert("t", "1", Doc(R"({"g":1})")).ok());
  ASSERT_TRUE(client.ExecuteQuery(Q("t", R"({"g":1})")).status.ok());
  ASSERT_EQ(backend.registrations(), 1);

  // A restarted origin over the same data has never seen the shape.
  core::QuaestorServer fresh(&clock_, &db_);
  backend.set_server(&fresh);
  QueryResult qr = client.ExecuteQuery(Q("t", R"({"g":1})"));
  ASSERT_TRUE(qr.status.ok());
  ASSERT_EQ(qr.docs.size(), 1u);
  EXPECT_EQ(qr.docs[0].Find("g")->as_int(), 1);
  EXPECT_EQ(qr.outcome.served_by, webcache::ServedBy::kOrigin);
  EXPECT_EQ(backend.registrations(), 2);
  // Registered again, the shape is known to the new origin too.
  ASSERT_TRUE(client.ExecuteQuery(Q("t", R"({"g":1})")).status.ok());
  EXPECT_EQ(backend.registrations(), 2);
}

}  // namespace
}  // namespace quaestor::client
