// End-to-end loopback integration tests for the real-socket serving
// layer: a QuaestorClient speaking HTTP/1.1 to a NetServer over
// 127.0.0.1, with the InvaliDB data path bridged to a NetWorker over
// the length-prefixed TCP frame protocol and CDN purges fanned out to a
// socket subscriber — the full client → HTTP server → InvaliDB-over-TCP
// → notification → CDN purge path, checked by the consistency oracle.
//
// Everything binds ephemeral ports (the port-collision-safe fixture),
// and all timing is real: SystemClock, actual sockets, event-loop
// threads. Freshness waits poll with generous deadlines instead of
// assuming scheduling latencies.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check/oracle.h"
#include "client/client.h"
#include "common/clock.h"
#include "core/server.h"
#include "db/database.h"
#include "db/update.h"
#include "net/event_loop.h"
#include "net/http_client.h"
#include "net/queue_bridge.h"
#include "net/service.h"
#include "webcache/web_cache.h"

namespace quaestor::net {
namespace {

bool WaitFor(const std::function<bool()>& cond, int64_t timeout_ms = 10000) {
  const int64_t deadline = EventLoop::MonotonicNow() + timeout_ms * 1000;
  while (EventLoop::MonotonicNow() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

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

/// Remote InvaliDB over a real TCP link that the tests are allowed to
/// sever: the reliable layer retransmits registrations / notifications.
NetOptions LoopbackOptions() {
  NetOptions nopts;
  nopts.enabled = true;
  nopts.remote_invalidb = true;
  nopts.reconnect_backoff = 5 * kMicrosPerMilli;
  nopts.transport.reliable.retransmit_timeout = 30 * kMicrosPerMilli;
  return nopts;
}

/// The whole deployment on loopback: origin + HTTP front-end + frame
/// hub in one process "node", a matching worker dialed in over TCP, a
/// remote CDN fed purges over the wire, and HTTP-backed SDK sessions.
class LoopbackStack : public ::testing::Test {
 protected:
  LoopbackStack() : db_(&clock_), nopts_(LoopbackOptions()) {}

  void Start(Micros delta = 100 * kMicrosPerMilli) {
    server_ = std::make_unique<core::QuaestorServer>(&clock_, &db_,
                                                     core::ServerOptions());
    server_->AddNotificationTap(
        [this](const std::vector<invalidb::Notification>& batch) {
          std::lock_guard<std::mutex> lock(seen_mu_);
          notified_.insert(notified_.end(), batch.begin(), batch.end());
        });

    // Oracle listens to the raw commit stream. Commits happen on the
    // server's event-loop thread while checks run on the test thread,
    // so every oracle touch goes through oracle_mu_.
    check::OracleOptions oopts;
    // The clients revalidate after `delta`; the asserted bound is looser
    // so CI scheduling jitter cannot fake a violation. Freshness is
    // asserted separately by the explicit convergence waits below.
    oopts.delta = 2 * kMicrosPerSecond;
    oracle_ = std::make_unique<check::ConsistencyOracle>(&clock_, &db_, oopts);
    db_.AddChangeListener([this](const db::ChangeEvent& ev) {
      std::lock_guard<std::mutex> lock(oracle_mu_);
      oracle_->OnCommit(ev);
    });

    net_ = std::make_unique<NetServer>(&clock_, server_.get(), nopts_);
    ASSERT_TRUE(net_->Start());
    ASSERT_NE(net_->http_port(), 0);
    ASSERT_NE(net_->frame_port(), 0);

    worker_ = std::make_unique<NetWorker>(&clock_, net_->frame_port(), nopts_);
    ASSERT_TRUE(worker_->Start());

    // The "CDN node": an invalidation cache on the far side of the
    // frame protocol, purged by the origin's fan-out channel.
    cdn_ = std::make_unique<webcache::InvalidationCache>(&clock_);
    ASSERT_TRUE(purge_loop_.Start());
    purge_client_ = std::make_unique<FrameClient>(
        &purge_loop_, net_->frame_port(), 5 * kMicrosPerMilli);
    purge_client_->Subscribe("purge", [this](const Frame& f) {
      cdn_->Purge(f.payload);
      std::lock_guard<std::mutex> lock(seen_mu_);
      purged_.emplace_back(f.payload, EventLoop::MonotonicNow());
    });
    purge_client_->Connect();

    // Worker + purge subscriber both dialed in and subscribed: the hub
    // counts a peer only once its subscription is installed, so nothing
    // sent from here on waits for a retransmit.
    ASSERT_TRUE(WaitFor([this] { return net_->hub()->connections() == 2; }));
    delta_ = delta;
  }

  /// One browser session over its own HTTP connection.
  std::unique_ptr<client::QuaestorClient> Session(
      std::unique_ptr<webcache::ExpirationCache>* browser_out,
      std::unique_ptr<HttpBackend>* backend_out) {
    *backend_out = std::make_unique<HttpBackend>(net_->http_port());
    *browser_out = std::make_unique<webcache::ExpirationCache>(&clock_);
    client::ClientOptions copts;
    copts.ebf_refresh_interval = delta_;
    auto c = std::make_unique<client::QuaestorClient>(
        &clock_, backend_out->get(), browser_out->get(), cdn_.get(), copts);
    c->Connect();
    return c;
  }

  void TearDown() override {
    if (purge_client_) purge_client_->Close();
    purge_loop_.Stop();
    if (worker_) worker_->Stop();
    if (net_) net_->Stop();
  }

  /// Inserts t/0 .. t/<n-1> with g = 0 and registers the query g == 1
  /// over the wire. Moving a record in (MoveIn) then changes the query's
  /// result, so each such write yields one notification.
  void RegisterQueryOver(client::QuaestorClient* c, int n) {
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(c->Insert("t", std::to_string(i), Doc(R"({"g":0})")).ok());
    }
    EXPECT_TRUE(c->ExecuteQuery(Q("t", R"({"g":1})")).status.ok());
  }

  static void MoveIn(client::QuaestorClient* c, int i) {
    db::Update u;
    u.Set("g", db::Value(1));
    ASSERT_TRUE(c->Update("t", std::to_string(i), u).ok());
  }

  size_t Notified() {
    std::lock_guard<std::mutex> lock(seen_mu_);
    return notified_.size();
  }

  /// MoveIn, then waits for its notification and for the purge of the
  /// query key it names to reach the CDN node over the socket. Returns
  /// when that purge arrived (monotonic us), or -1 on timeout.
  int64_t MoveInAndAwaitPurge(client::QuaestorClient* c, int i) {
    const size_t notified = Notified();
    MoveIn(c, i);
    if (!WaitFor([&] { return Notified() > notified; })) return -1;
    int64_t purged_at = -1;
    const bool purged = WaitFor([&] {
      std::lock_guard<std::mutex> lock(seen_mu_);
      const std::string& key = notified_.back().query_key;
      size_t purges = 0;
      for (const auto& [purged_key, at] : purged_) {
        if (purged_key != key) continue;
        ++purges;
        purged_at = at;
      }
      return purges >= notified_.size();
    });
    return purged ? purged_at : -1;
  }

  void CheckRecordWritesReadsAndInvalidation() {
    std::unique_ptr<webcache::ExpirationCache> b1, b2;
    std::unique_ptr<HttpBackend> be1, be2;
    auto c1 = Session(&b1, &be1);
    auto c2 = Session(&b2, &be2);

    // Write through HTTP, then read-your-writes from the session cache.
    ASSERT_TRUE(c1->Insert("t", "1", Doc(R"({"x":1})")).ok());
    client::ReadResult r1 = c1->Read("t", "1");
    ASSERT_TRUE(r1.status.ok());
    EXPECT_EQ(r1.doc.Find("x")->as_int(), 1);
    {
      std::lock_guard<std::mutex> lock(oracle_mu_);
      oracle_->CheckRead("c1", "t/1", r1.status.ok(), r1.version);
    }

    // A second session's cold read crosses the wire to the origin and
    // warms the shared CDN.
    client::ReadResult r2 = c2->Read("t", "1");
    ASSERT_TRUE(r2.status.ok());
    EXPECT_EQ(r2.doc.Find("x")->as_int(), 1);
    {
      std::lock_guard<std::mutex> lock(oracle_mu_);
      oracle_->CheckRead("c2", "t/1", r2.status.ok(), r2.version);
    }

    // c1 updates; the origin's purge crosses the frame protocol to the
    // CDN node, and c2 converges once its EBF window forces a
    // revalidation. Every intermediate read is oracle-checked.
    db::Update u;
    u.Set("x", db::Value(2));
    auto updated = c1->Update("t", "1", u);
    ASSERT_TRUE(updated.ok());
    const uint64_t fresh_version = updated.value().version;

    ASSERT_TRUE(WaitFor([&] {
      client::ReadResult r = c2->Read("t", "1");
      {
        std::lock_guard<std::mutex> lock(oracle_mu_);
        oracle_->CheckRead("c2", "t/1", r.status.ok(), r.version);
      }
      return r.status.ok() && r.version >= fresh_version;
    }));
    // The purge really arrived over the socket (origin-side fan-out → the
    // subscribed CDN), not just via TTL expiry.
    EXPECT_TRUE(WaitFor([&] { return cdn_->PurgeCount() > 0; }));
    ExpectNoViolations();
  }

  void CheckQueryNotificationFlows() {
    std::unique_ptr<webcache::ExpirationCache> b1, b2;
    std::unique_ptr<HttpBackend> be1, be2;
    auto c1 = Session(&b1, &be1);
    auto c2 = Session(&b2, &be2);

    ASSERT_TRUE(c1->Insert("t", "1", Doc(R"({"g":1})")).ok());
    ASSERT_TRUE(c1->Insert("t", "2", Doc(R"({"g":2})")).ok());

    const db::Query q = Q("t", R"({"g":1})");
    {
      std::lock_guard<std::mutex> lock(oracle_mu_);
      oracle_->TrackQuery(q);
    }

    // First execution registers the query with the matching cluster over
    // the frame link; the reliable layer retransmits it past a slow
    // worker handshake.
    client::QueryResult qr = c1->ExecuteQuery(q);
    ASSERT_TRUE(qr.status.ok());
    EXPECT_EQ(qr.ids.size(), 1u);
    {
      std::lock_guard<std::mutex> lock(oracle_mu_);
      oracle_->CheckQuery("c1", q, qr.status.ok(), qr.etag, qr.representation);
    }

    // A write that moves t/2 into the result: the change event travels
    // origin → worker over TCP, the match comes back as a notification,
    // and the origin purges the cached result. Poll until both sessions
    // observe the two-element result.
    db::Update u;
    u.Set("g", db::Value(1));
    ASSERT_TRUE(c2->Update("t", "2", u).ok());

    for (auto* session : {c1.get(), c2.get()}) {
      const char* name = session == c1.get() ? "c1" : "c2";
      ASSERT_TRUE(WaitFor([&] {
        client::QueryResult r = session->ExecuteQuery(q);
        {
          std::lock_guard<std::mutex> lock(oracle_mu_);
          oracle_->CheckQuery(name, q, r.status.ok(), r.etag,
                              r.representation);
        }
        return r.status.ok() && r.ids.size() == 2;
      })) << name;
    }

    // The notification data path really ran remotely: the worker's
    // cluster did the matching on the far side of the socket, and its
    // notification reached the server.
    EXPECT_TRUE(WaitFor([&] { return Notified() > 0; }));
    EXPECT_GT(worker_->bridged_kv()->deliveries(), 0u);
    EXPECT_GT(net_->bridged_kv()->deliveries(), 0u);
    ExpectNoViolations();
  }

  void CheckConditionalFetchRevalidates() {
    std::unique_ptr<webcache::ExpirationCache> b1;
    std::unique_ptr<HttpBackend> be1;
    auto c1 = Session(&b1, &be1);
    ASSERT_TRUE(c1->Insert("t", "1", Doc(R"({"x":1})")).ok());

    // Unconditional fetch yields the body + etag; revalidating with that
    // etag yields 304 with no body — the exact webcache::http.h contract,
    // over a real socket.
    HttpBackend direct(net_->http_port());
    webcache::HttpRequest req;
    req.key = "t/1";
    webcache::HttpResponse full = direct.Fetch(req);
    {
      std::lock_guard<std::mutex> lock(oracle_mu_);
      oracle_->CheckRead("direct", "t/1", full.ok, full.etag);
    }
    ASSERT_TRUE(full.ok);
    ASSERT_NE(full.etag, 0u);
    EXPECT_FALSE(full.body.empty());
    EXPECT_GT(full.ttl, 0);
    EXPECT_GT(full.last_modified, 0);

    req.has_if_none_match = true;
    req.if_none_match = full.etag;
    webcache::HttpResponse revalidated = direct.Fetch(req);
    EXPECT_TRUE(revalidated.not_modified);
    EXPECT_TRUE(revalidated.body.empty());

    // A missing record is a plain miss, not a transport error.
    webcache::HttpRequest missing;
    missing.key = "t/no-such";
    webcache::HttpResponse miss = direct.Fetch(missing);
    EXPECT_FALSE(miss.ok);
    EXPECT_FALSE(miss.unavailable);
    ExpectNoViolations();
  }

  void ExpectNoViolations() {
    std::lock_guard<std::mutex> lock(oracle_mu_);
    for (const auto& v : oracle_->violations()) {
      ADD_FAILURE() << v.ToString();
    }
    EXPECT_TRUE(oracle_->violations().empty());
  }

  SystemClock clock_;
  db::Database db_;
  NetOptions nopts_;
  Micros delta_ = 100 * kMicrosPerMilli;
  std::unique_ptr<core::QuaestorServer> server_;
  std::mutex oracle_mu_;
  std::unique_ptr<check::ConsistencyOracle> oracle_;
  std::unique_ptr<NetServer> net_;
  std::unique_ptr<NetWorker> worker_;
  std::unique_ptr<webcache::InvalidationCache> cdn_;
  EventLoop purge_loop_;
  std::unique_ptr<FrameClient> purge_client_;
  // What the server's notification tap and the CDN node's purge
  // subscription saw.
  std::mutex seen_mu_;
  std::vector<invalidb::Notification> notified_;
  std::vector<std::pair<std::string, int64_t>> purged_;
};

TEST_F(LoopbackStack, RecordWritesReadsAndInvalidationAcrossTheWire) {
  Start();
  CheckRecordWritesReadsAndInvalidation();
}

TEST_F(LoopbackStack, QueryNotificationFlowsInvalidbOverTcp) {
  Start();
  CheckQueryNotificationFlows();
}

TEST_F(LoopbackStack, ConditionalFetchRevalidatesWith304OverTheWire) {
  Start();
  CheckConditionalFetchRevalidates();
}

TEST_F(LoopbackStack, WriteErrorsCarryExactStatusCodesAcrossHttp) {
  Start();
  std::unique_ptr<webcache::ExpirationCache> b1;
  std::unique_ptr<HttpBackend> be1;
  auto c1 = Session(&b1, &be1);

  // Updating a record that does not exist: the origin's NotFound must
  // survive the HTTP hop as the same status code, not a generic error.
  db::Update u;
  u.Set("x", db::Value(1));
  auto missing = c1->Update("t", "nope", u);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();

  // Duplicate insert surfaces the origin's error code too.
  ASSERT_TRUE(c1->Insert("t", "1", Doc(R"({"x":1})")).ok());
  auto dup = c1->Insert("t", "1", Doc(R"({"x":2})"));
  EXPECT_FALSE(dup.ok());
  EXPECT_FALSE(dup.status().IsUnavailable()) << dup.status().ToString();

  // Delete round-trips ok and the record is gone for readers.
  ASSERT_TRUE(c1->Delete("t", "1").ok());
  ASSERT_TRUE(WaitFor([&] {
    client::ReadResult r = c1->Read("t", "1");
    return !r.status.ok();
  }));
}

// Commit to purge crosses the origin and worker loops without one hand-
// off from another thread: a frame arriving on either loop runs the
// receive path right there (matching on the worker; notification
// handling and purge fan-out on the origin), and every send it triggers
// goes out inline. Only the HTTP client and the CDN node sit on other
// threads, and they talk to the loops over sockets.
TEST_F(LoopbackStack, WritesPostNothingAcrossThreadsToEitherLoop) {
  Start();
  std::unique_ptr<webcache::ExpirationCache> b1;
  std::unique_ptr<HttpBackend> be1;
  auto c1 = Session(&b1, &be1);
  constexpr int kWarmup = 5;
  constexpr int kWrites = 20;
  RegisterQueryOver(c1.get(), kWarmup + kWrites);

  for (int i = 0; i < kWarmup; ++i) {
    ASSERT_GE(MoveInAndAwaitPurge(c1.get(), i), 0) << i;
  }
  const uint64_t server_posts = net_->loop()->cross_thread_posts();
  const uint64_t worker_posts = worker_->loop()->cross_thread_posts();
  for (int i = kWarmup; i < kWarmup + kWrites; ++i) {
    ASSERT_GE(MoveInAndAwaitPurge(c1.get(), i), 0) << i;
  }
  EXPECT_EQ(Notified(), static_cast<size_t>(kWarmup + kWrites));
  EXPECT_EQ(net_->loop()->cross_thread_posts() - server_posts, 0u);
  EXPECT_EQ(worker_->loop()->cross_thread_posts() - worker_posts, 0u);
  ExpectNoViolations();
}

// With change batching on, a lone write has no batch-mates to fill its
// envelope: the origin loop's tick must age it out, so the purge lands
// within a few flush intervals rather than never.
TEST_F(LoopbackStack, BatchedLoneWritePurgesWithinAFewFlushIntervals) {
  const Micros flush_interval = 2 * kMicrosPerMilli;
  nopts_.transport.batching.max_batch = 64;
  nopts_.transport.batching.flush_interval = flush_interval;
  Start();
  std::unique_ptr<webcache::ExpirationCache> b1;
  std::unique_ptr<HttpBackend> be1;
  auto c1 = Session(&b1, &be1);
  constexpr int kWrites = 5;
  RegisterQueryOver(c1.get(), kWrites);

  std::vector<int64_t> latencies;
  for (int i = 0; i < kWrites; ++i) {
    const int64_t start = EventLoop::MonotonicNow();
    const int64_t purged_at = MoveInAndAwaitPurge(c1.get(), i);
    ASSERT_GE(purged_at, 0) << i;
    latencies.push_back(purged_at - start);
  }
  std::sort(latencies.begin(), latencies.end());
  EXPECT_LE(latencies[kWrites / 2], 10 * flush_interval)
      << "median lone-write purge latency (us)";
  EXPECT_EQ(net_->remote()->buffered_changes(), 0u);
}

// The worker's connection drops mid-stream while writes keep coming: the
// changes and notifications shed during the cut are retransmitted from
// the loops' ticks once the worker redials, and the reliable layer's
// dedup keeps every notification to exactly one delivery.
TEST_F(LoopbackStack, WorkerConnectionCutMidStreamNotifiesEachWriteOnce) {
  Start();
  std::unique_ptr<webcache::ExpirationCache> b1;
  std::unique_ptr<HttpBackend> be1;
  auto c1 = Session(&b1, &be1);
  constexpr int kWrites = 30;
  RegisterQueryOver(c1.get(), kWrites);
  // The registration reached the worker before the stream starts.
  ASSERT_TRUE(WaitFor([&] { return net_->remote()->unacked_requests() == 0; }));

  for (int i = 0; i < 10; ++i) MoveIn(c1.get(), i);
  const uint16_t port = net_->frame_port();
  net_->hub()->Close();
  ASSERT_TRUE(WaitFor([&] { return !worker_->frame_client()->connected(); }));
  for (int i = 10; i < 20; ++i) MoveIn(c1.get(), i);
  ASSERT_TRUE(net_->hub()->Listen(port));
  for (int i = 20; i < kWrites; ++i) MoveIn(c1.get(), i);

  ASSERT_TRUE(WaitFor([&] {
    return Notified() >= static_cast<size_t>(kWrites) &&
           net_->remote()->unacked_requests() == 0 &&
           net_->remote()->pending_notifications() == 0;
  }));
  // Let any trailing retransmits land, then assert exactly-once.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::lock_guard<std::mutex> lock(seen_mu_);
  EXPECT_EQ(notified_.size(), static_cast<size_t>(kWrites));
  std::set<std::string> records;
  for (const invalidb::Notification& n : notified_) {
    records.insert(n.record_id);
  }
  EXPECT_EQ(records.size(), static_cast<size_t>(kWrites));
}

// Stops the worker, then the origin, while writes and notifications are
// in flight. Frames run the worker's and the remote's receive paths on
// the loop threads, so each Stop must fence the loop off before the
// objects it calls into are destroyed; the sanitizer builds check it.
TEST(LoopbackShutdownTest, StopWorkerThenServerUnderLoadTwentyTimes) {
  SystemClock clock;
  const NetOptions nopts = LoopbackOptions();
  for (int round = 0; round < 20; ++round) {
    db::Database db(&clock);
    core::QuaestorServer server(&clock, &db, core::ServerOptions());
    std::atomic<uint64_t> notified{0};
    server.AddNotificationTap(
        [&notified](const std::vector<invalidb::Notification>& batch) {
          notified += batch.size();
        });
    auto net = std::make_unique<NetServer>(&clock, &server, nopts);
    ASSERT_TRUE(net->Start());
    auto worker = std::make_unique<NetWorker>(&clock, net->frame_port(), nopts);
    ASSERT_TRUE(worker->Start());
    ASSERT_TRUE(WaitFor([&] { return worker->frame_client()->connected(); }));

    webcache::InvalidationCache cdn(&clock);
    const auto session = [&](HttpBackend* backend,
                             webcache::ExpirationCache* browser) {
      auto c = std::make_unique<client::QuaestorClient>(
          &clock, backend, browser, &cdn, client::ClientOptions());
      c->Connect();
      return c;
    };
    HttpBackend setup_backend(net->http_port());
    webcache::ExpirationCache setup_browser(&clock);
    auto setup = session(&setup_backend, &setup_browser);
    ASSERT_TRUE(setup->Insert("t", "1", Doc(R"({"g":0})")).ok());
    ASSERT_TRUE(setup->ExecuteQuery(Q("t", R"({"g":1})")).status.ok());

    // The writer flips t/1 in and out of the result until told to stop;
    // once the origin is gone its writes fail fast.
    std::atomic<bool> stop{false};
    HttpBackend writer_backend(net->http_port());
    webcache::ExpirationCache writer_browser(&clock);
    auto writer_client = session(&writer_backend, &writer_browser);
    std::thread writer([&] {
      for (int64_t g = 1; !stop.load(); g ^= 1) {
        db::Update u;
        u.Set("g", db::Value(g));
        if (!writer_client->Update("t", "1", u).ok()) {
          std::this_thread::yield();
        }
      }
    });
    EXPECT_TRUE(WaitFor([&] { return notified.load() >= 3; })) << round;
    worker->Stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    net->Stop();
    stop = true;
    writer.join();
    worker.reset();
    net.reset();
  }
}

}  // namespace
}  // namespace quaestor::net
