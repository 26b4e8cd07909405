// Failure-injection and edge-case tests: saturation, shutdown under load,
// degenerate configurations, malformed inputs.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "check/oracle.h"
#include "client/client.h"
#include "common/clock.h"
#include "core/server.h"
#include "db/database.h"
#include "ebf/expiring_bloom_filter.h"
#include "fault/fault_injector.h"
#include "fault/faulty_send.h"
#include "invalidb/cluster.h"
#include "invalidb/transport.h"
#include "sim/simulation.h"
#include "webcache/web_cache.h"

namespace quaestor {
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

// ---------------------------------------------------------------------------
// InvaliDB under stress
// ---------------------------------------------------------------------------

TEST(FailureTest, ThreadedClusterWithTinyQueuesBackpressures) {
  // Queue capacity 2: producers block instead of dropping; every event is
  // still processed exactly once.
  invalidb::InvalidbOptions opts;
  opts.threaded = true;
  opts.query_partitions = 2;
  opts.object_partitions = 1;
  opts.node_queue_capacity = 2;
  std::atomic<int> delivered{0};
  invalidb::InvalidbCluster cluster(
      SystemClock::Default(), opts,
      [&](const std::vector<invalidb::Notification>& batch) {
        delivered += batch.size();
      });
  db::Query q = Q("t", R"({"n":{"$gte":0}})");
  ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());
  cluster.Flush();
  constexpr int kEvents = 300;
  for (int i = 0; i < kEvents; ++i) {
    db::ChangeEvent ev;
    ev.kind = db::WriteKind::kUpdate;
    ev.after.table = "t";
    ev.after.id = "d" + std::to_string(i);
    ev.after.body = Doc(R"({"n":1})");
    cluster.OnChangeBatch({ev});
  }
  cluster.Flush();
  EXPECT_EQ(delivered.load(), kEvents);
}

TEST(FailureTest, DeregisterWhileEventsInFlight) {
  invalidb::InvalidbOptions opts;
  opts.threaded = true;
  std::atomic<int> delivered{0};
  invalidb::InvalidbCluster cluster(
      SystemClock::Default(), opts,
      [&](const std::vector<invalidb::Notification>& batch) {
        delivered += batch.size();
      });
  db::Query q = Q("t", R"({"n":{"$gte":0}})");
  ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());
  std::thread producer([&] {
    for (int i = 0; i < 200; ++i) {
      db::ChangeEvent ev;
      ev.kind = db::WriteKind::kUpdate;
      ev.after.table = "t";
      ev.after.id = "d" + std::to_string(i);
      ev.after.body = Doc(R"({"n":1})");
      cluster.OnChangeBatch({ev});
    }
  });
  cluster.DeregisterQuery(q.NormalizedKey());
  producer.join();
  cluster.Flush();
  // No crash, no hang; deliveries are a prefix of the stream.
  EXPECT_LE(delivered.load(), 200);
}

TEST(FailureTest, ConcurrentRegistrationsAndChanges) {
  invalidb::InvalidbOptions opts;
  opts.threaded = true;
  opts.query_partitions = 4;
  std::atomic<int> delivered{0};
  invalidb::InvalidbCluster cluster(
      SystemClock::Default(), opts,
      [&](const std::vector<invalidb::Notification>& batch) {
        delivered += batch.size();
      });
  std::thread registrar([&] {
    for (int i = 0; i < 50; ++i) {
      db::Query q = Q("t", ("{\"g\":" + std::to_string(i) + "}").c_str());
      (void)cluster.RegisterQuery(q, {});
    }
  });
  std::thread producer([&] {
    for (int i = 0; i < 200; ++i) {
      db::ChangeEvent ev;
      ev.kind = db::WriteKind::kUpdate;
      ev.after.table = "t";
      ev.after.id = "d" + std::to_string(i % 10);
      ev.after.body =
          Doc(("{\"g\":" + std::to_string(i % 50) + "}").c_str());
      cluster.OnChangeBatch({ev});
    }
  });
  registrar.join();
  producer.join();
  cluster.Flush();
  EXPECT_EQ(cluster.RegisteredCount(), 50u);
  // The concurrent phase may legally race to zero deliveries (all events
  // can drain before the first registration installs). One more event
  // after the registrations settled must be delivered.
  db::ChangeEvent ev;
  ev.kind = db::WriteKind::kUpdate;
  ev.after.table = "t";
  ev.after.id = "final";
  ev.after.body = Doc(R"({"g":0})");
  cluster.OnChangeBatch({ev});
  cluster.Flush();
  EXPECT_GT(delivered.load(), 0);
}

// ---------------------------------------------------------------------------
// Server edge cases
// ---------------------------------------------------------------------------

class ServerEdgeTest : public ::testing::Test {
 protected:
  ServerEdgeTest() : clock_(0), db_(&clock_) {
    server_ = std::make_unique<core::QuaestorServer>(&clock_, &db_);
  }
  SimulatedClock clock_;
  db::Database db_;
  std::unique_ptr<core::QuaestorServer> server_;
};

TEST_F(ServerEdgeTest, MalformedKeysAre404) {
  webcache::HttpRequest req;
  req.key = "no-slash-here";
  EXPECT_FALSE(server_->Fetch(req).ok);
  req.key = "";
  EXPECT_FALSE(server_->Fetch(req).ok);
  req.key = "q:unknown?never registered";
  EXPECT_FALSE(server_->Fetch(req).ok);
}

TEST_F(ServerEdgeTest, QueryOnEmptyTableServesEmptyResult) {
  db::Query q = Q("ghost_table", R"({"x":1})");
  server_->RegisterQueryShape(q);
  webcache::HttpRequest req;
  req.key = q.NormalizedKey();
  auto resp = server_->Fetch(req);
  ASSERT_TRUE(resp.ok);
  auto qr = core::QueryResponse::FromJson(resp.body);
  ASSERT_TRUE(qr.ok());
  EXPECT_TRUE(qr->ids.empty());
  EXPECT_GT(resp.ttl, 0);  // empty results are cacheable too
}

TEST_F(ServerEdgeTest, EmptyResultInvalidatedWhenFirstMatchAppears) {
  db::Query q = Q("t", R"({"g":1})");
  server_->RegisterQueryShape(q);
  webcache::HttpRequest req;
  req.key = q.NormalizedKey();
  ASSERT_TRUE(server_->Fetch(req).ok);
  clock_.Advance(kMicrosPerSecond);
  ASSERT_TRUE(server_->Insert("t", "d1", Doc(R"({"g":1})")).ok());
  EXPECT_TRUE(server_->ebf().IsStale(q.NormalizedKey()));
}

TEST_F(ServerEdgeTest, ZeroCapacityIsUnlimited) {
  core::ServerOptions opts;
  opts.query_capacity = 0;
  auto server = std::make_unique<core::QuaestorServer>(&clock_, &db_, opts);
  for (int i = 0; i < 50; ++i) {
    db::Query q =
        Q("t", ("{\"g\":" + std::to_string(i) + "}").c_str());
    server->RegisterQueryShape(q);
    webcache::HttpRequest req;
    req.key = q.NormalizedKey();
    ASSERT_TRUE(server->Fetch(req).ok);
  }
  EXPECT_EQ(server->invalidb().RegisteredCount(), 50u);
}

TEST_F(ServerEdgeTest, DoubleDeleteReportsNotFound) {
  ASSERT_TRUE(server_->Insert("t", "x", Doc("{}")).ok());
  ASSERT_TRUE(server_->Delete("t", "x").ok());
  EXPECT_TRUE(server_->Delete("t", "x").status().IsNotFound());
  EXPECT_TRUE(server_->Update("t", "x", db::Update().Set("a", db::Value(1)))
                  .status()
                  .IsNotFound());
}

// ---------------------------------------------------------------------------
// Client edge cases
// ---------------------------------------------------------------------------

TEST(ClientEdgeTest, ReadBeforeConnectWorksWithoutEbf) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::QuaestorServer server(&clock, &db);
  ASSERT_TRUE(server.Insert("t", "x", Doc(R"({"v":1})")).ok());
  webcache::ExpirationCache cache(&clock);
  client::QuaestorClient c(&clock, &server, &cache, nullptr);
  // No Connect(): the EBF is absent; reads behave like plain HTTP caching.
  auto r = c.Read("t", "x");
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.outcome.revalidated);
}

TEST(ClientEdgeTest, TinyClientCacheStillCorrect) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::QuaestorServer server(&clock, &db);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server
                    .Insert("t", "d" + std::to_string(i),
                            Doc(("{\"n\":" + std::to_string(i) + "}")
                                    .c_str()))
                    .ok());
  }
  webcache::ExpirationCache cache(&clock, /*max_entries=*/2);
  client::QuaestorClient c(&clock, &server, &cache, nullptr);
  c.Connect();
  // Cycle through many keys: evictions galore, values always correct.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      auto r = c.Read("t", "d" + std::to_string(i));
      ASSERT_TRUE(r.status.ok());
      EXPECT_EQ(r.doc.Find("n")->as_int(), i);
    }
  }
  EXPECT_LE(cache.Size(), 2u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ClientEdgeTest, QueryWithEmptyResultRoundTrips) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::QuaestorServer server(&clock, &db);
  webcache::ExpirationCache cache(&clock);
  client::QuaestorClient c(&clock, &server, &cache, nullptr);
  c.Connect();
  auto qr = c.ExecuteQuery(Q("t", R"({"never":"matches"})"));
  ASSERT_TRUE(qr.status.ok());
  EXPECT_TRUE(qr.ids.empty());
  EXPECT_TRUE(qr.docs.empty());
  // Cached: second execution is a client hit.
  auto qr2 = c.ExecuteQuery(Q("t", R"({"never":"matches"})"));
  EXPECT_EQ(qr2.outcome.served_by, webcache::ServedBy::kClientCache);
}

// ---------------------------------------------------------------------------
// EBF degenerate configurations
// ---------------------------------------------------------------------------

TEST(EbfEdgeTest, TinyFilterSaturatesButStaysSafe) {
  SimulatedClock clock(0);
  ebf::BloomParams params;
  params.num_bits = 64;  // absurdly small: will saturate
  params.num_hashes = 2;
  ebf::ExpiringBloomFilter filter(&clock, params);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    filter.ReportRead(key, 10 * kMicrosPerSecond);
    filter.ReportWrite(key);
  }
  // Saturated: everything looks stale (safe), nothing crashes.
  ebf::BloomFilter snap = filter.Snapshot();
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(snap.MaybeContains("k" + std::to_string(i)));
  }
  // After expiry everything drains back to empty.
  clock.Advance(11 * kMicrosPerSecond);
  filter.Maintain();
  EXPECT_EQ(filter.StaleCount(), 0u);
  EXPECT_DOUBLE_EQ(filter.Snapshot().FillRatio(), 0.0);
}

TEST(EbfEdgeTest, ManyWritesToSameKeySingleCounterBalance) {
  SimulatedClock clock(0);
  ebf::ExpiringBloomFilter filter(&clock);
  filter.ReportRead("k", 5 * kMicrosPerSecond);
  for (int i = 0; i < 1000; ++i) filter.ReportWrite("k");
  clock.Advance(6 * kMicrosPerSecond);
  filter.Maintain();
  EXPECT_FALSE(filter.Snapshot().MaybeContains("k"));
  EXPECT_EQ(filter.TrackedCount(), 0u);
}

// ---------------------------------------------------------------------------
// Simulation degenerate configurations
// ---------------------------------------------------------------------------

TEST(SimEdgeTest, ZeroWarmupAndShortDuration) {
  workload::WorkloadOptions w;
  w.num_tables = 1;
  w.docs_per_table = 50;
  w.queries_per_table = 5;
  sim::SimOptions s;
  s.num_client_instances = 1;
  s.connections_per_instance = 2;
  s.duration = SecondsToMicros(2.0);
  s.warmup = 0;
  sim::Simulation simulation(w, s);
  sim::SimResults r = simulation.Run();
  EXPECT_GT(r.total_ops, 0u);
}

TEST(SimEdgeTest, WriteOnlyWorkload) {
  workload::WorkloadOptions w;
  w.num_tables = 1;
  w.docs_per_table = 50;
  w.queries_per_table = 5;
  w.read_weight = 0.0;
  w.query_weight = 0.0;
  w.update_weight = 1.0;
  sim::SimOptions s;
  s.num_client_instances = 1;
  s.connections_per_instance = 2;
  s.duration = SecondsToMicros(5.0);
  s.warmup = SecondsToMicros(1.0);
  sim::Simulation simulation(w, s);
  sim::SimResults r = simulation.Run();
  EXPECT_EQ(r.reads.count, 0u);
  EXPECT_EQ(r.queries.count, 0u);
  EXPECT_GT(r.writes.count, 0u);
}

TEST(SimEdgeTest, RunIsIdempotent) {
  workload::WorkloadOptions w;
  w.num_tables = 1;
  w.docs_per_table = 20;
  w.queries_per_table = 2;
  sim::SimOptions s;
  s.num_client_instances = 1;
  s.connections_per_instance = 1;
  s.duration = SecondsToMicros(2.0);
  s.warmup = 0;
  sim::Simulation simulation(w, s);
  sim::SimResults first = simulation.Run();
  sim::SimResults second = simulation.Run();  // returns cached results
  EXPECT_EQ(first.total_ops, second.total_ops);
}

// ---------------------------------------------------------------------------
// Seeded chaos: the invalidation pipeline under injected faults
// ---------------------------------------------------------------------------

std::string NotificationSignature(const invalidb::Notification& n) {
  return std::to_string(static_cast<int>(n.type)) + "|" + n.query_key + "|" +
         n.record_id + "|" + std::to_string(n.event_time) + "|" +
         std::to_string(n.new_index);
}

db::ChangeEvent ChaosChange(const std::string& id, int g, Micros at) {
  db::ChangeEvent ev;
  ev.kind = db::WriteKind::kUpdate;
  ev.after.table = "posts";
  ev.after.id = id;
  ev.after.body = Doc(("{\"g\":" + std::to_string(g) + "}").c_str());
  ev.after.write_time = at;
  ev.commit_time = at;
  return ev;
}

// Runs one register-then-change script through a remote/worker pair
// joined by loopback links, each endpoint sending through a FaultySend
// driven by `injector`, pumping until the pipeline drains, and returns the
// notification sequence.
std::vector<std::string> RunTransportScript(SimulatedClock* clock,
                                            fault::FaultInjector* injector) {
  invalidb::TransportOptions topts;
  topts.reliable.seed = 0xabc;
  invalidb::LoopbackLink to_worker;
  invalidb::LoopbackLink to_remote;
  fault::FaultySend remote_send(clock, injector, to_worker.sender());
  fault::FaultySend worker_send(clock, injector, to_remote.sender());
  std::vector<std::string> sequence;
  invalidb::InvalidbRemote remote(
      clock, remote_send.sender(), "chaos",
      [&](const std::vector<invalidb::Notification>& batch) {
        for (const invalidb::Notification& n : batch) {
          sequence.push_back(NotificationSignature(n));
        }
      },
      topts);
  invalidb::InvalidbWorker worker(clock, worker_send.sender(), "chaos",
                                  invalidb::InvalidbOptions(), topts);
  to_worker.Attach(&worker);
  to_remote.Attach(&remote);

  db::Query q = Q("posts", R"({"g":{"$gte":1}})");
  remote.RegisterQuery(q, {});
  for (int i = 0; i < 60; ++i) {
    remote.OnChange(ChaosChange("d" + std::to_string(i), 1 + (i % 3),
                                clock->NowMicros()));
    if (i % 4 == 0) clock->Advance(10 * kMicrosPerMilli);
  }

  // Pump until everything converges. Each round releases the due held
  // messages and pumps both links, ticks retransmits, and advances time so
  // retransmit timers and held (delayed) messages fire. Bounded: the
  // schedule is deterministic.
  for (int round = 0; round < 400; ++round) {
    remote_send.Release();
    to_worker.Pump();
    worker_send.Release();
    to_remote.Pump();
    clock->Advance(150 * kMicrosPerMilli);
    worker.Tick();
    remote.Tick();
    const bool drained =
        remote.unacked_requests() == 0 && remote.pending_notifications() == 0 &&
        worker.unacked_notifications() == 0 &&
        to_worker.pending() + to_remote.pending() + remote_send.held_count() +
                worker_send.held_count() ==
            0;
    if (drained && round > 4) break;
  }
  return sequence;
}

TEST(ChaosTest, LossyDuplicatingReorderingChannelConverges) {
  // Reference: perfect channel.
  SimulatedClock ref_clock(0);
  fault::FaultInjector lossless(0);
  const std::vector<std::string> expected =
      RunTransportScript(&ref_clock, &lossless);
  ASSERT_GT(expected.size(), 50u);  // every change matched the query

  // Same script over a channel that drops, duplicates, reorders, and
  // delays — at-least-once delivery plus receiver dedup must reproduce
  // the exact same notification sequence.
  fault::FaultProfile profile;
  profile.drop_rate = 0.10;
  profile.duplicate_rate = 0.10;
  profile.reorder_rate = 0.08;
  profile.delay_rate = 0.05;
  profile.max_delay = 300 * kMicrosPerMilli;
  SimulatedClock clock(0);
  fault::FaultInjector injector(0x5eed, profile);
  const std::vector<std::string> got = RunTransportScript(&clock, &injector);

  EXPECT_EQ(got, expected);
  EXPECT_GT(injector.stats().dropped, 0u);      // faults actually fired
  EXPECT_GT(injector.stats().duplicated, 0u);
}

TEST(ChaosTest, SameSeedSameSchedule) {
  fault::FaultProfile profile;
  profile.drop_rate = 0.15;
  profile.duplicate_rate = 0.15;
  auto run = [&] {
    SimulatedClock clock(0);
    fault::FaultInjector injector(0x77, profile);
    auto seq = RunTransportScript(&clock, &injector);
    return std::make_pair(seq, injector.stats().dropped);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);  // identical fault schedule, not just outcome
}

TEST(ChaosTest, PollerCrashAndRestartLosesNothing) {
  invalidb::LoopbackLink to_worker;
  invalidb::LoopbackLink to_remote;
  std::atomic<int> count{0};
  invalidb::InvalidbRemote remote(
      SystemClock::Default(), to_worker.sender(), "pc",
      [&](const std::vector<invalidb::Notification>& batch) {
        count += batch.size();
      });
  invalidb::InvalidbWorker worker(SystemClock::Default(), to_remote.sender(),
                                  "pc");
  to_worker.Attach(&worker);
  to_remote.Attach(&remote);

  // A background poller pumps the remote until stopped (a crash).
  std::atomic<bool> polling{false};
  std::thread poller;
  const auto start_polling = [&] {
    polling = true;
    poller = std::thread([&] {
      while (polling.load()) {
        to_remote.Pump();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  };
  const auto stop_polling = [&] {
    polling = false;
    poller.join();
  };

  db::Query q = Q("posts", R"({"g":{"$gte":1}})");
  remote.RegisterQuery(q, {});
  start_polling();
  for (int i = 0; i < 10; ++i) {
    remote.OnChange(ChaosChange("a" + std::to_string(i), 1, 0));
  }
  to_worker.Pump();
  // Crash the poller; notifications produced while it is down stay queued.
  stop_polling();
  for (int i = 0; i < 10; ++i) {
    remote.OnChange(ChaosChange("b" + std::to_string(i), 1, 0));
  }
  to_worker.Pump();
  EXPECT_GE(to_remote.pending("pc:notifications"), 10u);
  // Restart: the backlog drains.
  start_polling();
  for (int spin = 0; spin < 1000 && count.load() < 20; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop_polling();
  EXPECT_EQ(count.load(), 20);
}

// ---------------------------------------------------------------------------
// Degraded caching end to end: outage → TTL-capped Δ bound → recovery
// ---------------------------------------------------------------------------

TEST(ChaosTest, OracleWidensBoundWhileDegradedOnly) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  check::OracleOptions options;
  options.delta = MillisToMicros(100.0);
  check::ConsistencyOracle oracle(&clock, &db, options);
  db.AddChangeListener(
      [&](const db::ChangeEvent& ev) { oracle.OnCommit(ev); });

  auto v1 = db.Upsert("t", "x", Doc(R"({"v":1})"));
  ASSERT_TRUE(v1.ok());
  clock.Advance(kMicrosPerSecond);
  auto v2 = db.Upsert("t", "x", Doc(R"({"v":2})"));
  ASSERT_TRUE(v2.ok());

  // v1 is far beyond the 100 ms Δ bound — but a 10 s degraded budget is
  // in force, so serving it is within the degraded contract.
  clock.Advance(5 * kMicrosPerSecond);
  oracle.SetDegraded(true, SecondsToMicros(10.0));
  oracle.CheckRead("s", "t/x", true, v1.value().version);
  EXPECT_TRUE(oracle.violations().empty());
  EXPECT_EQ(oracle.degraded_checks(), 1u);

  // Recovery starts a one-budget grace window for copies issued while
  // degraded...
  oracle.SetDegraded(false, SecondsToMicros(10.0));
  oracle.CheckRead("s", "t/x", true, v1.value().version);
  EXPECT_TRUE(oracle.violations().empty());

  // ...after which the strict bound applies again.
  clock.Advance(SecondsToMicros(11.0));
  oracle.CheckRead("s", "t/x", true, v1.value().version);
  ASSERT_EQ(oracle.violations().size(), 1u);
  EXPECT_EQ(oracle.violations()[0].invariant,
            check::Invariant::kDeltaAtomicity);
}

// Outage → degraded serving → recovery, checked end to end by the oracle.
// With `installed_pipeline` the data path runs through a second cluster
// installed like a remote one (SetPipeline), so recovery must rebuild
// matchers the server's own cluster never sees.
// A record joins the query during the outage (its change event is lost)
// and leaves after recovery: only a matcher rebuilt from the database
// knows it was a member and reports the removal.
void RunPipelineOutage(bool installed_pipeline) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::ServerOptions sopts;
  sopts.degradation.enabled = true;
  sopts.degradation.staleness_budget = 5 * kMicrosPerSecond;
  sopts.degradation.degraded_ttl_cap = 500 * kMicrosPerMilli;
  core::QuaestorServer server(&clock, &db, sopts);

  std::unique_ptr<invalidb::InvalidbCluster> remote_cluster;
  if (installed_pipeline) {
    remote_cluster = std::make_unique<invalidb::InvalidbCluster>(
        &clock, invalidb::InvalidbOptions(),
        [&server](const std::vector<invalidb::Notification>& batch) {
          server.OnNotificationBatch(batch);
        });
    server.SetPipeline(remote_cluster.get());
  }

  check::OracleOptions oopts;
  oopts.delta = SecondsToMicros(1.0);
  check::ConsistencyOracle oracle(&clock, &db, oopts);
  db.AddChangeListener(
      [&](const db::ChangeEvent& ev) { oracle.OnCommit(ev); });

  webcache::ExpirationCache cache(&clock);
  client::ClientOptions copts;
  copts.ebf_refresh_interval = oopts.delta;
  client::QuaestorClient c(&clock, &server, &cache, nullptr, copts);
  c.Connect();

  db::Query q = Q("posts", R"({"g":{"$gte":1}})");
  oracle.TrackQuery(q);
  ASSERT_TRUE(server.Insert("posts", "d1", Doc(R"({"g":1})")).ok());

  auto step = [&](Micros advance) {
    clock.Advance(advance);
    auto rr = c.Read("posts", "d1");
    oracle.CheckRead("s", "posts/d1", rr.status.ok(), rr.version);
    auto qr = c.ExecuteQuery(q);
    oracle.CheckQuery("s", q, qr.status.ok(), qr.etag, qr.representation);
  };

  step(10 * kMicrosPerMilli);  // healthy warm-up serve
  ASSERT_TRUE(oracle.violations().empty());

  // Hard outage: every invalidation is lost. The oracle only demands the
  // degraded budget (which must cover the server's TTL cap + Δ).
  server.SetPipelineDown(true);
  oracle.SetDegraded(true, sopts.degradation.staleness_budget);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        server
            .Update("posts", "d1",
                    db::Update().Set("g", db::Value(int64_t{2 + i})))
            .ok());
    if (i == 5) {
      ASSERT_TRUE(server.Insert("posts", "d2", Doc(R"({"g":1})")).ok());
    }
    step(300 * kMicrosPerMilli);
  }
  EXPECT_TRUE(oracle.violations().empty())
      << oracle.violations()[0].ToString();
  EXPECT_GT(oracle.degraded_checks(), 0u);
  EXPECT_GT(server.stats().change_events_dropped, 0u);
  EXPECT_GT(server.stats().degraded_reads, 0u);

  // Recovery: matchers rebuilt from the database, caches conservatively
  // flagged; after the grace window strict Δ-atomicity holds again.
  server.SetPipelineDown(false);
  oracle.SetDegraded(false);
  clock.Advance(sopts.degradation.staleness_budget + kMicrosPerSecond);
  // Outlive every TTL issued before the recovery, and with them the
  // recovery's conservative EBF flags, which would otherwise force the
  // revalidations that mask a missed notification.
  clock.Advance(sopts.ttl_options.max_ttl);
  step(10 * kMicrosPerMilli);  // re-caches the result, d2 included
  // d2 leaves the result. A matcher that missed its join during the
  // outage sees a non-member stay a non-member and stays silent, so the
  // copy cached above would be served stale past Δ.
  ASSERT_TRUE(server.Update("posts", "d2",
                            db::Update().Set("g", db::Value(int64_t{0})))
                  .ok());
  for (int i = 0; i < 5; ++i) step(300 * kMicrosPerMilli);
  EXPECT_TRUE(oracle.violations().empty())
      << oracle.violations()[0].ToString();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        server
            .Update("posts", "d1",
                    db::Update().Set("g", db::Value(int64_t{50 + i})))
            .ok());
    step(300 * kMicrosPerMilli);
  }
  EXPECT_TRUE(oracle.violations().empty())
      << oracle.violations()[0].ToString();
  EXPECT_FALSE(server.degraded());
}

TEST(ChaosTest, PipelineOutageDegradedCachingStaysWithinBudget) {
  RunPipelineOutage(/*installed_pipeline=*/false);
}

TEST(ChaosTest, PipelineOutageOnInstalledPipelineStaysWithinBudget) {
  RunPipelineOutage(/*installed_pipeline=*/true);
}

// ---------------------------------------------------------------------------
// Overload protection end to end: flash crowd + slow origin + node kill
// ---------------------------------------------------------------------------

workload::WorkloadOptions OverloadWorkload() {
  workload::WorkloadOptions w;
  w.num_tables = 2;
  w.docs_per_table = 60;
  w.queries_per_table = 3;
  w.docs_per_query = 12;
  w.read_weight = 0.66;
  w.query_weight = 0.22;
  w.insert_weight = 0.02;
  w.update_weight = 0.10;
  // No deletes: a delete wipes every tier's copy of a (hot) key, so reads
  // of it during the storm have no stale-retained fallback by design.
  // Delete behaviour under faults is covered by the Monte Carlo chaos test.
  w.delete_weight = 0.0;
  return w;
}

sim::SimOptions OverloadSim(bool protections) {
  sim::SimOptions s;
  s.num_client_instances = 3;
  s.connections_per_instance = 2;
  s.duration = SecondsToMicros(14.0);
  s.warmup = SecondsToMicros(1.0);
  s.seed = 11;
  s.think_time = MillisToMicros(50.0);
  // A single backend worker with a 2 ms service time: ~500 req/s of real
  // capacity normally, 25 req/s during the storm below — the flash crowd
  // genuinely oversubscribes the origin instead of vanishing into slack.
  s.num_servers = 1;
  s.server_service = MillisToMicros(2.0);
  // Keep every issued TTL short so staleness across the node-kill window
  // is bounded by expiration, and the oracle's degraded budget can cover
  // the worst surviving copy.
  s.server_options.ttl_options.max_ttl = SecondsToMicros(5.0);
  s.server_options.degradation.enabled = true;

  // The storm: 8x connections on a 20x slower origin for 4 seconds. It
  // hits after several seconds of normal traffic — a flash crowd storms
  // *warm* caches; cold keys nobody ever fetched have no retained copy to
  // shed-serve and would just measure cache warmup, not overload control.
  sim::SimOptions::OverloadPhase phase;
  phase.at = SecondsToMicros(6.0);
  phase.duration = SecondsToMicros(4.0);
  phase.load_multiplier = 8.0;
  phase.origin_slowdown = 20.0;
  s.overload_phases.push_back(phase);

  if (protections) {
    s.server_options.admission.enabled = true;
    // The controller budgets the origin's HEALTHY per-request cost; storm
    // slowness reaches it through the origin_spike_fn feedback below,
    // which charges the measured extra service time to its workers. So
    // normal traffic is billed accurately (no false shedding) while the
    // slowed-down origin drives real queue pressure.
    s.server_options.admission.max_concurrent = 1;
    s.server_options.admission.service_cost = 4 * kMicrosPerMilli;
    // Queue bound sized to the deadline: a short backlog keeps admitted
    // requests inside their 1 s budget and drains quickly after the
    // storm (a deep queue would keep serving deadline-exceeded long
    // after the pressure is gone).
    s.server_options.admission.max_queue = 16;
    s.server_options.admission.target_queue_delay = 20 * kMicrosPerMilli;
    s.server_options.admission.codel_interval = 100 * kMicrosPerMilli;
    // Admission "measures" the storm: during the phase every served
    // origin visit costs ~40 ms instead of ~2 ms, and the controller is
    // charged the difference.
    s.origin_spike_fn = [phase](Micros now) -> Micros {
      if (now >= phase.at && now < phase.at + phase.duration) {
        return MillisToMicros(38.0);
      }
      return 0;
    };
    s.client_options.request_deadline = SecondsToMicros(1.0);
    s.client_options.stale_serve.enabled = true;
    s.client_options.stale_serve.ttl_cap = 1 * kMicrosPerSecond;
    s.client_options.stale_serve.max_age = 30 * kMicrosPerSecond;
    s.client_options.retry.enabled = true;
    s.client_options.retry.max_attempts = 2;
    s.client_options.retry.retry_budget = 10.0;
    s.client_options.retry.budget_refill_per_success = 0.1;
  }
  return s;
}

TEST(ChaosTest, OverloadWithNodeKillKeepsAvailabilityAndConsistency) {
  sim::SimOptions sopts = OverloadSim(/*protections=*/true);

  // Seeded origin latency spikes ride on top of the flash crowd.
  fault::FaultProfile profile;
  profile.latency_spike_rate = 0.2;
  profile.max_latency_spike = 100 * kMicrosPerMilli;
  fault::FaultInjector injector(23, profile);
  const auto base_feedback = sopts.origin_spike_fn;
  sopts.origin_spike_fn = [&injector, base_feedback](Micros now) -> Micros {
    return (base_feedback ? base_feedback(now) : 0) +
           injector.LatencySpikeFor();
  };

  sim::Simulation sim(OverloadWorkload(), sopts);
  sim::Simulation* sim_ptr = &sim;

  check::OracleOptions oopts;
  oopts.delta = sopts.client_options.ebf_refresh_interval;
  oopts.max_purge_delay = sopts.cdn_purge_latency;
  oopts.revalidate_at_cdn = sopts.client_options.revalidate_at_cdn;
  check::ConsistencyOracle oracle(&sim.clock(), &sim.database(), oopts);
  sim.database().AddChangeListener(
      [&oracle](const db::ChangeEvent& ev) { oracle.OnCommit(ev); });
  const workload::WorkloadOptions w = OverloadWorkload();
  for (size_t t = 0; t < w.num_tables; ++t) {
    for (const db::Query& q : sim.generator().QueriesFor(t)) {
      oracle.TrackQuery(q);
    }
  }

  // Every read/query is checked; stale-shed responses arrive flagged with
  // their measured age and ONLY those get a per-check widened bound — an
  // unflagged stale response would still trip the oracle.
  sim.AddOpObserver([&](const sim::OpObservation& obs) {
    const std::string session = "i" + std::to_string(obs.instance);
    switch (obs.type) {
      case workload::OpType::kRead: {
        // A shed or past-deadline failure makes no freshness claim (it is
        // not a NotFound): nothing to check.
        if (!obs.read->status.ok() && !obs.read->status.IsNotFound()) break;
        const Micros extra = obs.read->outcome.served_stale_on_shed
                                 ? obs.read->outcome.stale_entry_age
                                 : 0;
        oracle.CheckRead(session, obs.table + "/" + obs.id,
                         obs.read->status.ok(), obs.read->version, extra);
        break;
      }
      case workload::OpType::kQuery: {
        const Micros extra =
            obs.query_result->outcome.served_stale_on_shed
                ? obs.query_result->outcome.stale_entry_age
                : 0;
        oracle.CheckQuery(session, *obs.query,
                          obs.query_result->status.ok(),
                          obs.query_result->etag,
                          obs.query_result->representation, extra);
        break;
      }
      default:
        if (obs.written != nullptr) {
          oracle.OnSessionWrite(session, *obs.written);
        }
        break;
    }
  });

  // Mid-storm node kill (and later failover). The invalidation gap is
  // covered by the server's degraded TTL caps; the oracle only demands
  // the degraded budget while it lasts.
  bool killed = false;
  bool rebuilt = false;
  sim.AddOpObserver([&](const sim::OpObservation&) {
    const Micros now = sim_ptr->clock().NowMicros();
    if (!killed && now >= SecondsToMicros(7.0)) {
      sim_ptr->server().invalidb().KillNode(0);
      oracle.SetDegraded(true, SecondsToMicros(10.0));
      killed = true;
    }
    if (killed && !rebuilt && now >= SecondsToMicros(11.0)) {
      invalidb::InvalidbCluster& cluster = sim_ptr->server().invalidb();
      cluster.Resize(cluster.options().query_partitions,
                     cluster.options().object_partitions,
                     [&](const db::Query& rq) {
                       return sim_ptr->database().Execute(rq);
                     });
      oracle.SetDegraded(false);
      rebuilt = true;
    }
  });

  uint64_t read_fails = 0;
  uint64_t query_fails = 0;
  uint64_t write_fails = 0;
  sim.AddOpObserver([&](const sim::OpObservation& obs) {
    switch (obs.type) {
      case workload::OpType::kRead:
        if (!obs.read->status.ok()) read_fails++;
        break;
      case workload::OpType::kQuery:
        if (!obs.query_result->status.ok()) query_fails++;
        break;
      default:
        if (obs.written == nullptr) write_fails++;
        break;
    }
  });

  sim::SimResults r = sim.Run();

  ASSERT_TRUE(killed);
  ASSERT_TRUE(rebuilt);
  EXPECT_EQ(r.invalidb_stats.rebalance_resizes, 1u);

  // The protections engaged: the origin shed work and stale-retained
  // copies absorbed part of the storm.
  EXPECT_GT(r.server_stats.shed_responses +
                r.server_stats.deadline_exceeded_responses,
            0u);
  EXPECT_GT(r.stale_shed_serves, 0u);

  // Availability floor: at least 80% of all operations still succeeded
  // across the storm, the slow origin, and the node kill.
  const uint64_t total = r.reads.count + r.queries.count + r.writes.count;
  ASSERT_GT(total, 0u);
  const double ok_ratio =
      static_cast<double>(r.ok_ops) / static_cast<double>(total);
  EXPECT_GE(ok_ratio, 0.8) << "ok " << r.ok_ops << " of " << total
                           << " (reads " << r.reads.count << " queries "
                           << r.queries.count << " writes " << r.writes.count
                           << " shed " << r.shed_ops << " deadline "
                           << r.deadline_exceeded_ops << " stale_serves "
                           << r.stale_shed_serves << " read_fails "
                           << read_fails << " query_fails " << query_fails
                           << " write_fails " << write_fails << ")";

  // Zero oracle violations: bounded staleness survived the overload.
  std::string msg;
  for (const check::Violation& v : oracle.violations()) {
    msg += v.ToString() + "\n";
  }
  EXPECT_TRUE(oracle.violations().empty()) << msg;
  EXPECT_GT(oracle.checked_reads(), 100u);
}

TEST(ChaosTest, OverloadProtectionsKeepTailLatencyBounded) {
  // Same storm twice: protections ON vs OFF. The unprotected run piles
  // every request onto the saturated origin and its tail latency
  // collapses; the protected run sheds and serves stale instead.
  auto run = [](bool protections) {
    sim::Simulation sim(OverloadWorkload(), OverloadSim(protections));
    return sim.Run();
  };
  const sim::SimResults off = run(false);
  const sim::SimResults on = run(true);

  // Unprotected: nothing fails, everything slows down.
  EXPECT_EQ(off.shed_ops + off.deadline_exceeded_ops, 0u);
  EXPECT_EQ(off.stale_shed_serves, 0u);

  // Protected: reads' p99 stays well under the unprotected collapse.
  EXPECT_LT(on.reads.latency.P99() * 2.0, off.reads.latency.P99())
      << "on p99 " << on.reads.latency.P99() << " off p99 "
      << off.reads.latency.P99();
  // And goodput does not collapse versus the unprotected run.
  EXPECT_GE(on.goodput_ops_s, 0.8 * off.goodput_ops_s);
}

}  // namespace
}  // namespace quaestor
