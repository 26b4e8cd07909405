// Elastic scale-out chaos suite: live Resize() up/down mid-stream —
// against faulty channels, node kills, and a consistency oracle. The
// core property throughout: a cluster that resizes mid-stream delivers
// the exact notification multiset of a fixed-size cluster of the target
// shape (zero loss, zero duplication), and any staleness the migration
// introduces stays inside the declared degraded window.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/oracle.h"
#include "client/client.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/server.h"
#include "db/database.h"
#include "fault/fault_injector.h"
#include "fault/faulty_send.h"
#include "invalidb/cluster.h"
#include "invalidb/transport.h"
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

// Canonical signature for byte-for-byte multiset comparison. event_time
// is zero-padded so a lexicographic sort groups notifications by change
// event; within one event the emission order legitimately depends on the
// grid shape (which column each query hashes to), so sequences are
// compared as sorted multisets — equality means zero loss AND zero
// duplication, the exact Resize() contract.
std::string Sig(const invalidb::Notification& n) {
  char time_buf[21];
  std::snprintf(time_buf, sizeof(time_buf), "%020lld",
                static_cast<long long>(n.event_time));
  return std::string(time_buf) + "|" + n.query_key + "|" + n.record_id + "|" +
         std::to_string(static_cast<int>(n.type)) + "|" +
         std::to_string(n.new_index);
}

db::ChangeEvent Change(const std::string& id, int g, int score, Micros at) {
  db::ChangeEvent ev;
  ev.kind = db::WriteKind::kUpdate;
  ev.after.table = "posts";
  ev.after.id = id;
  ev.after.body = Doc(("{\"g\":" + std::to_string(g) +
                       ",\"score\":" + std::to_string(score) + "}")
                          .c_str());
  ev.after.write_time = at;
  ev.commit_time = at;
  return ev;
}

std::vector<db::Query> TestQueries() {
  std::vector<db::Query> queries;
  queries.push_back(Q("posts", R"({"g":{"$gte":1}})"));
  queries.push_back(Q("posts", R"({"g":2})"));
  db::Query top = Q("posts", R"({"g":{"$gte":0}})");
  top.SetOrderBy({{"score", false}}).SetLimit(3);
  queries.push_back(top);  // stateful: sorted-layer coverage
  return queries;
}

// Deterministic update stream: group/score churn moves records in and out
// of every query's result, so adds, removes, changes, and index moves all
// occur.
std::vector<db::ChangeEvent> MakeStream(uint64_t seed, size_t num_events,
                                        SimulatedClock* clock) {
  Rng rng(seed ^ 0x57f3);
  std::vector<db::ChangeEvent> stream;
  stream.reserve(num_events);
  for (size_t i = 0; i < num_events; ++i) {
    clock->Advance(kMicrosPerMilli);
    stream.push_back(Change("d" + std::to_string(rng.NextUint64(12)),
                            static_cast<int>(rng.NextUint64(4)),
                            static_cast<int>(rng.NextUint64(100)),
                            clock->NowMicros()));
  }
  return stream;
}

// ---------------------------------------------------------------------------
// Resize mid-stream == fixed-size reference (synchronous clusters)
// ---------------------------------------------------------------------------

// Applies `stream` to a cluster, resizing at the scheduled points, and
// returns the sorted notification multiset.
std::vector<std::string> RunResizingCluster(
    const std::vector<db::ChangeEvent>& stream,
    const std::vector<fault::ResizePoint>& schedule,
    invalidb::InvalidbOptions opts, SimulatedClock* clock) {
  std::vector<std::string> sigs;
  invalidb::InvalidbCluster cluster(
      clock, opts, [&](const std::vector<invalidb::Notification>& batch) {
        for (const invalidb::Notification& n : batch) sigs.push_back(Sig(n));
      });
  for (const db::Query& q : TestQueries()) {
    EXPECT_TRUE(cluster.RegisterQuery(q, {}).ok());
  }
  size_t next = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    while (next < schedule.size() && schedule[next].after_event == i) {
      cluster.Resize(schedule[next].query_partitions,
                     schedule[next].object_partitions);
      next++;
    }
    cluster.OnChangeBatch({stream[i]});
  }
  while (next < schedule.size()) {
    cluster.Resize(schedule[next].query_partitions,
                   schedule[next].object_partitions);
    next++;
  }
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

TEST(RebalanceTest, ResizeMidStreamMatchesFixedReferenceAcross20Seeds) {
  constexpr size_t kEvents = 60;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const std::vector<fault::ResizePoint> schedule =
        fault::MakeResizeSchedule(seed, kEvents, /*max_resizes=*/3,
                                  /*max_partitions=*/3);
    ASSERT_FALSE(schedule.empty());

    SimulatedClock chaos_clock(0);
    const std::vector<db::ChangeEvent> stream =
        MakeStream(seed, kEvents, &chaos_clock);

    invalidb::InvalidbOptions start;  // 1x1
    SimulatedClock run_clock(0);
    const std::vector<std::string> got =
        RunResizingCluster(stream, schedule, start, &run_clock);

    // Reference: a freshly-constructed fixed cluster of the target shape.
    invalidb::InvalidbOptions target;
    target.query_partitions = schedule.back().query_partitions;
    target.object_partitions = schedule.back().object_partitions;
    SimulatedClock ref_clock(0);
    const std::vector<std::string> expected =
        RunResizingCluster(stream, {}, target, &ref_clock);

    ASSERT_GT(expected.size(), kEvents) << "seed " << seed;  // non-vacuous
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Resize over a lossy, duplicating, reordering transport
// ---------------------------------------------------------------------------

// Ships the stream through a remote/worker pair joined by loopback links,
// each endpoint sending through a FaultySend driven by `injector`,
// interleaving scheduled resize requests, pumping until the pipeline
// drains. Returns the sorted notification multiset.
std::vector<std::string> RunTransportResizeScript(
    const std::vector<db::ChangeEvent>& stream,
    const std::vector<fault::ResizePoint>& schedule,
    invalidb::InvalidbOptions worker_opts, SimulatedClock* clock,
    fault::FaultInjector* injector) {
  invalidb::TransportOptions topts;
  topts.reliable.seed = 0xabc;
  invalidb::LoopbackLink to_worker;
  invalidb::LoopbackLink to_remote;
  fault::FaultySend remote_send(clock, injector, to_worker.sender());
  fault::FaultySend worker_send(clock, injector, to_remote.sender());
  std::vector<std::string> sigs;
  invalidb::InvalidbRemote remote(
      clock, remote_send.sender(), "rz",
      [&](const std::vector<invalidb::Notification>& batch) {
        for (const invalidb::Notification& n : batch) sigs.push_back(Sig(n));
      },
      topts);
  invalidb::InvalidbWorker worker(clock, worker_send.sender(), "rz",
                                  worker_opts, topts);
  to_worker.Attach(&worker);
  to_remote.Attach(&remote);

  for (const db::Query& q : TestQueries()) {
    remote.RegisterQuery(q, {});
  }
  size_t next = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    while (next < schedule.size() && schedule[next].after_event == i) {
      remote.Resize(schedule[next].query_partitions,
                    schedule[next].object_partitions);
      next++;
    }
    remote.OnChange(stream[i]);
  }
  while (next < schedule.size()) {
    remote.Resize(schedule[next].query_partitions,
                  schedule[next].object_partitions);
    next++;
  }

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
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

TEST(RebalanceTest, FaultyChannelResizeByteIdenticalAcross20Seeds) {
  constexpr size_t kEvents = 50;
  fault::FaultProfile profile;
  profile.drop_rate = 0.10;
  profile.duplicate_rate = 0.10;
  profile.reorder_rate = 0.10;
  uint64_t total_dropped = 0;
  uint64_t total_duplicated = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const std::vector<fault::ResizePoint> schedule =
        fault::MakeResizeSchedule(seed, kEvents, /*max_resizes=*/2,
                                  /*max_partitions=*/3);
    ASSERT_FALSE(schedule.empty());
    SimulatedClock stream_clock(0);
    const std::vector<db::ChangeEvent> stream =
        MakeStream(seed, kEvents, &stream_clock);

    // Reference: perfect channel, fixed target-shape cluster, no resizes.
    invalidb::InvalidbOptions target;
    target.query_partitions = schedule.back().query_partitions;
    target.object_partitions = schedule.back().object_partitions;
    SimulatedClock ref_clock(0);
    fault::FaultInjector lossless(0);
    const std::vector<std::string> expected = RunTransportResizeScript(
        stream, {}, target, &ref_clock, &lossless);

    // Chaos: 10% drop/dup/reorder channel, cluster starts 1x1 and resizes
    // mid-stream (queue order places each cutover exactly between two
    // changes, which the reliable layer preserves through the faults).
    SimulatedClock clock(0);
    fault::FaultInjector injector(seed * 7919 + 13, profile);
    const std::vector<std::string> got = RunTransportResizeScript(
        stream, schedule, invalidb::InvalidbOptions(), &clock, &injector);

    ASSERT_GT(expected.size(), kEvents / 2) << "seed " << seed;
    EXPECT_EQ(got, expected) << "seed " << seed;
    total_dropped += injector.stats().dropped;
    total_duplicated += injector.stats().duplicated;
  }
  // The sweep actually exercised the faults it claims to survive.
  EXPECT_GT(total_dropped, 20u);
  EXPECT_GT(total_duplicated, 20u);
}

// ---------------------------------------------------------------------------
// Evaluator-path resize: recovery from dead nodes
// ---------------------------------------------------------------------------

// Node failover is an evaluator Resize, to another shape or to the
// current one (a 1x1 grid rebuilt in place).
TEST(RebalanceTest, EvaluatorResizeRecoversStateLostToDeadNodes) {
  struct Shapes {
    size_t query_partitions, object_partitions;
    size_t new_query_partitions, new_object_partitions;
  };
  for (const Shapes& shapes : {Shapes{2, 2, 3, 2}, Shapes{1, 1, 1, 1}}) {
    SCOPED_TRACE(std::to_string(shapes.query_partitions) + "x" +
                 std::to_string(shapes.object_partitions) + " -> " +
                 std::to_string(shapes.new_query_partitions) + "x" +
                 std::to_string(shapes.new_object_partitions));
    SimulatedClock clock(0);
    db::Database db(&clock);
    std::vector<invalidb::Notification> received;
    invalidb::InvalidbOptions opts;
    opts.query_partitions = shapes.query_partitions;
    opts.object_partitions = shapes.object_partitions;
    invalidb::InvalidbCluster cluster(
        &clock, opts,
        [&](const std::vector<invalidb::Notification>& batch) {
          received.insert(received.end(), batch.begin(), batch.end());
        });
    db::Query q = Q("posts", R"({"g":{"$gte":1}})");
    ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());

    auto commit = [&](const std::string& id, int g) {
      auto r = db.Upsert(
          "posts", id, Doc(("{\"g\":" + std::to_string(g) + "}").c_str()));
      ASSERT_TRUE(r.ok());
      clock.Advance(kMicrosPerMilli);
      cluster.OnChangeBatch({Change(id, g, /*score=*/0, r.value().write_time)});
    };

    for (int i = 0; i < 8; ++i) commit("d" + std::to_string(i), 1);
    const size_t before_kill = received.size();
    EXPECT_EQ(before_kill, 8u);  // every insert produced one kAdd

    // Kill every node and keep committing: these adds are lost in-flight
    // AND absent from the matchers.
    const size_t old_n = cluster.NumNodes();
    for (size_t n = 0; n < old_n; ++n) cluster.KillNode(n);
    EXPECT_EQ(cluster.AliveCount(), 0u);
    for (int i = 8; i < 12; ++i) commit("d" + std::to_string(i), 1);
    EXPECT_EQ(received.size(), before_kill);
    EXPECT_GT(cluster.stats().tasks_dropped_dead, 0u);

    // Evaluator-path resize rebuilds the grid from the authoritative
    // database — dead nodes and all.
    const size_t reinstalled = cluster.Resize(
        shapes.new_query_partitions, shapes.new_object_partitions,
        [&](const db::Query& query) { return db.Execute(query); });
    const size_t new_n =
        shapes.new_query_partitions * shapes.new_object_partitions;
    EXPECT_EQ(reinstalled, 1u);
    EXPECT_EQ(cluster.NumNodes(), new_n);
    EXPECT_EQ(cluster.AliveCount(), new_n);
    EXPECT_EQ(cluster.options().query_partitions,
              shapes.new_query_partitions);
    EXPECT_EQ(cluster.options().object_partitions,
              shapes.new_object_partitions);

    // d10's membership was recovered: an in-place update is a kChange (a
    // grid that lost d10 would emit kAdd), and leaving the result emits
    // kRemove.
    commit("d10", 2);
    ASSERT_EQ(received.size(), before_kill + 1);
    EXPECT_EQ(received.back().type, invalidb::NotificationType::kChange);
    EXPECT_EQ(received.back().record_id, "d10");
    commit("d10", 0);
    ASSERT_EQ(received.size(), before_kill + 2);
    EXPECT_EQ(received.back().type, invalidb::NotificationType::kRemove);

    const invalidb::ClusterStats stats = cluster.stats();
    EXPECT_EQ(stats.node_kills, old_n);
    EXPECT_EQ(stats.rebalance_resizes, 1u);
    EXPECT_EQ(stats.rebalance_queries_reinstalled, 1u);
    EXPECT_EQ(stats.rebalance_nodes_added, new_n - old_n);
    EXPECT_EQ(stats.rebalance_nodes_removed, 0u);
    EXPECT_EQ(cluster.MigrationPauseHistogram().count(), 1u);
  }
}

// Threaded failover: nodes die with changes still queued, a same-shape
// evaluator Resize rebuilds the grid, and from then on the cluster
// notifies exactly like a fresh cluster registered at the cutover. One
// object partition: with several, worker threads feed a sorted query's
// window in an order that differs from run to run.
TEST(RebalanceTest, EvaluatorResizeRebuildsThreadedGridKilledMidStream) {
  // The database's clock stamps commits and is advanced by this thread
  // only; the clusters' workers read the system clock.
  SimulatedClock clock(0);
  db::Database db(&clock);
  invalidb::InvalidbOptions opts;
  opts.threaded = true;
  opts.query_partitions = 2;
  std::mutex mu;
  std::vector<std::string> got;
  invalidb::InvalidbCluster cluster(
      SystemClock::Default(), opts,
      [&](const std::vector<invalidb::Notification>& batch) {
        std::lock_guard<std::mutex> lock(mu);
        for (const invalidb::Notification& n : batch) got.push_back(Sig(n));
      });
  for (const db::Query& q : TestQueries()) {
    ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());
  }
  std::vector<invalidb::InvalidbCluster*> targets = {&cluster};
  db.AddChangeListener([&](const db::ChangeEvent& ev) {
    for (invalidb::InvalidbCluster* target : targets) {
      target->OnChangeBatch({ev});
    }
  });
  const std::vector<db::ChangeEvent> stream = MakeStream(7, 300, &clock);
  auto apply = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      clock.Advance(kMicrosPerMilli);
      ASSERT_TRUE(
          db.Upsert("posts", stream[i].after.id, stream[i].after.body).ok());
    }
  };

  // No Flush: each kill lands behind queued changes, and every change
  // queued after it on that node is lost.
  apply(0, 100);
  cluster.KillNode(1);
  apply(100, 120);
  cluster.KillNode(0);
  apply(120, 150);
  cluster.Resize(2, 1,
                 [&](const db::Query& query) { return db.Execute(query); });
  EXPECT_EQ(cluster.AliveCount(), 2u);
  EXPECT_GT(cluster.stats().tasks_dropped_dead, 0u);
  {
    std::lock_guard<std::mutex> lock(mu);
    got.clear();
  }

  std::vector<std::string> expected;
  invalidb::InvalidbCluster reference(
      SystemClock::Default(), invalidb::InvalidbOptions(),
      [&](const std::vector<invalidb::Notification>& batch) {
        for (const invalidb::Notification& n : batch) {
          expected.push_back(Sig(n));
        }
      });
  for (const db::Query& q : TestQueries()) {
    ASSERT_TRUE(reference
                    .RegisterQuery(q,
                                   db.Execute(db::Query(q.table(), q.filter())))
                    .ok());
  }
  targets.push_back(&reference);
  apply(150, 300);
  cluster.Flush();

  std::lock_guard<std::mutex> lock(mu);
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  ASSERT_GT(expected.size(), 100u);
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// Oracle-checked: kills + outage + resize, Δ widened only while degraded
// ---------------------------------------------------------------------------

TEST(RebalanceChaosTest, ResizeDuringKillsAndOutageWithinDegradedBudget) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::ServerOptions sopts;
  sopts.invalidb_options.query_partitions = 2;
  sopts.invalidb_options.object_partitions = 2;
  sopts.degradation.enabled = true;
  sopts.degradation.staleness_budget = 5 * kMicrosPerSecond;
  sopts.degradation.degraded_ttl_cap = 500 * kMicrosPerMilli;
  core::QuaestorServer server(&clock, &db, sopts);

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

  int next_value = 2;
  auto write = [&] {
    ASSERT_TRUE(server
                    .Update("posts", "d1",
                            db::Update().Set(
                                "g", db::Value(int64_t{next_value++})))
                    .ok());
  };
  auto step = [&](Micros advance) {
    clock.Advance(advance);
    auto rr = c.Read("posts", "d1");
    oracle.CheckRead("s", "posts/d1", rr.status.ok(), rr.version);
    auto qr = c.ExecuteQuery(q);
    oracle.CheckQuery("s", q, qr.status.ok(), qr.etag, qr.representation);
  };

  step(10 * kMicrosPerMilli);  // healthy warm-up
  ASSERT_TRUE(oracle.violations().empty());

  // A healthy-grid resize is zero-loss: the strict Δ bound must keep
  // holding with no widening at all.
  server.ResizeInvalidb(3, 1);
  for (int i = 0; i < 5; ++i) {
    write();
    step(300 * kMicrosPerMilli);
  }
  EXPECT_TRUE(oracle.violations().empty())
      << oracle.violations()[0].ToString();

  // Node kill: invalidations through that node are lost, so the oracle's
  // bound widens to the degraded budget — but only inside this bracket.
  server.invalidb().KillNode(1);
  oracle.SetDegraded(true, sopts.degradation.staleness_budget);
  for (int i = 0; i < 10; ++i) {
    write();
    step(300 * kMicrosPerMilli);
  }
  EXPECT_TRUE(server.degraded());

  // Resize while degraded: the evaluator path rebuilds every matcher from
  // the database, so the resize itself doubles as failover recovery.
  server.ResizeInvalidb(2, 2);
  EXPECT_EQ(server.pipeline_health().nodes_alive, 4u);

  // Hard outage with a resize in the middle of it (the fault schedule a
  // production scale-out must survive).
  server.SetPipelineDown(true);
  for (int i = 0; i < 5; ++i) {
    write();
    step(300 * kMicrosPerMilli);
  }
  server.ResizeInvalidb(1, 2);
  EXPECT_TRUE(server.degraded());
  for (int i = 0; i < 5; ++i) {
    write();
    step(300 * kMicrosPerMilli);
  }
  EXPECT_GT(server.stats().change_events_dropped, 0u);
  EXPECT_TRUE(oracle.violations().empty())
      << oracle.violations()[0].ToString();
  EXPECT_GT(oracle.degraded_checks(), 0u);

  // Recovery; after the grace window strict Δ-atomicity must hold again.
  server.SetPipelineDown(false);
  oracle.SetDegraded(false);
  EXPECT_FALSE(server.degraded());
  clock.Advance(sopts.degradation.staleness_budget + kMicrosPerSecond);
  for (int i = 0; i < 10; ++i) {
    write();
    step(300 * kMicrosPerMilli);
  }
  EXPECT_TRUE(oracle.violations().empty())
      << oracle.violations()[0].ToString();
  EXPECT_GT(server.stats().degradation_flips, 0u);
}

// ---------------------------------------------------------------------------
// Threaded mode: zero loss under load, and stats reads race-free (TSan)
// ---------------------------------------------------------------------------

TEST(RebalanceTest, ThreadedResizeUnderLoadLosesAndDuplicatesNothing) {
  invalidb::InvalidbOptions opts;
  opts.threaded = true;
  opts.query_partitions = 2;
  opts.object_partitions = 2;
  std::atomic<uint64_t> delivered{0};
  invalidb::InvalidbCluster cluster(
      SystemClock::Default(), opts,
      [&](const std::vector<invalidb::Notification>& batch) {
        delivered += batch.size();
      });
  db::Query q = Q("t", R"({"n":{"$gte":0}})");
  ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());
  cluster.Flush();

  constexpr int kEvents = 400;
  std::atomic<bool> stop{false};
  // TSan regression for the ClusterStats/QueriesPerNode snapshot race:
  // hammer every observability read while registrations, changes, and
  // resizes are all in flight. The per-node counters are atomics and the
  // node vector is topology-locked, so none of this may race.
  std::thread stats_reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)cluster.QueriesPerNode();
      (void)cluster.OpsPerNode();
      (void)cluster.AliveCount();
      (void)cluster.NumNodes();
      (void)cluster.stats();
    }
  });
  std::thread producer([&] {
    for (int i = 0; i < kEvents; ++i) {
      db::ChangeEvent ev;
      ev.kind = db::WriteKind::kUpdate;
      ev.after.table = "t";
      ev.after.id = "d" + std::to_string(i % 50);
      ev.after.body = Doc(R"({"n":1})");
      cluster.OnChangeBatch({ev});
    }
  });

  // Resize up and down while the producer and reader run. The handoff
  // path is safe here: nodes are healthy and the drain guarantees the old
  // grid's matching state is complete at cutover.
  cluster.Resize(1, 3);
  cluster.Resize(3, 2);
  cluster.Resize(2, 2);

  producer.join();
  cluster.Flush();
  stop.store(true, std::memory_order_release);
  stats_reader.join();

  // The query matches every event: exactly one notification per event.
  // A lost event (loss) or re-matched event (duplication) breaks this.
  EXPECT_EQ(delivered.load(), static_cast<uint64_t>(kEvents));
  const invalidb::ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.rebalance_resizes, 3u);
  EXPECT_EQ(stats.changes_ingested, static_cast<uint64_t>(kEvents));
  EXPECT_EQ(cluster.MigrationPauseHistogram().count(), 3u);
  // Sum of per-node installed queries == one query on every row of its
  // column (quiescent cluster: the snapshot is exact).
  const std::vector<size_t> per_node = cluster.QueriesPerNode();
  size_t installed = 0;
  for (size_t count : per_node) installed += count;
  EXPECT_EQ(installed, cluster.options().object_partitions);
}

// Same-shape resize acts as a full grid rebuild.
TEST(RebalanceTest, SameShapeResizeRebuildsInPlace) {
  SimulatedClock clock(0);
  std::vector<invalidb::Notification> received;
  invalidb::InvalidbOptions opts;
  opts.query_partitions = 2;
  opts.object_partitions = 2;
  invalidb::InvalidbCluster cluster(
      &clock, opts,
      [&](const std::vector<invalidb::Notification>& batch) {
        received.insert(received.end(), batch.begin(), batch.end());
      });
  db::Query q = Q("posts", R"({"g":1})");
  ASSERT_TRUE(cluster.RegisterQuery(q, {}).ok());
  clock.Advance(kMicrosPerMilli);
  cluster.OnChangeBatch({Change("d1", 1, 0, clock.NowMicros())});
  ASSERT_EQ(received.size(), 1u);

  EXPECT_EQ(cluster.Resize(2, 2), 1u);
  EXPECT_EQ(cluster.NumNodes(), 4u);
  EXPECT_TRUE(cluster.IsRegistered(q.NormalizedKey()));

  // Membership survived the rebuild: an in-place update is a kChange.
  clock.Advance(kMicrosPerMilli);
  cluster.OnChangeBatch({Change("d1", 1, 1, clock.NowMicros())});
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received.back().type, invalidb::NotificationType::kChange);
}

}  // namespace
}  // namespace quaestor
