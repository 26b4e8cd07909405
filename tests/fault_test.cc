// Fault-injection building blocks: the seeded injector, the lossy KV
// decorator, the at-least-once reliable queue layer, client retry, and
// server degradation plumbing.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "common/clock.h"
#include "core/server.h"
#include "db/database.h"
#include "fault/fault_injector.h"
#include "fault/faulty_kv_store.h"
#include "invalidb/reliable_queue.h"
#include "kv/kv_store.h"
#include "webcache/web_cache.h"

namespace quaestor {
namespace {

db::Value Doc(const char* json) {
  auto v = db::Value::FromJson(json);
  EXPECT_TRUE(v.ok());
  return v.value();
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DeterministicFromSeed) {
  fault::FaultProfile p;
  p.drop_rate = 0.3;
  p.duplicate_rate = 0.2;
  p.corrupt_rate = 0.5;
  p.delay_rate = 0.4;
  p.max_delay = 1000;
  fault::FaultInjector a(0xfeed, p);
  fault::FaultInjector b(0xfeed, p);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.ShouldDrop(), b.ShouldDrop());
    EXPECT_EQ(a.ShouldDuplicate(), b.ShouldDuplicate());
    EXPECT_EQ(a.ShouldCorrupt(), b.ShouldCorrupt());
    EXPECT_EQ(a.DelayFor(), b.DelayFor());
    std::string ma = "the quick brown fox";
    std::string mb = ma;
    a.Corrupt(&ma);
    b.Corrupt(&mb);
    EXPECT_EQ(ma, mb);
  }
}

TEST(FaultInjectorTest, RatesRoughlyRespected) {
  fault::FaultProfile p;
  p.drop_rate = 0.25;
  fault::FaultInjector inj(7, p);
  int drops = 0;
  for (int i = 0; i < 4000; ++i) {
    if (inj.ShouldDrop()) drops++;
  }
  EXPECT_GT(drops, 4000 * 0.15);
  EXPECT_LT(drops, 4000 * 0.35);
  EXPECT_EQ(inj.stats().dropped, static_cast<uint64_t>(drops));
}

TEST(FaultInjectorTest, CorruptAlwaysMutatesOrTruncates) {
  fault::FaultProfile p;
  p.corrupt_rate = 1.0;
  fault::FaultInjector inj(3, p);
  for (int i = 0; i < 200; ++i) {
    const std::string original = R"({"op":"change","k":"v12345"})";
    std::string m = original;
    inj.Corrupt(&m);
    EXPECT_NE(m, original);
  }
  // Empty messages don't crash the corruptor.
  std::string empty;
  inj.Corrupt(&empty);
  EXPECT_FALSE(empty.empty());
}

// ---------------------------------------------------------------------------
// FaultyKvStore
// ---------------------------------------------------------------------------

class FaultyKvTest : public ::testing::Test {
 protected:
  FaultyKvTest() : clock_(0), injector_(1), kv_(&clock_, &injector_) {}

  void SetProfile(const fault::FaultProfile& p) { injector_.set_profile(p); }

  SimulatedClock clock_;
  fault::FaultInjector injector_;
  fault::FaultyKvStore kv_;
};

TEST_F(FaultyKvTest, LosslessProfilePassesThrough) {
  kv_.QueuePush("q", "a");
  kv_.QueuePush("q", "b");
  EXPECT_EQ(kv_.QueueLen("q"), 2u);
  EXPECT_EQ(kv_.QueueTryPop("q").value(), "a");
  EXPECT_EQ(kv_.QueueTryPop("q").value(), "b");
  EXPECT_FALSE(kv_.QueueTryPop("q").has_value());
}

TEST_F(FaultyKvTest, DropRateOneLosesEverything) {
  fault::FaultProfile p;
  p.drop_rate = 1.0;
  SetProfile(p);
  kv_.QueuePush("q", "gone");
  EXPECT_EQ(kv_.QueueLen("q"), 0u);
  EXPECT_FALSE(kv_.QueueTryPop("q").has_value());
  EXPECT_EQ(injector_.stats().dropped, 1u);
}

TEST_F(FaultyKvTest, DuplicateRateOneDeliversTwice) {
  fault::FaultProfile p;
  p.duplicate_rate = 1.0;
  SetProfile(p);
  kv_.QueuePush("q", "twin");
  EXPECT_EQ(kv_.QueueLen("q"), 2u);
  EXPECT_EQ(kv_.QueueTryPop("q").value(), "twin");
  EXPECT_EQ(kv_.QueueTryPop("q").value(), "twin");
}

TEST_F(FaultyKvTest, DelayedMessageReleasedAfterDue) {
  fault::FaultProfile p;
  p.delay_rate = 1.0;
  p.max_delay = 1000;
  SetProfile(p);
  kv_.QueuePush("q", "late");
  SetProfile(fault::FaultProfile());
  // Held, not yet in the visible queue — but counted in QueueLen.
  EXPECT_EQ(kv_.held_count(), 1u);
  EXPECT_EQ(kv_.QueueLen("q"), 1u);
  EXPECT_FALSE(kv_.QueueTryPop("q").has_value());
  clock_.Advance(1001);
  EXPECT_EQ(kv_.QueueTryPop("q").value(), "late");
  EXPECT_EQ(kv_.held_count(), 0u);
}

TEST_F(FaultyKvTest, ReorderedMessageOvertakenByLaterPushes) {
  fault::FaultProfile p;
  p.reorder_rate = 1.0;
  SetProfile(p);
  kv_.QueuePush("q", "first");
  SetProfile(fault::FaultProfile());
  EXPECT_EQ(kv_.held_count(), 1u);
  // At most 3 subsequent pushes release it, behind at least one of them.
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) {
    kv_.QueuePush("q", "later" + std::to_string(i));
  }
  while (auto m = kv_.QueueTryPop("q")) order.push_back(*m);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(kv_.held_count(), 0u);
  // "first" was overtaken: it is not at the front any more.
  EXPECT_NE(order.front(), "first");
  EXPECT_NE(std::find(order.begin(), order.end(), "first"), order.end());
}

TEST_F(FaultyKvTest, FlushHeldReleasesEverything) {
  fault::FaultProfile p;
  p.delay_rate = 1.0;
  p.max_delay = 1000000;
  SetProfile(p);
  kv_.QueuePush("q", "a");
  kv_.QueuePush("q", "b");
  SetProfile(fault::FaultProfile());
  EXPECT_EQ(kv_.held_count(), 2u);
  EXPECT_EQ(kv_.FlushHeld(), 2u);
  EXPECT_EQ(kv_.held_count(), 0u);
  EXPECT_TRUE(kv_.QueueTryPop("q").has_value());
  EXPECT_TRUE(kv_.QueueTryPop("q").has_value());
}

// ---------------------------------------------------------------------------
// Reliable queue layer
// ---------------------------------------------------------------------------

invalidb::ReliableOptions Reliable(uint64_t seed = 9) {
  invalidb::ReliableOptions r;
  r.enabled = true;
  r.seed = seed;
  return r;
}

// The in-process medium's pumps for one sender/receiver pair on "q".
size_t Poll(kv::KvStore* kv, invalidb::ReliableReceiver* receiver,
            const invalidb::ReliableReceiver::Handler& handler) {
  size_t delivered = 0;
  invalidb::DrainKvQueue(kv, "q", [&](const std::string& m) {
    delivered += receiver->Accept(m, handler);
  });
  return delivered;
}

void TakeAcks(kv::KvStore* kv, invalidb::ReliableSender* sender) {
  invalidb::DrainKvQueue(kv, sender->ack_queue(),
                         [&](const std::string& m) { sender->OnAck(m); });
}

// Takes in the queued acks, then retransmits whatever is due.
void Pump(kv::KvStore* kv, invalidb::ReliableSender* sender) {
  TakeAcks(kv, sender);
  sender->Tick();
}

TEST(ReliableQueueTest, EnvelopeRoundTripAndCorruptionDetected) {
  const std::string wire = invalidb::reliable::Encode("s1", 7, "payload");
  auto env = invalidb::reliable::Decode(wire);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->sender, "s1");
  EXPECT_EQ(env->seq, 7u);
  EXPECT_EQ(env->payload, "payload");
  // Raw (non-envelope) messages: NotFound → passthrough.
  EXPECT_TRUE(invalidb::reliable::Decode(R"({"op":"change"})")
                  .status()
                  .IsNotFound());
  // A mutated payload fails the checksum: Corruption, not NotFound.
  std::string mutated = wire;
  const size_t pos = mutated.find("payload");
  ASSERT_NE(pos, std::string::npos);
  mutated[pos] = 'P';
  EXPECT_TRUE(invalidb::reliable::Decode(mutated).status().IsCorruption());
}

TEST(ReliableQueueTest, InOrderDeliveryWithAcks) {
  SimulatedClock clock(0);
  kv::KvStore kv(&clock);
  invalidb::ReliableSender sender(&clock, invalidb::KvQueueSend(&kv), "q",
                                  "s", Reliable());
  invalidb::ReliableReceiver receiver(invalidb::KvQueueSend(&kv), "q");
  sender.Send("m1");
  sender.Send("m2");
  sender.Send("m3");
  EXPECT_EQ(sender.unacked(), 3u);
  std::vector<std::string> got;
  Poll(&kv, &receiver, [&](const std::string& p) { got.push_back(p); });
  EXPECT_EQ(got, (std::vector<std::string>{"m1", "m2", "m3"}));
  Pump(&kv, &sender);  // consume acks
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_EQ(sender.redeliveries(), 0u);
}

TEST(ReliableQueueTest, DuplicatesDroppedReordersBuffered) {
  SimulatedClock clock(0);
  kv::KvStore kv(&clock);
  invalidb::ReliableReceiver receiver(invalidb::KvQueueSend(&kv), "q");
  // Deliver seq 2 before seq 1, then seq 1 twice.
  kv.QueuePush("q", invalidb::reliable::Encode("s", 2, "b"));
  std::vector<std::string> got;
  const auto h = [&](const std::string& p) { got.push_back(p); };
  Poll(&kv, &receiver, h);
  EXPECT_TRUE(got.empty());  // gap: parked
  EXPECT_EQ(receiver.pending(), 1u);
  kv.QueuePush("q", invalidb::reliable::Encode("s", 1, "a"));
  kv.QueuePush("q", invalidb::reliable::Encode("s", 1, "a"));
  Poll(&kv, &receiver, h);
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(receiver.duplicates_dropped(), 1u);
  EXPECT_EQ(receiver.pending(), 0u);
  // Every envelope was acked, duplicates included.
  EXPECT_EQ(kv.QueueLen("q:acks"), 3u);
}

TEST(ReliableQueueTest, LostMessageRetransmittedUntilAcked) {
  SimulatedClock clock(0);
  kv::KvStore kv(&clock);
  invalidb::ReliableOptions opts = Reliable();
  invalidb::ReliableSender sender(&clock, invalidb::KvQueueSend(&kv), "q",
                                  "s", opts);
  invalidb::ReliableReceiver receiver(invalidb::KvQueueSend(&kv), "q");
  sender.Send("precious");
  // The channel eats the message.
  ASSERT_TRUE(kv.QueueTryPop("q").has_value());
  Pump(&kv, &sender);
  EXPECT_EQ(sender.unacked(), 1u);
  // Past the (jittered) retransmit deadline the sender re-sends.
  clock.Advance(opts.retransmit_timeout * 2);
  Pump(&kv, &sender);
  EXPECT_GE(sender.redeliveries(), 1u);
  std::vector<std::string> got;
  Poll(&kv, &receiver, [&](const std::string& p) { got.push_back(p); });
  EXPECT_EQ(got, (std::vector<std::string>{"precious"}));
  Pump(&kv, &sender);
  EXPECT_EQ(sender.unacked(), 0u);
}

TEST(ReliableQueueTest, CorruptedEnvelopeNotAckedThenRecovered) {
  SimulatedClock clock(0);
  kv::KvStore kv(&clock);
  invalidb::ReliableOptions opts = Reliable();
  invalidb::ReliableSender sender(&clock, invalidb::KvQueueSend(&kv), "q",
                                  "s", opts);
  invalidb::ReliableReceiver receiver(invalidb::KvQueueSend(&kv), "q");
  sender.Send("fragile");
  // Corrupt the in-flight envelope's payload (the checksum must catch it).
  std::string wire = kv.QueueTryPop("q").value();
  const size_t pos = wire.find("fragile");
  ASSERT_NE(pos, std::string::npos);
  wire[pos] ^= 0x20;
  kv.QueuePush("q", wire);
  std::vector<std::string> got;
  Poll(&kv, &receiver, [&](const std::string& p) { got.push_back(p); });
  EXPECT_TRUE(got.empty());        // rejected
  EXPECT_EQ(kv.QueueLen("q:acks"), 0u);  // and NOT acked
  // The sender's retransmission delivers the intact copy.
  clock.Advance(opts.retransmit_timeout * 2);
  Pump(&kv, &sender);
  Poll(&kv, &receiver, [&](const std::string& p) { got.push_back(p); });
  EXPECT_EQ(got, (std::vector<std::string>{"fragile"}));
  Pump(&kv, &sender);
  EXPECT_EQ(sender.unacked(), 0u);
}

// Tick must be O(1) while nothing is due: the sender tracks the earliest
// retransmit deadline and skips the scan of the unacked map entirely
// until the clock reaches it. With frequent Ticks (every pump) and deep
// unacked queues, the scan — not the retransmits — used to dominate.
TEST(ReliableQueueTest, TickSkipsRetransmitScanUntilDeadline) {
  SimulatedClock clock(0);
  kv::KvStore kv(&clock);
  invalidb::ReliableOptions opts = Reliable();
  opts.jitter = 0.0;
  invalidb::ReliableSender sender(&clock, invalidb::KvQueueSend(&kv), "q",
                                  "s", opts);
  for (int i = 0; i < 50; ++i) sender.Send("m" + std::to_string(i));
  ASSERT_EQ(sender.unacked(), 50u);

  // Hammer Tick with nothing due: no scan may run.
  const uint64_t scans_before = sender.retransmit_scans();
  for (int i = 0; i < 1000; ++i) {
    clock.Advance(opts.retransmit_timeout / 2000);
    Pump(&kv, &sender);
  }
  EXPECT_EQ(sender.retransmit_scans(), scans_before);
  EXPECT_EQ(sender.redeliveries(), 0u);

  // Cross the deadline: exactly one scan retransmits everything due,
  // then the early-out holds again until the next (backed-off) deadline.
  clock.Advance(opts.retransmit_timeout);
  Pump(&kv, &sender);
  EXPECT_EQ(sender.retransmit_scans(), scans_before + 1);
  EXPECT_EQ(sender.redeliveries(), 50u);
  for (int i = 0; i < 100; ++i) Pump(&kv, &sender);
  EXPECT_EQ(sender.retransmit_scans(), scans_before + 1);

  // Acks clear the queue and retire the deadlines with the messages: an
  // idle sender never scans again — not even one lazy-expiry scan.
  std::vector<std::string> got;
  invalidb::ReliableReceiver receiver(invalidb::KvQueueSend(&kv), "q");
  Poll(&kv, &receiver, [&](const std::string& p) { got.push_back(p); });
  EXPECT_EQ(got.size(), 50u);
  Pump(&kv, &sender);  // consume acks
  ASSERT_EQ(sender.unacked(), 0u);
  const uint64_t idle_scans = sender.retransmit_scans();
  clock.Advance(opts.max_backoff * 8);
  for (int i = 0; i < 100; ++i) Pump(&kv, &sender);
  EXPECT_EQ(sender.retransmit_scans(), idle_scans);
  EXPECT_EQ(sender.redeliveries(), 50u);  // nothing re-sent after acks
}

// Regression: acking the message that held the earliest retransmit
// deadline must retire that deadline with it. The sender used to cache a
// scalar minimum that went stale-low on ack, so the next Tick between
// the dead deadline and the real one paid a full (empty) scan of the
// unacked map for a message that was already gone.
TEST(ReliableQueueTest, AckRetiresEarliestDeadlineWithoutScan) {
  SimulatedClock clock(0);
  kv::KvStore kv(&clock);
  invalidb::ReliableOptions opts = Reliable();
  opts.jitter = 0.0;
  invalidb::ReliableSender sender(&clock, invalidb::KvQueueSend(&kv), "q",
                                  "s", opts);
  invalidb::ReliableReceiver receiver(invalidb::KvQueueSend(&kv), "q");

  sender.Send("m1");  // deadline: t0 + timeout
  clock.Advance(opts.retransmit_timeout / 2);
  sender.Send("m2");  // deadline: t0 + 1.5 * timeout
  // The channel delivers m1 but eats m2, so only m1 gets acked.
  const std::string m1_wire = kv.QueueTryPop("q").value();
  ASSERT_TRUE(kv.QueueTryPop("q").has_value());
  kv.QueuePush("q", m1_wire);
  Poll(&kv, &receiver, [](const std::string&) {});
  TakeAcks(&kv, &sender);
  ASSERT_EQ(sender.unacked(), 1u);  // only m2 remains

  // Between m1's retired deadline and m2's live one nothing is due, so
  // the O(1) early-out must hold — a scan here means the ack left the
  // earliest-deadline tracking stale.
  const uint64_t scans = sender.retransmit_scans();
  clock.Advance(3 * opts.retransmit_timeout / 4);  // t0 + 1.25 * timeout
  Pump(&kv, &sender);
  EXPECT_EQ(sender.retransmit_scans(), scans);
  EXPECT_EQ(sender.redeliveries(), 0u);

  // m2's own deadline still fires on time.
  clock.Advance(opts.retransmit_timeout / 2);  // t0 + 1.75 * timeout
  Pump(&kv, &sender);
  EXPECT_EQ(sender.retransmit_scans(), scans + 1);
  EXPECT_EQ(sender.redeliveries(), 1u);
}

TEST(ReliableQueueTest, ExponentialBackoffCapped) {
  SimulatedClock clock(0);
  kv::KvStore kv(&clock);
  invalidb::ReliableOptions opts = Reliable();
  opts.jitter = 0.0;
  invalidb::ReliableSender sender(&clock, invalidb::KvQueueSend(&kv), "q",
                                  "s", opts);
  sender.Send("x");
  (void)kv.QueueTryPop("q");
  uint64_t redeliveries = 0;
  for (int i = 0; i < 12; ++i) {
    clock.Advance(opts.max_backoff);
    Pump(&kv, &sender);
    (void)kv.QueueTryPop("q");  // channel keeps eating them
    EXPECT_GE(sender.redeliveries(), redeliveries);
    redeliveries = sender.redeliveries();
  }
  // Backoff is capped at max_backoff, so advancing by max_backoff each
  // round keeps triggering retransmits.
  EXPECT_GE(redeliveries, 10u);
}

TEST(ReliableQueueTest, MaxInflightWindowRejectsNewSends) {
  SimulatedClock clock(0);
  kv::KvStore kv(&clock);
  invalidb::ReliableOptions opts = Reliable();
  opts.max_inflight = 3;
  invalidb::ReliableSender sender(&clock, invalidb::KvQueueSend(&kv), "q",
                                  "s", opts);
  EXPECT_TRUE(sender.Send("a").ok());
  EXPECT_TRUE(sender.Send("b").ok());
  EXPECT_TRUE(sender.Send("c").ok());
  EXPECT_TRUE(sender.Send("d").IsResourceExhausted());
  EXPECT_EQ(sender.unacked(), 3u);
  EXPECT_EQ(sender.inflight_rejections(), 1u);
  EXPECT_EQ(kv.QueueLen("q"), 3u);  // the rejected payload never hit the wire

  // Acks open the window again.
  invalidb::ReliableReceiver receiver(invalidb::KvQueueSend(&kv), "q");
  Poll(&kv, &receiver, [](const std::string&) {});
  Pump(&kv, &sender);
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_TRUE(sender.Send("d").ok());

  // The default stays unlimited: transport call sites ignore Send's
  // status, so a bound must be opted into.
  EXPECT_EQ(invalidb::ReliableOptions().max_inflight, 0u);
}

// ---------------------------------------------------------------------------
// Client retry on 503
// ---------------------------------------------------------------------------

TEST(ClientRetryTest, UnavailableSurfacesAfterBudgetAndRecovers) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::QuaestorServer server(&clock, &db);
  ASSERT_TRUE(server.Insert("t", "x", Doc(R"({"v":1})")).ok());
  client::ClientOptions copts;
  copts.retry.enabled = true;
  copts.retry.max_attempts = 3;
  client::QuaestorClient c(&clock, &server, nullptr, nullptr, copts);
  c.Connect();

  server.SetUnavailable(true);
  auto r = c.Read("t", "x");
  EXPECT_TRUE(r.status.IsUnavailable());
  EXPECT_EQ(c.stats().retries, 2u);                // 3 attempts total
  EXPECT_EQ(c.stats().unavailable_failures, 1u);
  EXPECT_GT(r.outcome.latency_ms, 0.0);           // backoff was charged

  server.SetUnavailable(false);
  auto ok = c.Read("t", "x");
  ASSERT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.doc.Find("v")->as_int(), 1);
  EXPECT_EQ(c.stats().unavailable_failures, 1u);
}

TEST(ClientRetryTest, DisabledRetrySurfacesImmediately) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::QuaestorServer server(&clock, &db);
  ASSERT_TRUE(server.Insert("t", "x", Doc(R"({"v":1})")).ok());
  client::QuaestorClient c(&clock, &server, nullptr, nullptr);
  server.SetUnavailable(true);
  auto r = c.Read("t", "x");
  EXPECT_TRUE(r.status.IsUnavailable());
  EXPECT_EQ(c.stats().retries, 0u);
}

TEST(ClientRetryTest, RetryBudgetSuppressesRetryStorms) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::QuaestorServer server(&clock, &db);
  ASSERT_TRUE(server.Insert("t", "x", Doc(R"({"v":1})")).ok());
  client::ClientOptions copts;
  copts.retry.enabled = true;
  copts.retry.max_attempts = 3;
  copts.retry.retry_budget = 3.0;
  copts.retry.budget_refill_per_success = 1.0;
  client::QuaestorClient c(&clock, &server, nullptr, nullptr, copts);
  c.Connect();

  // A long outage: the first failures burn the 3-token budget (2 retries
  // per read), after which retries are suppressed fleet-wide.
  server.SetUnavailable(true);
  (void)c.Read("t", "x");  // 2 retries, 1 token left
  EXPECT_EQ(c.stats().retries, 2u);
  (void)c.Read("t", "x");  // 1 retry, then bucket empty
  EXPECT_EQ(c.stats().retries, 3u);
  EXPECT_EQ(c.stats().retries_suppressed, 1u);
  (void)c.Read("t", "x");  // no tokens at all: fail fast
  EXPECT_EQ(c.stats().retries, 3u);
  EXPECT_EQ(c.stats().retries_suppressed, 2u);

  // Successes refill the bucket and retries resume.
  server.SetUnavailable(false);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(c.Read("t", "x").status.ok());
  server.SetUnavailable(true);
  (void)c.Read("t", "x");
  EXPECT_EQ(c.stats().retries, 5u);
}

// ---------------------------------------------------------------------------
// Server degradation plumbing
// ---------------------------------------------------------------------------

TEST(DegradationTest, ManualDegradeCapsTtls) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::ServerOptions opts;
  opts.degradation.enabled = true;
  opts.degradation.degraded_ttl_cap = 200 * kMicrosPerMilli;
  core::QuaestorServer server(&clock, &db, opts);
  ASSERT_TRUE(server.Insert("t", "x", Doc(R"({"v":1})")).ok());

  webcache::HttpRequest req;
  req.key = "t/x";
  auto healthy = server.Fetch(req);
  ASSERT_TRUE(healthy.ok);
  EXPECT_GT(healthy.ttl, opts.degradation.degraded_ttl_cap);

  server.SetDegraded(true);
  EXPECT_TRUE(server.degraded());
  auto capped = server.Fetch(req);
  ASSERT_TRUE(capped.ok);
  EXPECT_LE(capped.ttl, opts.degradation.degraded_ttl_cap);
  EXPECT_GE(server.stats().degraded_reads, 1u);
  EXPECT_EQ(server.stats().degradation_flips, 1u);

  server.SetDegraded(false);
  EXPECT_FALSE(server.degraded());
  auto again = server.Fetch(req);
  EXPECT_GT(again.ttl, opts.degradation.degraded_ttl_cap);
  EXPECT_EQ(server.stats().degradation_flips, 2u);
}

TEST(DegradationTest, DisabledDegradationIgnoresSignals) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::QuaestorServer server(&clock, &db);  // degradation.enabled = false
  server.SetDegraded(true);
  EXPECT_FALSE(server.degraded());
  server.SetPipelineDown(true);
  EXPECT_FALSE(server.degraded());  // still drops events, but no cap
  EXPECT_TRUE(server.pipeline_health().pipeline_down);
}

TEST(DegradationTest, PipelineDownDropsChangesAndDegrades) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::ServerOptions opts;
  opts.degradation.enabled = true;
  core::QuaestorServer server(&clock, &db, opts);
  server.SetPipelineDown(true);
  EXPECT_TRUE(server.degraded());
  ASSERT_TRUE(server.Insert("t", "x", Doc(R"({"v":1})")).ok());
  EXPECT_EQ(server.stats().change_events_dropped, 1u);
  EXPECT_EQ(server.invalidb().stats().changes_ingested, 0u);

  server.SetPipelineDown(false);
  EXPECT_FALSE(server.degraded());
  ASSERT_TRUE(server.Insert("t", "y", Doc(R"({"v":2})")).ok());
  EXPECT_EQ(server.stats().change_events_dropped, 1u);
  EXPECT_EQ(server.invalidb().stats().changes_ingested, 1u);
}

TEST(DegradationTest, DeadNodeDegradesUntilRestart) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::ServerOptions opts;
  opts.degradation.enabled = true;
  core::QuaestorServer server(&clock, &db, opts);
  server.invalidb().KillNode(0);
  server.invalidb().Flush();
  EXPECT_TRUE(server.degraded());
  auto health = server.pipeline_health();
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.nodes_alive, 0u);
  EXPECT_EQ(health.nodes_total, 1u);
  server.invalidb().RestartNode(
      0, [&](const db::Query& q) { return db.Execute(q); });
  server.invalidb().Flush();
  EXPECT_FALSE(server.degraded());
}

TEST(DegradationTest, ChangeLossRateDropsDeterministically) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::ServerOptions opts;
  opts.fault_change_loss_rate = 1.0;  // every event lost
  core::QuaestorServer server(&clock, &db, opts);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        server.Insert("t", "d" + std::to_string(i), Doc(R"({"v":1})")).ok());
  }
  EXPECT_EQ(server.stats().change_events_dropped, 5u);
  EXPECT_EQ(server.invalidb().stats().changes_ingested, 0u);
}

}  // namespace
}  // namespace quaestor
