// Fault-injection building blocks: the seeded injector, the lossy send
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
#include "fault/faulty_send.h"
#include "invalidb/cluster.h"
#include "invalidb/reliable_queue.h"
#include "invalidb/transport.h"
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

// Removes every message queued on `link` and returns them in send order.
std::vector<std::string> TakeAll(invalidb::LoopbackLink* link) {
  std::vector<std::string> out;
  link->Drain([&](const std::string&, const std::string& m) {
    out.push_back(m);
    return size_t{0};
  });
  return out;
}

// ---------------------------------------------------------------------------
// FaultySend
// ---------------------------------------------------------------------------

class FaultySendTest : public ::testing::Test {
 protected:
  FaultySendTest()
      : clock_(0), injector_(1), send_(&clock_, &injector_, link_.sender()) {}

  void SetProfile(const fault::FaultProfile& p) { injector_.set_profile(p); }

  SimulatedClock clock_;
  fault::FaultInjector injector_;
  invalidb::LoopbackLink link_;
  fault::FaultySend send_;
};

TEST_F(FaultySendTest, LosslessProfilePassesThrough) {
  send_.Send("q", "a");
  send_.Send("q", "b");
  EXPECT_EQ(link_.pending(), 2u);
  EXPECT_EQ(TakeAll(&link_), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(link_.pending(), 0u);
}

TEST_F(FaultySendTest, DropRateOneLosesEverything) {
  fault::FaultProfile p;
  p.drop_rate = 1.0;
  SetProfile(p);
  send_.Send("q", "gone");
  EXPECT_EQ(link_.pending(), 0u);
  EXPECT_EQ(send_.held_count(), 0u);
  EXPECT_TRUE(TakeAll(&link_).empty());
  EXPECT_EQ(injector_.stats().dropped, 1u);
}

TEST_F(FaultySendTest, DuplicateRateOneDeliversTwice) {
  fault::FaultProfile p;
  p.duplicate_rate = 1.0;
  SetProfile(p);
  send_.Send("q", "twin");
  EXPECT_EQ(link_.pending(), 2u);
  EXPECT_EQ(TakeAll(&link_), (std::vector<std::string>{"twin", "twin"}));
}

TEST_F(FaultySendTest, DelayedMessageReleasedAfterDue) {
  fault::FaultProfile p;
  p.delay_rate = 1.0;
  p.max_delay = 1000;
  SetProfile(p);
  send_.Send("q", "late");
  SetProfile(fault::FaultProfile());
  // Held, not yet on the link.
  EXPECT_EQ(send_.held_count(), 1u);
  EXPECT_EQ(link_.pending(), 0u);
  EXPECT_EQ(send_.Release(), 0u);
  EXPECT_TRUE(TakeAll(&link_).empty());
  clock_.Advance(1001);
  EXPECT_EQ(send_.Release(), 1u);
  EXPECT_EQ(TakeAll(&link_), (std::vector<std::string>{"late"}));
  EXPECT_EQ(send_.held_count(), 0u);
}

TEST_F(FaultySendTest, ReorderedMessageOvertakenByLaterSends) {
  fault::FaultProfile p;
  p.reorder_rate = 1.0;
  SetProfile(p);
  send_.Send("q", "first");
  SetProfile(fault::FaultProfile());
  EXPECT_EQ(send_.held_count(), 1u);
  // At most 3 subsequent sends release it, behind at least one of them.
  for (int i = 0; i < 4; ++i) send_.Send("q", "later" + std::to_string(i));
  const std::vector<std::string> order = TakeAll(&link_);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(send_.held_count(), 0u);
  // "first" was overtaken: it is not at the front any more.
  EXPECT_NE(order.front(), "first");
  EXPECT_NE(std::find(order.begin(), order.end(), "first"), order.end());
}

TEST_F(FaultySendTest, FlushHeldReleasesEverything) {
  fault::FaultProfile p;
  p.delay_rate = 1.0;
  p.max_delay = 1000000;
  SetProfile(p);
  send_.Send("q", "a");
  send_.Send("q", "b");
  SetProfile(fault::FaultProfile());
  EXPECT_EQ(send_.held_count(), 2u);
  EXPECT_EQ(send_.FlushHeld(), 2u);
  EXPECT_EQ(send_.held_count(), 0u);
  EXPECT_EQ(TakeAll(&link_).size(), 2u);
}

// ---------------------------------------------------------------------------
// Reliable queue layer
// ---------------------------------------------------------------------------

invalidb::ReliableOptions Reliable(uint64_t seed = 9) {
  invalidb::ReliableOptions r;
  r.seed = seed;
  return r;
}

// One sender/receiver pair on "q": `wire` carries the sender's messages
// to the receiver, `acks` the receiver's acks back. The pumps below hand
// what each link holds to its end.
struct Channel {
  invalidb::LoopbackLink wire;
  invalidb::LoopbackLink acks;
};

size_t Poll(Channel* ch, invalidb::ReliableReceiver* receiver,
            const invalidb::ReliableReceiver::Handler& handler) {
  return ch->wire.Drain([&](const std::string&, const std::string& m) {
    return receiver->Accept(m, handler).value_or(0);
  });
}

void TakeAcks(Channel* ch, invalidb::ReliableSender* sender) {
  ch->acks.Drain([&](const std::string&, const std::string& m) {
    sender->OnAck(m);
    return size_t{0};
  });
}

// Takes in the queued acks, then retransmits whatever is due.
void Pump(Channel* ch, invalidb::ReliableSender* sender) {
  TakeAcks(ch, sender);
  sender->Tick();
}

TEST(ReliableQueueTest, EnvelopeRoundTripAndCorruptionDetected) {
  const std::string wire = invalidb::reliable::Encode("s1", 7, "payload");
  auto env = invalidb::reliable::Decode(wire);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->sender, "s1");
  EXPECT_EQ(env->seq, 7u);
  EXPECT_EQ(env->payload, "payload");
  // A message that is no envelope is Corruption: here JSON, a non-digit
  // or negative seq, a header cut short or without its newline, and seq
  // 0, which is never sent, even under a matching checksum.
  const std::string rest = wire.substr(wire.find(' '));  // " <sum> s1\n..."
  for (const std::string& bad :
       {std::string(R"({"op":"change"})"), "x" + rest, "-7" + rest,
        std::string("7"), wire.substr(0, wire.find('\n')),
        invalidb::reliable::Encode("s1", 0, "payload")}) {
    EXPECT_TRUE(invalidb::reliable::Decode(bad).status().IsCorruption())
        << bad;
  }
  // So is a mutated payload, which fails the checksum.
  std::string mutated = wire;
  const size_t pos = mutated.find("payload");
  ASSERT_NE(pos, std::string::npos);
  mutated[pos] = 'P';
  EXPECT_TRUE(invalidb::reliable::Decode(mutated).status().IsCorruption());

  auto ack = invalidb::reliable::DecodeAck(
      invalidb::reliable::EncodeAck("s1", 12));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->sender, "s1");
  EXPECT_EQ(ack->seq, 12u);
  for (const char* bad : {"", "12", "12s1", "x s1", "0 s1",
                          "18446744073709551616 s1"}) {
    EXPECT_TRUE(invalidb::reliable::DecodeAck(bad).status().IsCorruption())
        << bad;
  }
}

TEST(ReliableQueueTest, InOrderDeliveryWithAcks) {
  SimulatedClock clock(0);
  Channel ch;
  invalidb::ReliableSender sender(&clock, ch.wire.sender(), "q", "s",
                                  Reliable());
  invalidb::ReliableReceiver receiver(&clock, ch.acks.sender(), "q");
  sender.Send("m1");
  sender.Send("m2");
  sender.Send("m3");
  EXPECT_EQ(sender.unacked(), 3u);
  std::vector<std::string> got;
  Poll(&ch, &receiver, [&](const std::string& p) { got.push_back(p); });
  EXPECT_EQ(got, (std::vector<std::string>{"m1", "m2", "m3"}));
  EXPECT_EQ(ch.acks.pending(), 0u);  // acks wait for SendAcks
  EXPECT_EQ(receiver.SendAcks(), 1u);
  Pump(&ch, &sender);  // consume the ack
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_EQ(sender.redeliveries(), 0u);
}

TEST(ReliableQueueTest, DuplicatesDroppedReordersBuffered) {
  SimulatedClock clock(0);
  Channel ch;
  invalidb::ReliableReceiver receiver(&clock, ch.acks.sender(), "q");
  // Deliver seq 2 before seq 1, then seq 1 twice.
  ch.wire.Send("q", invalidb::reliable::Encode("s", 2, "b"));
  std::vector<std::string> got;
  const auto h = [&](const std::string& p) { got.push_back(p); };
  Poll(&ch, &receiver, h);
  EXPECT_TRUE(got.empty());  // gap: parked
  EXPECT_EQ(receiver.pending(), 1u);
  // Nothing is delivered contiguously yet, so there is no floor to ack.
  EXPECT_EQ(receiver.SendAcks(), 0u);
  ch.wire.Send("q", invalidb::reliable::Encode("s", 1, "a"));
  ch.wire.Send("q", invalidb::reliable::Encode("s", 1, "a"));
  Poll(&ch, &receiver, h);
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(receiver.duplicates_dropped(), 1u);
  EXPECT_EQ(receiver.pending(), 0u);
  // One cumulative ack covers the released run.
  EXPECT_EQ(receiver.SendAcks(), 1u);
  std::vector<std::string> acks = TakeAll(&ch.acks);
  ASSERT_EQ(acks.size(), 1u);
  auto ack = invalidb::reliable::DecodeAck(acks[0]);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->sender, "s");
  EXPECT_EQ(ack->seq, 2u);
}

// Every envelope delivered inside one kAckInterval shares one ack, which
// retires all of them; a redelivered duplicate owes one more, since the
// ack for its first copy may have been lost.
TEST(ReliableQueueTest, AcksCoalesceWithinOneInterval) {
  SimulatedClock clock(0);
  Channel ch;
  invalidb::ReliableSender sender(&clock, ch.wire.sender(), "q", "s",
                                  Reliable());
  invalidb::ReliableReceiver receiver(&clock, ch.acks.sender(), "q");
  const auto ignore = [](const std::string&) {};
  // The first ack goes out at once and opens an interval.
  sender.Send("m0");
  Poll(&ch, &receiver, ignore);
  EXPECT_EQ(receiver.SendAcks(), 1u);
  TakeAcks(&ch, &sender);
  ASSERT_EQ(sender.unacked(), 0u);

  constexpr int kN = 8;
  for (int i = 1; i <= kN; ++i) {
    clock.Advance(invalidb::kAckInterval / (kN + 1));
    sender.Send("m" + std::to_string(i));
    Poll(&ch, &receiver, ignore);
    EXPECT_EQ(receiver.SendAcks(), 0u) << i;  // a pump cycle's tick
  }
  EXPECT_EQ(ch.acks.pending(), 0u);
  EXPECT_EQ(sender.unacked(), static_cast<size_t>(kN));

  clock.Advance(invalidb::kAckInterval);
  EXPECT_EQ(receiver.SendAcks(), 1u);
  EXPECT_EQ(ch.acks.pending(), 1u);
  TakeAcks(&ch, &sender);
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_EQ(receiver.SendAcks(), 0u);  // nothing owed

  ch.wire.Send("q", invalidb::reliable::Encode("s", kN, "m8"));
  Poll(&ch, &receiver, ignore);
  EXPECT_EQ(receiver.duplicates_dropped(), 1u);
  clock.Advance(invalidb::kAckInterval);
  EXPECT_EQ(receiver.SendAcks(), 1u);
  EXPECT_EQ(ch.acks.pending(), 1u);
}

TEST(ReliableQueueTest, LostMessageRetransmittedUntilAcked) {
  SimulatedClock clock(0);
  Channel ch;
  invalidb::ReliableOptions opts = Reliable();
  invalidb::ReliableSender sender(&clock, ch.wire.sender(), "q", "s",
                                  opts);
  invalidb::ReliableReceiver receiver(&clock, ch.acks.sender(), "q");
  sender.Send("precious");
  // The channel eats the message.
  ASSERT_EQ(TakeAll(&ch.wire).size(), 1u);
  Pump(&ch, &sender);
  EXPECT_EQ(sender.unacked(), 1u);
  // Past the (jittered) retransmit deadline the sender re-sends.
  clock.Advance(opts.retransmit_timeout * 2);
  Pump(&ch, &sender);
  EXPECT_GE(sender.redeliveries(), 1u);
  std::vector<std::string> got;
  Poll(&ch, &receiver, [&](const std::string& p) { got.push_back(p); });
  EXPECT_EQ(got, (std::vector<std::string>{"precious"}));
  receiver.SendAcks();
  Pump(&ch, &sender);
  EXPECT_EQ(sender.unacked(), 0u);
}

TEST(ReliableQueueTest, CorruptedEnvelopeNotAckedThenRecovered) {
  SimulatedClock clock(0);
  Channel ch;
  invalidb::ReliableOptions opts = Reliable();
  invalidb::ReliableSender sender(&clock, ch.wire.sender(), "q", "s",
                                  opts);
  invalidb::ReliableReceiver receiver(&clock, ch.acks.sender(), "q");
  sender.Send("fragile");
  // Corrupt the in-flight envelope's payload (the checksum must catch it).
  std::string wire = TakeAll(&ch.wire).at(0);
  const size_t pos = wire.find("fragile");
  ASSERT_NE(pos, std::string::npos);
  wire[pos] ^= 0x20;
  ch.wire.Send("q", wire);
  std::vector<std::string> got;
  Poll(&ch, &receiver, [&](const std::string& p) { got.push_back(p); });
  EXPECT_TRUE(got.empty());              // rejected
  EXPECT_EQ(receiver.SendAcks(), 0u);    // and NOT acked
  EXPECT_EQ(ch.acks.pending(), 0u);
  // The sender's retransmission delivers the intact copy.
  clock.Advance(opts.retransmit_timeout * 2);
  Pump(&ch, &sender);
  Poll(&ch, &receiver, [&](const std::string& p) { got.push_back(p); });
  EXPECT_EQ(got, (std::vector<std::string>{"fragile"}));
  EXPECT_EQ(receiver.SendAcks(), 1u);
  Pump(&ch, &sender);
  EXPECT_EQ(sender.unacked(), 0u);
}

// Tick must be O(1) while nothing is due: the sender compares the clock
// with the oldest unacked message's deadline and touches nothing else
// until the clock reaches it. With frequent Ticks (every pump) and deep
// unacked queues, a scan per tick would dominate.
TEST(ReliableQueueTest, TickSkipsRetransmitScanUntilDeadline) {
  SimulatedClock clock(0);
  Channel ch;
  invalidb::ReliableOptions opts = Reliable();
  opts.jitter = 0.0;
  invalidb::ReliableSender sender(&clock, ch.wire.sender(), "q", "s",
                                  opts);
  for (int i = 0; i < 50; ++i) sender.Send("m" + std::to_string(i));
  ASSERT_EQ(sender.unacked(), 50u);

  // Hammer Tick with nothing due: no scan may run.
  const uint64_t scans_before = sender.retransmit_scans();
  for (int i = 0; i < 1000; ++i) {
    clock.Advance(opts.retransmit_timeout / 2000);
    Pump(&ch, &sender);
  }
  EXPECT_EQ(sender.retransmit_scans(), scans_before);
  EXPECT_EQ(sender.redeliveries(), 0u);

  // Cross the deadline: exactly one scan retransmits the unacked run,
  // then the early-out holds again until the next (backed-off) deadline.
  clock.Advance(opts.retransmit_timeout);
  Pump(&ch, &sender);
  EXPECT_EQ(sender.retransmit_scans(), scans_before + 1);
  EXPECT_EQ(sender.redeliveries(), 50u);
  for (int i = 0; i < 100; ++i) Pump(&ch, &sender);
  EXPECT_EQ(sender.retransmit_scans(), scans_before + 1);

  // One ack clears the queue and disarms the timer: an idle sender never
  // scans again.
  std::vector<std::string> got;
  invalidb::ReliableReceiver receiver(&clock, ch.acks.sender(), "q");
  Poll(&ch, &receiver, [&](const std::string& p) { got.push_back(p); });
  EXPECT_EQ(got.size(), 50u);
  EXPECT_EQ(receiver.SendAcks(), 1u);
  Pump(&ch, &sender);  // consume the ack
  ASSERT_EQ(sender.unacked(), 0u);
  const uint64_t idle_scans = sender.retransmit_scans();
  clock.Advance(opts.max_backoff * 8);
  for (int i = 0; i < 100; ++i) Pump(&ch, &sender);
  EXPECT_EQ(sender.retransmit_scans(), idle_scans);
  EXPECT_EQ(sender.redeliveries(), 50u);  // nothing re-sent after acks
}

TEST(ReliableQueueTest, ExponentialBackoffCapped) {
  SimulatedClock clock(0);
  Channel ch;
  invalidb::ReliableOptions opts = Reliable();
  opts.jitter = 0.0;
  invalidb::ReliableSender sender(&clock, ch.wire.sender(), "q", "s",
                                  opts);
  sender.Send("x");
  (void)TakeAll(&ch.wire);
  uint64_t redeliveries = 0;
  for (int i = 0; i < 12; ++i) {
    clock.Advance(opts.max_backoff);
    Pump(&ch, &sender);
    (void)TakeAll(&ch.wire);  // channel keeps eating them
    EXPECT_GE(sender.redeliveries(), redeliveries);
    redeliveries = sender.redeliveries();
  }
  // Backoff is capped at max_backoff, so advancing by max_backoff each
  // round keeps triggering retransmits.
  EXPECT_GE(redeliveries, 10u);
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
  server.ResizeInvalidb(1, 1);
  EXPECT_FALSE(server.degraded());
  EXPECT_EQ(server.pipeline_health().nodes_alive, 1u);
}

// degraded() asks the installed pipeline: with a second cluster carrying
// the data path, its dead node degrades the server, and one of the idle
// own cluster does not. The health endpoint's node counts keep describing
// the own cluster.
TEST(DegradationTest, DeadNodeOfInstalledPipelineDegradesUntilRestart) {
  SimulatedClock clock(0);
  db::Database db(&clock);
  core::ServerOptions opts;
  opts.degradation.enabled = true;
  core::QuaestorServer server(&clock, &db, opts);
  invalidb::InvalidbCluster pipeline(
      &clock, invalidb::InvalidbOptions(),
      [&server](const std::vector<invalidb::Notification>& batch) {
        server.OnNotificationBatch(batch);
      });
  server.SetPipeline(&pipeline);
  pipeline.KillNode(0);
  pipeline.Flush();
  EXPECT_TRUE(server.degraded());
  auto health = server.pipeline_health();
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.nodes_alive, 1u);
  EXPECT_EQ(health.nodes_total, 1u);
  pipeline.Resize(1, 1, [&](const db::Query& q) { return db.Execute(q); });
  EXPECT_FALSE(server.degraded());

  server.invalidb().KillNode(0);
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
