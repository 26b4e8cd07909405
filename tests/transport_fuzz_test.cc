// Transport round-trip fuzz: random, truncated, and mutated bytes into
// every wire decoder. Decoders must return an error status — never crash,
// hang, or deliver mutated payloads as valid.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "db/query.h"
#include "db/value.h"
#include "fault/fault_injector.h"
#include "invalidb/reliable_queue.h"
#include "invalidb/transport.h"

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

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t len = rng->NextUint64(max_len + 1);
  std::string s(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>(rng->NextUint64(256));
  }
  return s;
}

// Feeds one message into every decoder; none may crash.
void ExerciseDecoders(const std::string& message) {
  (void)transport::DecodeChangeBatch(message).ok();
  (void)transport::DecodeNotificationBatch(message).ok();
  (void)reliable::Decode(message).ok();
  (void)reliable::DecodeAck(message).ok();
  auto parsed = db::Value::FromJson(message);
  if (parsed.ok()) {
    (void)db::Query::FromSpec(parsed.value()).ok();
    (void)transport::DecodeDocument(parsed.value()).ok();
  }
}

TEST(TransportFuzzTest, RandomBytesNeverCrashDecoders) {
  Rng rng(0xfa22);
  for (int i = 0; i < 5000; ++i) {
    ExerciseDecoders(RandomBytes(&rng, 64));
  }
}

std::vector<std::string> ValidWireMessages() {
  std::vector<std::string> msgs;

  Notification n;
  n.type = NotificationType::kChangeIndex;
  n.query_key = "q:t?a $eq 1";
  n.record_id = "d7";
  n.event_time = 12345;
  n.new_index = 3;
  msgs.push_back(transport::EncodeNotificationBatch({n}));

  db::ChangeEvent ev;
  ev.kind = db::WriteKind::kUpdate;
  ev.after.table = "posts";
  ev.after.id = "p1";
  ev.after.body = Doc(R"({"g":1,"tags":["a","b"]})");
  ev.commit_time = 99;
  msgs.push_back(transport::EncodeChangeBatch({ev}));

  db::Query q = Q("posts", R"({"g":{"$gte":1},"x":"y"})");
  q.SetOrderBy({{"score", false}}).SetLimit(3);
  db::Document init;
  init.table = "posts";
  init.id = "p1";
  init.body = Doc(R"({"g":2})");
  msgs.push_back(transport::EncodeRegister(q, {init}, 7));
  msgs.push_back(transport::EncodeDeregister(q.NormalizedKey()));
  msgs.push_back(transport::EncodeResize(3, 2));

  // Batch envelopes: a multi-event change batch (escaped id stresses the
  // canonical scanner's string fallback), an empty batch, and a
  // notification batch.
  db::ChangeEvent ev2 = ev;
  ev2.kind = db::WriteKind::kDelete;
  ev2.after.deleted = true;
  ev2.after.id = "needs\\escaping\"quote";
  msgs.push_back(transport::EncodeChangeBatch({ev, ev2}));
  msgs.push_back(transport::EncodeChangeBatch({}));
  msgs.push_back(transport::EncodeNotificationBatch({n, n}));

  msgs.push_back(reliable::Encode("sender-1", 42, msgs[0]));
  msgs.push_back(reliable::EncodeAck("sender-1", 42));
  return msgs;
}

TEST(TransportFuzzTest, EveryTruncationOfValidMessagesIsHandled) {
  for (const std::string& wire : ValidWireMessages()) {
    for (size_t cut = 0; cut <= wire.size(); ++cut) {
      ExerciseDecoders(wire.substr(0, cut));
    }
  }
}

TEST(TransportFuzzTest, MutatedValidMessagesAreHandled) {
  fault::FaultProfile profile;
  profile.corrupt_rate = 1.0;
  fault::FaultInjector injector(0xc0de, profile);
  for (const std::string& wire : ValidWireMessages()) {
    for (int round = 0; round < 300; ++round) {
      std::string mutated = wire;
      injector.Corrupt(&mutated);
      ExerciseDecoders(mutated);
    }
  }
}

TEST(TransportFuzzTest, CorruptedEnvelopesNeverDeliverMutatedPayloads) {
  fault::FaultProfile profile;
  profile.corrupt_rate = 1.0;
  fault::FaultInjector injector(0xbeef, profile);
  const std::string payload = R"({"op":"change","table":"t"})";
  const std::string wire = reliable::Encode("s", 1, payload);
  for (int round = 0; round < 500; ++round) {
    std::string mutated = wire;
    injector.Corrupt(&mutated);
    auto env = reliable::Decode(mutated);
    if (env.ok()) {
      // A mutation that still decodes must have left the envelope's
      // protected content intact (e.g. zeros spliced before the seq).
      EXPECT_EQ(env->payload, payload);
      EXPECT_EQ(env->sender, "s");
      EXPECT_EQ(env->seq, 1u);
    }
  }
  // Two header mutations a random splice rarely hits: a seq that
  // overflows uint64_t, and a header cut before its newline.
  const std::string overflow = "18446744073709551617" + wire.substr(1);
  const std::string no_newline = wire.substr(0, wire.find('\n'));
  for (const std::string& mutated : {overflow, no_newline}) {
    EXPECT_TRUE(reliable::Decode(mutated).status().IsCorruption())
        << mutated;
    ExerciseDecoders(mutated);
  }
}

TEST(TransportFuzzTest, WorkerSurvivesGarbageOnItsRequestQueue) {
  SimulatedClock clock(0);
  LoopbackLink to_worker;
  LoopbackLink to_remote;
  InvalidbWorker worker(&clock, to_remote.sender(), "fz");
  to_worker.Attach(&worker);

  Rng rng(0x5eed);
  fault::FaultProfile profile;
  profile.corrupt_rate = 1.0;
  fault::FaultInjector injector(0x5eed, profile);
  const std::vector<std::string> valid = ValidWireMessages();

  size_t pushed = 0;
  for (int i = 0; i < 400; ++i) {
    std::string msg;
    if (i % 3 == 0) {
      msg = RandomBytes(&rng, 48);
    } else {
      msg = valid[rng.NextUint64(valid.size())];
      injector.Corrupt(&msg);
    }
    // In an intact envelope, so the garbage reaches the worker's decoders.
    to_worker.Send("fz:requests", reliable::Encode("fuzz", ++pushed, msg));
  }
  // The worker counts every delivered request as handled, a malformed one
  // included; the queue must drain.
  const size_t handled = to_worker.Pump();
  EXPECT_EQ(handled, pushed);
  EXPECT_EQ(to_worker.pending(), 0u);
  EXPECT_GT(worker.decode_errors(), 0u);

  // The worker still functions after the garbage storm.
  db::Query q = Q("posts", R"({"g":1})");
  to_worker.Send("fz:requests", reliable::Encode("fuzz", ++pushed,
                                                 transport::EncodeRegister(
                                                     q, {}, 0)));
  to_worker.Pump();
  EXPECT_TRUE(worker.cluster().IsRegistered(q.NormalizedKey()));
}

// A batch envelope is all-or-nothing at the worker: a torn or inner-
// corrupt batch is dropped whole (one decode error, zero events applied)
// and an empty batch is a harmless no-op — never a crash, never a
// half-applied prefix.
TEST(TransportFuzzTest, WorkerDropsTornBatchesWhole) {
  SimulatedClock clock(0);
  LoopbackLink to_worker;
  LoopbackLink to_remote;
  std::vector<Notification> received;
  InvalidbWorker worker(&clock, to_remote.sender(), "tb");
  InvalidbRemote remote(&clock, to_worker.sender(), "tb",
                        [&](const std::vector<Notification>& batch) {
                          received.insert(received.end(), batch.begin(),
                                          batch.end());
                        });
  to_worker.Attach(&worker);
  to_remote.Attach(&remote);
  uint64_t seq = 0;
  const auto send = [&](const std::string& request) {
    to_worker.Send("tb:requests", reliable::Encode("test", ++seq, request));
  };
  db::Query q = Q("posts", R"({"g":1})");
  send(transport::EncodeRegister(q, {}, 0));

  std::vector<db::ChangeEvent> events;
  for (int i = 0; i < 3; ++i) {
    db::ChangeEvent ev;
    ev.kind = db::WriteKind::kUpdate;
    ev.after.table = "posts";
    ev.after.id = "p" + std::to_string(i);
    ev.after.body = Doc(R"({"g":1})");
    ev.commit_time = i + 1;
    ev.after.write_time = ev.commit_time;
    events.push_back(std::move(ev));
  }
  const std::string whole = transport::EncodeChangeBatch(events);

  // Truncated batch: even though the first two event specs are intact,
  // none of the three may be matched.
  send(whole.substr(0, whole.size() - 12));
  // Corrupt inner event (second of three): same all-or-nothing rule.
  std::string corrupt = whole;
  corrupt.replace(corrupt.find("\"id\":\"p1\""), 9, "\"id\":12345");
  send(corrupt);
  // Empty batch: decodes fine, applies nothing.
  send(transport::EncodeChangeBatch({}));
  to_worker.Pump();
  to_remote.Pump();
  EXPECT_EQ(worker.decode_errors(), 2u);
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(worker.cluster().stats().changes_ingested, 0u);

  // The intact batch still flows after the torn ones were dropped.
  send(whole);
  to_worker.Pump();
  to_remote.Pump();
  EXPECT_EQ(received.size(), 3u);
  EXPECT_EQ(worker.cluster().stats().changes_ingested, 3u);
}

TEST(TransportFuzzTest, RemoteSurvivesGarbageOnItsNotificationQueue) {
  SimulatedClock clock(0);
  LoopbackLink to_worker;
  LoopbackLink to_remote;
  std::vector<Notification> received;
  InvalidbRemote remote(&clock, to_worker.sender(), "fz",
                        [&](const std::vector<Notification>& batch) {
                          received.insert(received.end(), batch.begin(),
                                          batch.end());
                        });
  to_remote.Attach(&remote);

  // Garbage both around the envelope and inside intact ones.
  Rng rng(0xdead);
  uint64_t seq = 0;
  for (int i = 0; i < 300; ++i) {
    std::string garbage = RandomBytes(&rng, 48);
    if (i % 2 == 0) garbage = reliable::Encode("invalidb", ++seq, garbage);
    to_remote.Send("fz:notifications", garbage);
  }
  Notification n;
  n.type = NotificationType::kAdd;
  n.query_key = "k";
  n.record_id = "r";
  to_remote.Send("fz:notifications",
                 reliable::Encode("invalidb", ++seq,
                                  transport::EncodeNotificationBatch({n})));
  to_remote.Pump();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].record_id, "r");
  EXPECT_GT(remote.decode_errors(), 0u);
}

}  // namespace
}  // namespace quaestor::invalidb
