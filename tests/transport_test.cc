#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "db/query.h"
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

db::ChangeEvent Change(const char* table, const char* id, const char* body,
                       Micros at = 0) {
  db::ChangeEvent ev;
  ev.kind = db::WriteKind::kUpdate;
  ev.after.table = table;
  ev.after.id = id;
  ev.after.body = Doc(body);
  ev.after.write_time = at;
  ev.commit_time = at;
  return ev;
}

// ---------------------------------------------------------------------------
// Query spec round trips (wire format prerequisite)
// ---------------------------------------------------------------------------

TEST(QuerySpecTest, StatelessRoundTrip) {
  db::Query q = Q("posts", R"({"tags":{"$contains":"x"},"n":{"$gte":3}})");
  auto back = db::Query::FromSpec(q.ToSpec());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->NormalizedKey(), q.NormalizedKey());
}

TEST(QuerySpecTest, StatefulRoundTrip) {
  db::Query q = Q("posts", R"({"$or":[{"a":1},{"b":{"$lt":2}}]})");
  q.SetOrderBy({{"score", false}, {"title", true}}).SetLimit(5).SetOffset(2);
  auto back = db::Query::FromSpec(q.ToSpec());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NormalizedKey(), q.NormalizedKey());
  EXPECT_EQ(back->limit(), 5);
  EXPECT_EQ(back->offset(), 2);
  ASSERT_EQ(back->order_by().size(), 2u);
  EXPECT_FALSE(back->order_by()[0].ascending);
}

TEST(QuerySpecTest, NotAndEmptyRoundTrip) {
  db::Query q = Q("t", R"({"$not":{"a":1}})");
  auto back = db::Query::FromSpec(q.ToSpec());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NormalizedKey(), q.NormalizedKey());
  db::Query empty = Q("t", "{}");
  auto back2 = db::Query::FromSpec(empty.ToSpec());
  ASSERT_TRUE(back2.ok());
  EXPECT_EQ(back2->NormalizedKey(), empty.NormalizedKey());
}

TEST(QuerySpecTest, RejectsMalformed) {
  EXPECT_FALSE(db::Query::FromSpec(db::Value(5)).ok());
  EXPECT_FALSE(db::Query::FromSpec(Doc(R"({"filter":{}})")).ok());
  EXPECT_FALSE(db::Query::FromSpec(Doc(R"({"table":"t"})")).ok());
}

// ---------------------------------------------------------------------------
// Message encode/decode
// ---------------------------------------------------------------------------

TEST(TransportCodecTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(
      transport::DecodeNotificationBatch(std::string("not json")).ok());
  EXPECT_FALSE(transport::DecodeNotificationBatch(std::string("{}")).ok());
  // A bare notification spec is no envelope.
  EXPECT_FALSE(transport::DecodeNotificationBatch(
                   std::string(R"({"event_time":1,"new_index":-1,)"
                               R"("query_key":"k","record_id":"r",)"
                               R"("type":0})"))
                   .ok());
  // A well-formed envelope whose element is a malformed spec (valid JSON,
  // bad field).
  EXPECT_FALSE(transport::DecodeNotificationBatch(
                   std::string(R"({"notifications":[{"type":"x"}],)"
                               R"("op":"notify_batch"})"))
                   .ok());
}

// ---------------------------------------------------------------------------
// Golden wire bytes: single-pass encoders == tree serialization
// ---------------------------------------------------------------------------

// The encoders build canonical JSON in one append pass; these literals pin
// the exact bytes (key order, escaping, no whitespace). The FromJson →
// ToJson round trip then pins the deeper property the fast-path decoders
// rely on: the hand-built bytes are exactly what serializing the
// equivalent db::Value tree would produce.
std::string Canonicalize(const std::string& json) {
  auto v = db::Value::FromJson(json);
  EXPECT_TRUE(v.ok()) << json;
  return v->ToJson();
}

TEST(TransportGoldenTest, BatchEnvelopeBytes) {
  db::ChangeEvent update;
  update.kind = db::WriteKind::kUpdate;
  update.after.table = "posts";
  update.after.id = "p\"1\\x";  // escaping is part of the golden surface
  update.after.version = 7;
  update.after.write_time = 42;
  update.after.body = Doc(R"({"z":[1,null],"a":"x"})");  // sorted on encode
  update.commit_time = 43;
  db::ChangeEvent del;
  del.kind = db::WriteKind::kDelete;
  del.after.table = "t";
  del.after.id = "d1";
  del.after.deleted = true;
  del.after.body = Doc(R"({"g":1})");
  del.after.write_time = 5;
  del.commit_time = 6;
  const std::string batch = transport::EncodeChangeBatch({update, del});
  EXPECT_EQ(batch,
            "{\"events\":["
            "{\"after\":{\"body\":{\"a\":\"x\",\"z\":[1,null]},"
            "\"deleted\":false,\"id\":\"p\\\"1\\\\x\",\"table\":\"posts\","
            "\"version\":7,\"write_time\":42},\"commit_time\":43,"
            "\"kind\":1},"
            "{\"after\":{\"body\":{\"g\":1},\"deleted\":true,\"id\":\"d1\","
            "\"table\":\"t\",\"version\":0,\"write_time\":5},"
            "\"commit_time\":6,\"kind\":2}"
            "],\"op\":\"change_batch\"}");
  EXPECT_EQ(batch, Canonicalize(batch));
  EXPECT_EQ(transport::EncodeChangeBatch({}),
            "{\"events\":[],\"op\":\"change_batch\"}");

  Notification add;
  add.type = NotificationType::kAdd;
  add.query_key = "k";
  add.record_id = "r";
  add.event_time = 9;
  Notification move;
  move.type = NotificationType::kChangeIndex;
  move.query_key = "q:t?a $eq 1";
  move.record_id = "d7";
  move.event_time = 12345;
  move.new_index = 3;
  const std::string nb = transport::EncodeNotificationBatch({add, move});
  EXPECT_EQ(nb,
            "{\"notifications\":[{\"event_time\":9,\"new_index\":-1,"
            "\"query_key\":\"k\",\"record_id\":\"r\",\"type\":0},"
            "{\"event_time\":12345,\"new_index\":3,"
            "\"query_key\":\"q:t?a $eq 1\",\"record_id\":\"d7\",\"type\":3}],"
            "\"op\":\"notify_batch\"}");
  EXPECT_EQ(nb, Canonicalize(nb));
}

// ---------------------------------------------------------------------------
// Batch envelope decode: round trips and rejection
// ---------------------------------------------------------------------------

std::vector<db::ChangeEvent> SampleEvents() {
  std::vector<db::ChangeEvent> events;
  events.push_back(Change("t", "a", R"({"g":1})", 10));
  db::ChangeEvent del;
  del.kind = db::WriteKind::kDelete;
  del.after.table = "t";
  del.after.id = "esc\"aped\\id";  // forces the scanner's unescape path
  del.after.deleted = true;
  del.after.body = Doc(R"({"nested":{"deep":[1,2,{"x":null}]}})");
  del.after.version = 3;
  del.after.write_time = 11;
  del.commit_time = 12;
  events.push_back(std::move(del));
  return events;
}

void ExpectSameEvents(const std::vector<db::ChangeEvent>& got,
                      const std::vector<db::ChangeEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].commit_time, want[i].commit_time) << i;
    EXPECT_EQ(got[i].after.table, want[i].after.table) << i;
    EXPECT_EQ(got[i].after.id, want[i].after.id) << i;
    EXPECT_EQ(got[i].after.version, want[i].after.version) << i;
    EXPECT_EQ(got[i].after.write_time, want[i].after.write_time) << i;
    EXPECT_EQ(got[i].after.deleted, want[i].after.deleted) << i;
    EXPECT_EQ(got[i].after.body.ToJson(), want[i].after.body.ToJson()) << i;
  }
}

TEST(TransportCodecTest, ChangeBatchRoundTrip) {
  const std::vector<db::ChangeEvent> events = SampleEvents();
  auto back = transport::DecodeChangeBatch(transport::EncodeChangeBatch(events));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameEvents(back.value(), events);

  auto empty = transport::DecodeChangeBatch(transport::EncodeChangeBatch({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(TransportCodecTest, NotificationBatchRoundTrip) {
  std::vector<Notification> batch;
  for (int i = 0; i < 4; ++i) {  // every type, kChangeIndex included
    Notification n;
    n.type = static_cast<NotificationType>(i);
    n.query_key = "q\"" + std::to_string(i);
    n.record_id = "r" + std::to_string(i);
    n.event_time = 100 + i;
    n.new_index = i - 1;
    batch.push_back(std::move(n));
  }
  auto back = transport::DecodeNotificationBatch(
      transport::EncodeNotificationBatch(batch));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ((*back)[i].type, batch[i].type);
    EXPECT_EQ((*back)[i].query_key, batch[i].query_key);
    EXPECT_EQ((*back)[i].record_id, batch[i].record_id);
    EXPECT_EQ((*back)[i].event_time, batch[i].event_time);
    EXPECT_EQ((*back)[i].new_index, batch[i].new_index);
  }
}

// Seeded random batches decode equal to what was encoded: strings with
// quotes, backslashes, control characters and multi-byte UTF-8, integers
// at and past 2^53 and negative ones, and the empty batch.
std::string RandomText(Rng* rng) {
  static const char* const kPieces[] = {
      "a",  "Z",  "9",  " ",  "\"", "\\", "\n", "\t", "\x01",
      "\x1f", "{",  "]",  ",",  ":",  "\xc3\xa9", "\xe2\x82\xac",
      "\xf0\x9f\x98\x80"};
  std::string s;
  for (uint64_t n = rng->NextUint64(8); n > 0; --n) {
    s += kPieces[rng->NextUint64(std::size(kPieces))];
  }
  return s;
}

int64_t RandomInt(Rng* rng) {
  static const int64_t kEdges[] = {0,
                                   -1,
                                   int64_t{1} << 53,
                                   (int64_t{1} << 53) + 1,
                                   -(int64_t{1} << 53) - 1,
                                   std::numeric_limits<int64_t>::max(),
                                   std::numeric_limits<int64_t>::min()};
  if (rng->NextBool(0.5)) return kEdges[rng->NextUint64(std::size(kEdges))];
  return static_cast<int64_t>(rng->Next());
}

db::Value RandomBody(Rng* rng) {
  db::Object body;
  for (uint64_t n = rng->NextUint64(4); n > 0; --n) {
    db::Value v = RandomInt(rng);
    if (rng->NextBool(0.5)) v = RandomText(rng);
    if (rng->NextBool(0.2)) v = db::Array{v, RandomText(rng), nullptr};
    body[RandomText(rng)] = std::move(v);
  }
  return body;
}

TEST(TransportCodecTest, SeededRandomBatchesRoundTrip) {
  Rng rng(0x22);
  for (int round = 0; round < 200; ++round) {
    const uint64_t size = round == 0 ? 0 : rng.NextUint64(5);
    std::vector<db::ChangeEvent> events;
    std::vector<Notification> notifications;
    for (uint64_t i = 0; i < size; ++i) {
      db::ChangeEvent ev;
      ev.kind = static_cast<db::WriteKind>(rng.NextUint64(3));
      ev.after.table = RandomText(&rng);
      ev.after.id = RandomText(&rng);
      ev.after.body = RandomBody(&rng);
      ev.after.deleted = rng.NextBool(0.3);
      ev.after.version = rng.Next();
      ev.after.write_time = RandomInt(&rng);
      ev.commit_time = RandomInt(&rng);
      events.push_back(std::move(ev));

      Notification n;
      n.type = static_cast<NotificationType>(rng.NextUint64(4));
      n.query_key = RandomText(&rng);
      n.record_id = RandomText(&rng);
      n.event_time = RandomInt(&rng);
      n.new_index = RandomInt(&rng);
      notifications.push_back(std::move(n));
    }

    const std::string change_wire = transport::EncodeChangeBatch(events);
    auto changes = transport::DecodeChangeBatch(change_wire);
    ASSERT_TRUE(changes.ok()) << changes.status().ToString() << change_wire;
    ExpectSameEvents(changes.value(), events);

    const std::string notify_wire =
        transport::EncodeNotificationBatch(notifications);
    auto back = transport::DecodeNotificationBatch(notify_wire);
    ASSERT_TRUE(back.ok()) << back.status().ToString() << notify_wire;
    ASSERT_EQ(back->size(), notifications.size());
    for (size_t i = 0; i < notifications.size(); ++i) {
      EXPECT_EQ((*back)[i].type, notifications[i].type) << notify_wire;
      EXPECT_EQ((*back)[i].query_key, notifications[i].query_key);
      EXPECT_EQ((*back)[i].record_id, notifications[i].record_id);
      EXPECT_EQ((*back)[i].event_time, notifications[i].event_time);
      EXPECT_EQ((*back)[i].new_index, notifications[i].new_index);
    }
  }
}

// Every batch envelope comes from the canonical encoders, so the same
// JSON value spelled otherwise (whitespace, the "op" key first) is
// corruption, not a second wire format.
TEST(TransportCodecTest, NonCanonicalBatchIsCorruption) {
  const std::string canonical = transport::EncodeChangeBatch(SampleEvents());
  auto parsed = db::Value::FromJson(canonical);
  ASSERT_TRUE(parsed.ok());
  const std::string reordered = "{ \"op\": \"change_batch\", \"events\": " +
                                parsed->Find("events")->ToJson() + " }";
  EXPECT_TRUE(
      transport::DecodeChangeBatch(reordered).status().IsCorruption());
  EXPECT_TRUE(transport::DecodeChangeBatch(canonical + " ")
                  .status()
                  .IsCorruption());
}

// A receiver rejects every message that is no envelope, even a batch
// whose body spells envelope-like text, and acks only the envelope.
TEST(ReliableEnvelopeTest, ReceiverRejectsMessagesThatAreNoEnvelope) {
  const std::string raw = transport::EncodeChangeBatch(
      {Change("t", "a", R"({"rp":"1 2 s\n","rs":"x","rn":1})")});
  const std::string envelope = reliable::Encode("s", 1, raw);
  SimulatedClock clock(0);
  std::vector<std::string> acks;
  ReliableReceiver receiver(
      &clock,
      [&](const std::string& queue, std::string message) {
        acks.push_back(queue + " " + message);
      },
      "changes");
  std::vector<std::string> delivered;
  const auto handler = [&](const std::string& payload) {
    delivered.push_back(payload);
  };
  EXPECT_TRUE(receiver.Accept(raw, handler).status().IsCorruption());
  EXPECT_EQ(receiver.SendAcks(), 0u);
  EXPECT_EQ(receiver.Accept(envelope, handler).value_or(0), 1u);
  EXPECT_EQ(delivered, std::vector<std::string>{raw});
  EXPECT_EQ(receiver.SendAcks(), 1u);  // the envelope's, not the raw batch's
  EXPECT_EQ(acks, std::vector<std::string>{"changes:acks " +
                                           reliable::EncodeAck("s", 1)});
}

TEST(TransportCodecTest, BatchDecodeRejectsTornEnvelopes) {
  const std::string whole = transport::EncodeChangeBatch(SampleEvents());
  // Truncations at every length must error, never half-apply.
  for (const size_t keep : {whole.size() - 1, whole.size() / 2, size_t{3}}) {
    EXPECT_FALSE(transport::DecodeChangeBatch(whole.substr(0, keep)).ok())
        << keep;
  }
  // Corrupt inner event: the whole batch is rejected.
  std::string corrupt = whole;
  corrupt.replace(corrupt.find("\"kind\":"), 8, "\"kind\":\"");
  EXPECT_FALSE(transport::DecodeChangeBatch(corrupt).ok());
  // Wrong / missing discriminator.
  EXPECT_FALSE(transport::DecodeChangeBatch(std::string("{}")).ok());
  EXPECT_FALSE(
      transport::DecodeChangeBatch(std::string(R"({"events":[]})")).ok());
  EXPECT_FALSE(transport::DecodeNotificationBatch(
                   std::string(R"({"notifications":{},"op":"notify_batch"})"))
                   .ok());
}

// ---------------------------------------------------------------------------
// End-to-end over the message queues
// ---------------------------------------------------------------------------

// The remote and the worker joined by a loopback link in each direction:
// to_worker_.Pump() runs the worker's pump cycle, to_remote_.Pump() the
// remote's.
class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : clock_(0),
        remote_(&clock_, to_worker_.sender(), "invalidb",
                [this](const std::vector<Notification>& batch) {
                  received_.insert(received_.end(), batch.begin(), batch.end());
                }),
        worker_(&clock_, to_remote_.sender(), "invalidb") {
    to_worker_.Attach(&worker_);
    to_remote_.Attach(&remote_);
  }

  SimulatedClock clock_;
  LoopbackLink to_worker_;
  LoopbackLink to_remote_;
  std::vector<Notification> received_;
  InvalidbRemote remote_;
  InvalidbWorker worker_;
};

TEST_F(TransportTest, RegisterMatchNotifyRoundTrip) {
  db::Query q = Q("posts", R"({"g":1})");
  remote_.RegisterQuery(q, {});
  remote_.OnChange(Change("posts", "p1", R"({"g":1})", 42));
  EXPECT_EQ(to_worker_.Pump(), 2u);
  EXPECT_EQ(to_remote_.Pump(), 1u);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].type, NotificationType::kAdd);
  EXPECT_EQ(received_[0].record_id, "p1");
  EXPECT_EQ(received_[0].event_time, 42);
  EXPECT_EQ(received_[0].query_key, q.NormalizedKey());
}

TEST_F(TransportTest, InitialResultShipsOverTheWire) {
  db::Query q = Q("posts", R"({"g":1})");
  db::Document init;
  init.table = "posts";
  init.id = "p1";
  init.body = Doc(R"({"g":1})");
  remote_.RegisterQuery(q, {init});
  // In-place change of a shipped member: change, not add.
  remote_.OnChange(Change("posts", "p1", R"({"g":1,"views":1})"));
  to_worker_.Pump();
  to_remote_.Pump();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].type, NotificationType::kChange);
}

TEST_F(TransportTest, DeregisterOverTheWire) {
  db::Query q = Q("posts", R"({"g":1})");
  remote_.RegisterQuery(q, {});
  to_worker_.Pump();
  EXPECT_TRUE(worker_.cluster().IsRegistered(q.NormalizedKey()));
  remote_.DeregisterQuery(q.NormalizedKey());
  remote_.OnChange(Change("posts", "p1", R"({"g":1})"));
  to_worker_.Pump();
  EXPECT_FALSE(worker_.cluster().IsRegistered(q.NormalizedKey()));
  EXPECT_EQ(to_remote_.Pump(), 0u);
}

TEST_F(TransportTest, StatefulQueryOverTheWire) {
  db::Query q = Q("posts", "{}");
  q.SetOrderBy({{"score", false}}).SetLimit(1);
  db::Document a;
  a.table = "posts";
  a.id = "a";
  a.body = Doc(R"({"score":10})");
  remote_.RegisterQuery(q, {a});
  remote_.OnChange(Change("posts", "b", R"({"score":99})"));
  to_worker_.Pump();
  to_remote_.Pump();
  // b displaces a in the window: remove a + add b.
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].type, NotificationType::kRemove);
  EXPECT_EQ(received_[0].record_id, "a");
  EXPECT_EQ(received_[1].type, NotificationType::kAdd);
  EXPECT_EQ(received_[1].new_index, 0);
}

// Malformed payloads in intact reliable envelopes reach the endpoints'
// decoders, which count and skip each one.
TEST_F(TransportTest, MalformedMessagesCountedAndSkipped) {
  uint64_t seq = 0;
  const auto inject = [&seq](LoopbackLink* link, const char* queue,
                             const std::string& payload) {
    link->Send(queue, reliable::Encode("test", ++seq, payload));
  };
  inject(&to_worker_, "invalidb:requests", "garbage");
  inject(&to_worker_, "invalidb:requests", R"({"op":"unknown"})");
  inject(&to_worker_, "invalidb:requests", R"({"op":"register"})");
  db::Query q = Q("posts", R"({"g":1})");
  remote_.RegisterQuery(q, {});
  // The retired per-event forms: a lone change request that would match
  // the query, and a bare notification spec. Changes and notifications
  // only travel inside batch envelopes, so both are decode errors.
  inject(&to_worker_, "invalidb:requests",
         R"({"after":{"body":{"g":1},"deleted":false,"id":"p1",)"
         R"("table":"posts","version":1,"write_time":5},)"
         R"("commit_time":5,"kind":1,"op":"change"})");
  seq = 0;
  inject(&to_remote_, "invalidb:notifications",
         R"({"event_time":5,"new_index":-1,"query_key":"k",)"
         R"("record_id":"p1","type":0})");
  EXPECT_EQ(to_worker_.Pump(), 5u);
  EXPECT_EQ(worker_.decode_errors(), 4u);
  EXPECT_TRUE(worker_.cluster().IsRegistered(q.NormalizedKey()));
  EXPECT_EQ(worker_.cluster().stats().changes_ingested, 0u);
  EXPECT_EQ(to_remote_.Pump(), 0u);
  EXPECT_EQ(remote_.decode_errors(), 1u);
  EXPECT_TRUE(received_.empty());
}

TEST_F(TransportTest, BackgroundThreadsDeliver) {
  std::atomic<int> count{0};
  LoopbackLink to_worker;
  LoopbackLink to_remote;
  InvalidbRemote remote(SystemClock::Default(), to_worker.sender(), "bg",
                        [&](const std::vector<Notification>& batch) {
                          count += batch.size();
                        });
  InvalidbWorker worker(SystemClock::Default(), to_remote.sender(), "bg");
  to_worker.Attach(&worker);
  to_remote.Attach(&remote);
  // Each endpoint pumped by its own thread while this one sends.
  std::atomic<bool> running{true};
  std::thread consumer([&] {
    while (running.load()) {
      to_worker.Pump();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread poller([&] {
    while (running.load()) {
      to_remote.Pump();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  db::Query q = Q("posts", R"({"g":{"$gte":0}})");
  remote.RegisterQuery(q, {});
  for (int i = 0; i < 50; ++i) {
    remote.OnChange(Change("posts", ("p" + std::to_string(i)).c_str(),
                           R"({"g":1})"));
  }
  // Wait for the pipeline to drain.
  for (int spin = 0; spin < 500 && count.load() < 50; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  running = false;
  consumer.join();
  poller.join();
  EXPECT_EQ(count.load(), 50);
}

// ---------------------------------------------------------------------------
// Batched transport end-to-end: flush triggers, coalescing, counters
// ---------------------------------------------------------------------------

class BatchedTransportTest : public ::testing::Test {
 protected:
  static TransportOptions Topts() {
    TransportOptions topts;
    topts.batching.max_batch = 4;
    topts.batching.flush_interval = 5 * kMicrosPerMilli;
    return topts;
  }
  static InvalidbOptions Copts() {
    InvalidbOptions copts;
    // One node: every query matched in one dispatch, so the dispatch's
    // notifications coalesce into a single notify_batch envelope.
    copts.query_partitions = 1;
    copts.object_partitions = 1;
    return copts;
  }

  BatchedTransportTest()
      : clock_(0),
        remote_(&clock_, to_worker_.sender(), "bt",
                [this](const std::vector<Notification>& batch) {
                  received_.insert(received_.end(), batch.begin(), batch.end());
                },
                Topts()),
        worker_(&clock_, to_remote_.sender(), "bt", Copts(), Topts()) {
    to_worker_.Attach(&worker_);
    to_remote_.Attach(&remote_);
  }

  SimulatedClock clock_;
  LoopbackLink to_worker_;
  LoopbackLink to_remote_;
  std::vector<Notification> received_;
  InvalidbRemote remote_;
  InvalidbWorker worker_;
};

TEST_F(BatchedTransportTest, SizeTriggeredFlushShipsOneEnvelope) {
  db::Query q = Q("posts", R"({"g":{"$gte":0}})");
  remote_.RegisterQuery(q, {});
  to_worker_.Pump();

  for (int i = 0; i < 3; ++i) {
    remote_.OnChange(Change("posts", ("p" + std::to_string(i)).c_str(),
                            R"({"g":1})", i + 1));
    EXPECT_EQ(remote_.stats().batches_sent, 0u) << i;  // still buffering
  }
  EXPECT_EQ(remote_.buffered_changes(), 3u);
  EXPECT_EQ(to_worker_.Pump(), 0u);  // nothing on the wire yet

  remote_.OnChange(Change("posts", "p3", R"({"g":1})", 4));  // fills to 4
  EXPECT_EQ(remote_.buffered_changes(), 0u);
  const TransportStats sent = remote_.stats();
  EXPECT_EQ(sent.batches_sent, 1u);
  EXPECT_EQ(sent.batch_events, 4u);
  EXPECT_EQ(sent.flushes_size, 1u);

  to_worker_.Pump();
  to_remote_.Pump();
  ASSERT_EQ(received_.size(), 4u);  // one kAdd per event, commit order
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(received_[i].record_id, "p" + std::to_string(i));
    EXPECT_EQ(received_[i].event_time, i + 1);
  }
}

TEST_F(BatchedTransportTest, ControlRequestsBarrierFlushTheBuffer) {
  db::Query q = Q("posts", R"({"g":1})");
  remote_.RegisterQuery(q, {});
  remote_.OnChange(Change("posts", "p1", R"({"g":1})", 1));
  EXPECT_EQ(remote_.buffered_changes(), 1u);
  // Deregister must not overtake the buffered change: the change flushes
  // first (reason: barrier), so the worker matches it against a still-
  // registered query.
  remote_.DeregisterQuery(q.NormalizedKey());
  EXPECT_EQ(remote_.buffered_changes(), 0u);
  EXPECT_EQ(remote_.stats().flushes_barrier, 1u);
  to_worker_.Pump();
  EXPECT_EQ(to_remote_.Pump(), 1u);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].type, NotificationType::kAdd);
  EXPECT_FALSE(worker_.cluster().IsRegistered(q.NormalizedKey()));
}

TEST_F(BatchedTransportTest, PartialBatchAgesOutOnTick) {
  db::Query q = Q("posts", R"({"g":1})");
  remote_.RegisterQuery(q, {});
  remote_.OnChange(Change("posts", "p1", R"({"g":1})", 1));
  remote_.Tick();  // younger than flush_interval: stays buffered
  EXPECT_EQ(remote_.buffered_changes(), 1u);
  EXPECT_EQ(remote_.stats().flushes_interval, 0u);

  clock_.Advance(6 * kMicrosPerMilli);  // past the 5 ms interval
  remote_.Tick();
  EXPECT_EQ(remote_.buffered_changes(), 0u);
  const TransportStats sent = remote_.stats();
  EXPECT_EQ(sent.flushes_interval, 1u);
  EXPECT_EQ(sent.batches_sent, 1u);
  to_worker_.Pump();
  EXPECT_EQ(to_remote_.Pump(), 1u);
}

TEST_F(BatchedTransportTest, NotificationsCoalesceIntoOneEnvelope) {
  // Three queries matching the same record: one change event produces a
  // three-notification dispatch, which must leave the worker as ONE
  // notify_batch envelope.
  for (int g = 0; g < 3; ++g) {
    remote_.RegisterQuery(
        Q("posts", ("{\"g\":{\"$gte\":" + std::to_string(-g) + "}}").c_str()),
        {});
  }
  remote_.OnChange(Change("posts", "p1", R"({"g":1})", 9));
  remote_.FlushChanges();
  EXPECT_EQ(remote_.stats().flushes_manual, 1u);
  to_worker_.Pump();

  // One reliable envelope on the notifications queue, carrying all three.
  EXPECT_EQ(to_remote_.pending("bt:notifications"), 1u);
  const TransportStats wstats = worker_.stats();
  EXPECT_EQ(wstats.batches_sent, 1u);
  EXPECT_EQ(wstats.batch_events, 3u);
  EXPECT_EQ(to_remote_.Pump(), 3u);
  ASSERT_EQ(received_.size(), 3u);
  for (const Notification& n : received_) {
    EXPECT_EQ(n.record_id, "p1");
    EXPECT_EQ(n.event_time, 9);
  }
}

// A reliable link drops, unacked, every message that is no intact
// envelope, and counts each drop in the endpoint's decode_errors.
TEST_F(BatchedTransportTest, ReliableLinkCountsEveryDroppedMessage) {
  Notification n;
  n.type = NotificationType::kAdd;
  n.query_key = "k";
  n.record_id = "rec42";
  const std::string batch = transport::EncodeNotificationBatch({n});
  const std::string envelope = reliable::Encode("invalidb", 1, batch);
  std::string flipped = envelope;
  flipped[flipped.find("rec42")] ^= 0x20;

  EXPECT_EQ(remote_.Receive("bt:notifications", flipped), 0u);
  EXPECT_EQ(remote_.decode_errors(), 1u);
  EXPECT_EQ(remote_.Receive("bt:notifications", batch), 0u);
  EXPECT_EQ(remote_.decode_errors(), 2u);
  EXPECT_TRUE(received_.empty());
  remote_.Tick();
  EXPECT_EQ(to_worker_.pending("bt:notifications:acks"), 0u);

  EXPECT_EQ(remote_.Receive("bt:notifications", envelope), 1u);
  EXPECT_EQ(remote_.decode_errors(), 2u);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].record_id, "rec42");
  remote_.Tick();
  EXPECT_EQ(to_worker_.pending("bt:notifications:acks"), 1u);
}

TEST_F(BatchedTransportTest, StatsExportCoversBatchingCounters) {
  remote_.RegisterQuery(Q("posts", R"({"g":1})"), {});
  for (int i = 0; i < 5; ++i) {  // one size flush (4) + one buffered
    remote_.OnChange(Change("posts", "p1", R"({"g":1})", i + 1));
  }
  remote_.FlushChanges();
  to_worker_.Pump();
  to_remote_.Pump();

  obs::MetricsRegistry registry;
  remote_.stats().ExportTo(&registry, {{"endpoint", "remote"}});
  worker_.stats().ExportTo(&registry, {{"endpoint", "worker"}});
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("transport_batches_sent{endpoint=remote}"), 2u);
  EXPECT_EQ(snap.counters.at("transport_batch_events{endpoint=remote}"), 5u);
  EXPECT_EQ(snap.counters.at(
                "transport_batch_flushes{endpoint=remote,reason=size}"),
            1u);
  EXPECT_EQ(snap.counters.at(
                "transport_batch_flushes{endpoint=remote,reason=manual}"),
            1u);
  EXPECT_GE(snap.counters.at("transport_batches_sent{endpoint=worker}"), 1u);
}

}  // namespace
}  // namespace quaestor::invalidb
