// Unit and failure-edge tests for the real-socket serving layer
// (src/net): framing round trips and torn/oversized streams, HTTP codec
// byte round trips, the epoll event loop, raw TCP echo, frame hub
// pub/sub with reconnect + subscription replay, slow-reader
// backpressure (priority shedding), and a connection reset in the
// middle of a batched notification stream recovered by the reliable
// queue. Every listener binds an ephemeral port (Listen(0)) so fixtures
// never collide on a shared machine.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/server.h"
#include "db/database.h"
#include "invalidb/reliable_queue.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/http_client.h"
#include "net/http_codec.h"
#include "net/queue_bridge.h"
#include "net/service.h"
#include "net/tcp.h"

namespace quaestor::net {
namespace {

/// Polls `cond` until it holds or `timeout_ms` elapses (real time — the
/// net layer runs on real sockets and threads, not the simulated clock).
bool WaitFor(const std::function<bool()>& cond, int64_t timeout_ms = 5000) {
  const int64_t deadline = EventLoop::MonotonicNow() + timeout_ms * 1000;
  while (EventLoop::MonotonicNow() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

// ---------------------------------------------------------------------------
// Framing

TEST(FramingTest, RoundTripPreservesAllFields) {
  Frame in{0, "invalidb:requests", std::string("payload\0with\xff binary", 20)};
  const std::string wire = EncodeFrame(in);

  Frame out;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(wire, &out, &consumed), FrameDecode::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out.priority, in.priority);
  EXPECT_EQ(out.channel, in.channel);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(FramingTest, TornFrameNeedsMoreAtEveryPrefixLength) {
  const std::string wire = EncodeFrame(Frame{2, "notif", "hello world"});
  // Every strict prefix is a torn frame, never an error and never a
  // bogus decode.
  for (size_t len = 0; len < wire.size(); ++len) {
    Frame out;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(std::string_view(wire).substr(0, len), &out,
                          &consumed),
              FrameDecode::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(FramingTest, BackToBackFramesDecodeSequentially) {
  std::string wire;
  AppendFrame(&wire, Frame{1, "a", "first"});
  AppendFrame(&wire, Frame{3, "bb", "second"});

  Frame f1;
  size_t c1 = 0;
  ASSERT_EQ(DecodeFrame(wire, &f1, &c1), FrameDecode::kFrame);
  EXPECT_EQ(f1.channel, "a");
  EXPECT_EQ(f1.payload, "first");

  Frame f2;
  size_t c2 = 0;
  ASSERT_EQ(DecodeFrame(std::string_view(wire).substr(c1), &f2, &c2),
            FrameDecode::kFrame);
  EXPECT_EQ(f2.channel, "bb");
  EXPECT_EQ(f2.payload, "second");
  EXPECT_EQ(c1 + c2, wire.size());
}

TEST(FramingTest, OversizedAndMalformedHeadersAreErrors) {
  // Length-of-rest beyond the 16 MB cap: drop the stream, don't wait.
  std::string oversized;
  const uint32_t huge = (16u << 20) + 1;
  oversized.push_back(static_cast<char>(huge >> 24));
  oversized.push_back(static_cast<char>(huge >> 16));
  oversized.push_back(static_cast<char>(huge >> 8));
  oversized.push_back(static_cast<char>(huge));
  Frame out;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(oversized, &out, &consumed), FrameDecode::kError);

  // Length-of-rest too small to hold priority + channel length.
  const std::string tiny{'\0', '\0', '\0', '\2', '\0', '\0'};
  EXPECT_EQ(DecodeFrame(tiny, &out, &consumed), FrameDecode::kError);

  // Channel length overrunning the frame body.
  std::string overrun{'\0', '\0', '\0', '\4'};
  overrun.push_back('\2');   // priority
  overrun.push_back('\0');   // channel length hi
  overrun.push_back('\x7f');  // channel length lo: 127 > remaining 1
  overrun.push_back('x');
  EXPECT_EQ(DecodeFrame(overrun, &out, &consumed), FrameDecode::kError);
}

// ---------------------------------------------------------------------------
// HTTP codec

TEST(HttpCodecTest, WireResponseRoundTripsEveryStatusShape) {
  std::vector<WireResponse> cases;
  {
    WireResponse ok;
    ok.http.ok = true;
    ok.http.body = R"({"x":1})";
    ok.http.etag = 123456789;
    ok.http.ttl = 2 * kMicrosPerSecond + 250 * kMicrosPerMilli;
    ok.http.last_modified = 1700000000 * kMicrosPerSecond + 42;
    cases.push_back(ok);
  }
  {
    WireResponse nostore;
    nostore.http.ok = true;
    nostore.http.body = "b";
    nostore.http.etag = 7;
    nostore.http.ttl = 0;  // uncacheable
    cases.push_back(nostore);
  }
  {
    WireResponse nm;
    nm.http.ok = true;  // a 304 is a successful, bodyless answer
    nm.http.not_modified = true;
    nm.http.etag = 99;
    nm.http.ttl = kMicrosPerSecond;
    cases.push_back(nm);
  }
  {
    WireResponse shed;
    shed.http.shed = true;
    cases.push_back(shed);
  }
  {
    WireResponse stale;
    stale.http.ok = true;
    stale.http.body = "old";
    stale.http.etag = 5;
    stale.http.ttl = kMicrosPerSecond;
    stale.served_stale_on_shed = true;
    stale.stale_entry_age = 1234567;
    cases.push_back(stale);
  }
  {
    WireResponse unavailable;
    unavailable.http.unavailable = true;
    cases.push_back(unavailable);
  }
  {
    WireResponse deadline;
    deadline.http.deadline_exceeded = true;
    cases.push_back(deadline);
  }

  for (size_t i = 0; i < cases.size(); ++i) {
    const WireResponse& in = cases[i];
    const std::string wire = EncodeHttpResponse(ToHttpMessage(in));
    HttpMessage msg;
    size_t consumed = 0;
    ASSERT_EQ(DecodeHttpResponse(wire, &msg, &consumed), HttpDecode::kComplete)
        << "case " << i;
    EXPECT_EQ(consumed, wire.size());
    const WireResponse out = FromHttpMessage(msg);
    EXPECT_EQ(out.http.ok, in.http.ok) << "case " << i;
    EXPECT_EQ(out.http.not_modified, in.http.not_modified) << "case " << i;
    EXPECT_EQ(out.http.unavailable, in.http.unavailable) << "case " << i;
    EXPECT_EQ(out.http.shed, in.http.shed) << "case " << i;
    EXPECT_EQ(out.http.deadline_exceeded, in.http.deadline_exceeded)
        << "case " << i;
    EXPECT_EQ(out.http.body, in.http.body) << "case " << i;
    if (in.http.ok || in.http.not_modified) {
      EXPECT_EQ(out.http.etag, in.http.etag) << "case " << i;
      // X-TTL-Us / X-Last-Modified-Us keep the exact microseconds that
      // Cache-Control's whole seconds would truncate.
      EXPECT_EQ(out.http.ttl, in.http.ttl) << "case " << i;
      EXPECT_EQ(out.http.last_modified, in.http.last_modified) << "case " << i;
    }
    EXPECT_EQ(out.served_stale_on_shed, in.served_stale_on_shed)
        << "case " << i;
    EXPECT_EQ(out.stale_entry_age, in.stale_entry_age) << "case " << i;
  }
}

TEST(HttpCodecTest, ResponseHeadersCarryStandardCachingSemantics) {
  WireResponse r;
  r.http.ok = true;
  r.http.body = "body";
  r.http.etag = 42;
  r.http.ttl = 2500 * kMicrosPerMilli;
  const HttpMessage msg = ToHttpMessage(r);
  EXPECT_EQ(msg.status, 200);
  EXPECT_EQ(msg.headers.at("etag"), "\"42\"");
  // floor(2.5s) — real HTTP caches honour whole seconds.
  EXPECT_EQ(msg.headers.at("cache-control"), "max-age=2");

  WireResponse uncacheable;
  uncacheable.http.ok = true;
  uncacheable.http.ttl = 0;
  EXPECT_EQ(ToHttpMessage(uncacheable).headers.at("cache-control"),
            "no-store");

  WireResponse nm;
  nm.http.not_modified = true;
  EXPECT_EQ(ToHttpMessage(nm).status, 304);
  WireResponse shed;
  shed.http.shed = true;
  EXPECT_EQ(ToHttpMessage(shed).status, 429);
  WireResponse un;
  un.http.unavailable = true;
  EXPECT_EQ(ToHttpMessage(un).status, 503);
  WireResponse dl;
  dl.http.deadline_exceeded = true;
  EXPECT_EQ(ToHttpMessage(dl).status, 504);
}

TEST(HttpCodecTest, FetchRequestRoundTripsConditionalAndContextHeaders) {
  webcache::HttpRequest in;
  in.key = "table/id with space&odd?chars";
  in.has_if_none_match = true;
  in.if_none_match = 987654321;
  in.auth_token = "tok-123";
  in.context.deadline = 55555555;
  in.context.priority = Priority::kLow;

  const std::string wire = EncodeHttpRequest(ToHttpMessage(in));
  HttpMessage msg;
  size_t consumed = 0;
  ASSERT_EQ(DecodeHttpRequest(wire, &msg, &consumed), HttpDecode::kComplete);
  EXPECT_EQ(msg.method, "GET");
  EXPECT_EQ(msg.path, "/fetch");

  const webcache::HttpRequest out = FetchRequestFromHttpMessage(msg);
  EXPECT_EQ(out.key, in.key);  // percent-encoding is lossless
  EXPECT_TRUE(out.has_if_none_match);
  EXPECT_EQ(out.if_none_match, in.if_none_match);
  EXPECT_EQ(out.auth_token, in.auth_token);
  EXPECT_EQ(out.context.deadline, in.context.deadline);
  EXPECT_EQ(out.context.priority, in.context.priority);

  // Unconditional anonymous request: none of the optional headers leak.
  webcache::HttpRequest plain;
  plain.key = "t/1";
  const HttpMessage pmsg = ToHttpMessage(plain);
  EXPECT_EQ(pmsg.headers.count("if-none-match"), 0u);
  EXPECT_EQ(pmsg.headers.count("authorization"), 0u);
  EXPECT_EQ(pmsg.headers.count("x-deadline-us"), 0u);
  EXPECT_EQ(pmsg.headers.count("x-priority"), 0u);
  const webcache::HttpRequest pout =
      FetchRequestFromHttpMessage(ToHttpMessage(plain));
  EXPECT_FALSE(pout.has_if_none_match);
  EXPECT_EQ(pout.context.deadline, 0);
  EXPECT_EQ(pout.context.priority, Priority::kNormal);
}

TEST(HttpCodecTest, PipelinedAndTornMessagesDecodeIncrementally) {
  WireResponse a;
  a.http.ok = true;
  a.http.body = "first";
  a.http.etag = 1;
  WireResponse b;
  b.http.ok = true;
  b.http.body = "second";
  b.http.etag = 2;
  const std::string wire =
      EncodeHttpResponse(ToHttpMessage(a)) + EncodeHttpResponse(ToHttpMessage(b));

  // Feed a torn prefix: body cut mid-way must return kNeedMore.
  HttpMessage partial;
  size_t consumed = 0;
  EXPECT_EQ(DecodeHttpResponse(std::string_view(wire).substr(0, 30), &partial,
                               &consumed),
            HttpDecode::kNeedMore);

  HttpMessage m1;
  ASSERT_EQ(DecodeHttpResponse(wire, &m1, &consumed), HttpDecode::kComplete);
  EXPECT_EQ(m1.body, "first");
  HttpMessage m2;
  size_t c2 = 0;
  ASSERT_EQ(DecodeHttpResponse(std::string_view(wire).substr(consumed), &m2,
                               &c2),
            HttpDecode::kComplete);
  EXPECT_EQ(m2.body, "second");
  EXPECT_EQ(consumed + c2, wire.size());
}

TEST(HttpBackendTest, ConditionalFetchWithMatchingEtagIsOkAndNotModified) {
  // The in-process server answers a matching If-None-Match with ok=true,
  // not_modified=true; webcache::CacheHierarchy and the SDK rely on that
  // shape, so the HTTP round trip must reproduce it.
  SystemClock clock;
  db::Database db(&clock);
  core::QuaestorServer server(&clock, &db);
  ASSERT_TRUE(server.Insert("t", "1", db::Value::FromJson(R"({"x":1})").value())
                  .ok());
  NetOptions nopts;
  nopts.enabled = true;
  NetServer net(&clock, &server, nopts);
  ASSERT_TRUE(net.Start());

  HttpBackend backend(net.http_port());
  webcache::HttpRequest req;
  req.key = "t/1";
  const webcache::HttpResponse full = backend.Fetch(req);
  ASSERT_TRUE(full.ok);
  ASSERT_FALSE(full.not_modified);

  req.has_if_none_match = true;
  req.if_none_match = full.etag;
  const webcache::HttpResponse revalidated = backend.Fetch(req);
  EXPECT_TRUE(revalidated.ok);
  EXPECT_TRUE(revalidated.not_modified);
  EXPECT_TRUE(revalidated.body.empty());
  EXPECT_EQ(revalidated.etag, full.etag);
  net.Stop();
}

// ---------------------------------------------------------------------------
// Event loop

TEST(EventLoopTest, PostedFunctionsTimersAndCancellation) {
  EventLoop loop;
  ASSERT_TRUE(loop.Start());

  std::atomic<int> ran{0};
  loop.RunInLoopSync([&] { ran = 1; });
  EXPECT_EQ(ran.load(), 1);

  std::atomic<bool> fired{false};
  loop.AddTimer(2000, [&] { fired = true; });
  EXPECT_TRUE(WaitFor([&] { return fired.load(); }));

  std::atomic<bool> cancelled_fired{false};
  const EventLoop::TimerId id =
      loop.AddTimer(20 * 1000, [&] { cancelled_fired = true; });
  loop.CancelTimer(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(cancelled_fired.load());

  // Posting from inside the loop runs inline (no self-deadlock).
  std::atomic<bool> nested{false};
  loop.RunInLoopSync([&] { loop.RunInLoop([&] { nested = true; }); });
  EXPECT_TRUE(WaitFor([&] { return nested.load(); }));
  loop.Stop();
}

// ---------------------------------------------------------------------------
// TCP

TEST(TcpTest, EchoOverLoopbackEphemeralPort) {
  EventLoop loop;
  ASSERT_TRUE(loop.Start());

  auto listener = std::make_unique<TcpListener>(&loop);
  std::vector<std::shared_ptr<TcpConnection>> conns;  // loop-thread only
  listener->set_on_accept([&](int fd) {
    std::shared_ptr<TcpConnection> conn = TcpConnection::Adopt(&loop, fd);
    conns.push_back(conn);
    std::weak_ptr<TcpConnection> weak = conn;
    conn->set_on_data([weak] {
      if (auto c = weak.lock()) {
        c->Send(c->input());
        c->input().clear();
      }
    });
  });
  bool listening = false;
  loop.RunInLoopSync([&] { listening = listener->Listen(0); });
  ASSERT_TRUE(listening);
  const uint16_t port = listener->port();
  ASSERT_NE(port, 0);

  const int fd = DialLoopbackBlocking(port);
  ASSERT_GE(fd, 0);
  const std::string msg = "ping over a real socket";
  ASSERT_EQ(write(fd, msg.data(), msg.size()),
            static_cast<ssize_t>(msg.size()));
  std::string got;
  char buf[256];
  while (got.size() < msg.size()) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    got.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(got, msg);
  close(fd);

  loop.RunInLoopSync([&] {
    for (auto& c : conns) c->Close();
    conns.clear();
    listener->Close();
  });
  loop.Stop();
}

TEST(TcpTest, SendToClosedPeerFailsInsteadOfRaisingSigpipe) {
  EventLoop loop;
  ASSERT_TRUE(loop.Start());
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  bool sent = true;
  // One loop-thread turn, so the hang-up cannot be noticed (and the
  // connection closed) before the write hits the dead peer.
  loop.RunInLoopSync([&] {
    std::shared_ptr<TcpConnection> conn = TcpConnection::Adopt(&loop, sv[0]);
    close(sv[1]);
    sent = conn->Send("to nobody");
    conn->Close();
  });
  EXPECT_FALSE(sent);
  loop.Stop();
}

TEST(TcpTest, EphemeralListenersNeverCollide) {
  // The port-collision-safe fixture idiom: every Listen(0) gets its own
  // kernel-assigned port, reported via port().
  EventLoop loop;
  ASSERT_TRUE(loop.Start());
  FrameHub hub1(&loop, 256u << 10, 1u << 20);
  FrameHub hub2(&loop, 256u << 10, 1u << 20);
  ASSERT_TRUE(hub1.Listen(0));
  ASSERT_TRUE(hub2.Listen(0));
  EXPECT_NE(hub1.port(), 0);
  EXPECT_NE(hub2.port(), 0);
  EXPECT_NE(hub1.port(), hub2.port());
  hub1.Close();
  hub2.Close();
  loop.Stop();
}

// ---------------------------------------------------------------------------
// Frame hub / frame client

class FrameFixture : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(loop_.Start()); }
  void TearDown() override { loop_.Stop(); }

  EventLoop loop_;
};

TEST_F(FrameFixture, HubFansOutToSubscribersAndReceivesLocally) {
  FrameHub hub(&loop_, 256u << 10, 1u << 20);
  std::mutex mu;
  std::vector<std::string> hub_got;
  hub.Subscribe("req", [&](const Frame& f) {
    std::lock_guard<std::mutex> lock(mu);
    hub_got.push_back(f.channel + "=" + f.payload);
  });
  ASSERT_TRUE(hub.Listen(0));

  FrameClient client(&loop_, hub.port(), 5 * kMicrosPerMilli);
  std::vector<std::string> client_got;
  client.Subscribe("notif", [&](const Frame& f) {
    std::lock_guard<std::mutex> lock(mu);
    client_got.push_back(f.channel + "=" + f.payload);
  });
  client.Connect();
  ASSERT_TRUE(WaitFor([&] { return hub.connections() == 1; }));

  // Hub → client on a subscribed channel; an unrelated channel is not
  // delivered.
  hub.Send("notif:1", "hello", 2);
  hub.Send("other", "ignored", 2);
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return client_got.size() == 1;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(client_got[0], "notif:1=hello");
  }

  // Client → hub local subscription.
  EXPECT_TRUE(client.Send("req:7", "work", 0));
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return hub_got.size() == 1;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(hub_got[0], "req:7=work");
  }
  client.Close();
  hub.Close();
}

TEST_F(FrameFixture, TornFrameMidEnvelopeOverSocketDeliversExactlyOnce) {
  FrameHub hub(&loop_, 256u << 10, 1u << 20);
  std::mutex mu;
  std::vector<std::string> got;
  hub.Subscribe("t", [&](const Frame& f) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(f.payload);
  });
  ASSERT_TRUE(hub.Listen(0));

  const int fd = DialLoopbackBlocking(hub.port());
  ASSERT_GE(fd, 0);
  const std::string payload(1000, 'x');
  const std::string wire = EncodeFrame(Frame{2, "t:1", payload});

  // First half, pause, second half: the hub must hold the torn tail and
  // deliver exactly one frame once it completes.
  const size_t half = wire.size() / 2;
  ASSERT_EQ(write(fd, wire.data(), half), static_cast<ssize_t>(half));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(got.empty()) << "half a frame must not deliver";
  }
  ASSERT_EQ(write(fd, wire.data() + half, wire.size() - half),
            static_cast<ssize_t>(wire.size() - half));
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == 1;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(got[0], payload);
  }

  // Two frames in one write deliver as two, in order.
  std::string burst;
  AppendFrame(&burst, Frame{2, "t:2", "a"});
  AppendFrame(&burst, Frame{2, "t:3", "b"});
  ASSERT_EQ(write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == 3;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(got[1], "a");
    EXPECT_EQ(got[2], "b");
  }
  close(fd);
  hub.Close();
}

TEST_F(FrameFixture, GarbageStreamDropsThePeer) {
  FrameHub hub(&loop_, 256u << 10, 1u << 20);
  ASSERT_TRUE(hub.Listen(0));
  const int fd = DialLoopbackBlocking(hub.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WaitFor([&] { return hub.connections() == 1; }));
  // An impossible length prefix is protocol breakage: the hub closes the
  // connection instead of waiting for gigabytes.
  const char garbage[] = "\xff\xff\xff\xff garbage";
  ASSERT_EQ(write(fd, garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  EXPECT_TRUE(WaitFor([&] { return hub.connections() == 0; }));
  close(fd);
  hub.Close();
}

TEST_F(FrameFixture, ClientReconnectsAndReplaysSubscriptions) {
  FrameHub hub(&loop_, 256u << 10, 1u << 20);
  ASSERT_TRUE(hub.Listen(0));
  const uint16_t port = hub.port();

  FrameClient client(&loop_, port, 5 * kMicrosPerMilli);
  std::mutex mu;
  std::vector<std::string> got;
  client.Subscribe("notif", [&](const Frame& f) {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(f.payload);
  });
  client.Connect();
  ASSERT_TRUE(WaitFor([&] { return hub.connections() == 1; }));
  hub.Send("notif:a", "before", 2);
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return got.size() == 1;
  }));

  // Hard reset: the hub goes away and comes back on the same port. The
  // client must redial on its backoff timer and replay its subscription
  // — deliveries resume without any re-Subscribe call.
  hub.Close();
  ASSERT_TRUE(WaitFor([&] { return !client.connected(); }));
  ASSERT_TRUE(hub.Listen(port));
  ASSERT_TRUE(WaitFor([&] { return hub.connections() == 1; }));
  EXPECT_GE(client.reconnects(), 1u);

  ASSERT_TRUE(WaitFor([&] {
    // The subscription replay races the Send; retry until it lands.
    hub.Send("notif:a", "after", 2);
    std::lock_guard<std::mutex> lock(mu);
    return got.size() >= 2;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(got.back(), "after");
  }
  client.Close();
  hub.Close();
}

TEST_F(FrameFixture, SlowReaderShedsLowPriorityButKeepsCritical) {
  // Tiny soft limit so user-space buffering trips quickly once the
  // kernel socket buffers fill against a reader that never reads.
  const size_t kSoft = 4096;
  FrameHub hub(&loop_, kSoft, 1u << 20);
  ASSERT_TRUE(hub.Listen(0));

  const int fd = DialLoopbackBlocking(hub.port());
  ASSERT_GE(fd, 0);
  // Subscribe to "bp" via a raw control frame, then prove the
  // subscription landed by reading one ping back.
  const std::string sub =
      EncodeFrame(Frame{0, std::string(kSubscribeChannel), "bp"});
  ASSERT_EQ(write(fd, sub.data(), sub.size()), static_cast<ssize_t>(sub.size()));
  SetNonBlocking(fd);  // polled reads below; never block the test thread
  std::string ping_buf;
  ASSERT_TRUE(WaitFor([&] {
    hub.Send("bp:ping", "ping", 0);
    char buf[512];
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) ping_buf.append(buf, static_cast<size_t>(n));
    return !ping_buf.empty();
  }));

  // Stop reading entirely and flood with kNormal frames until the
  // write buffer passes the soft limit and sheds kick in.
  const std::string big(32 * 1024, 'z');
  ASSERT_TRUE(WaitFor([&] {
    for (int i = 0; i < 16; ++i) hub.Send("bp:flood", big, 2);
    (void)hub.connections();  // sync barrier: posted sends have run
    return hub.frames_shed_low_priority() > 0;
  }));
  EXPECT_GT(hub.frames_shed(), 0u);

  // Past the soft limit, a critical frame still queues: the shed
  // counters must not move when priority 0 is sent.
  const uint64_t shed_before = hub.frames_shed();
  hub.Send("bp:critical", "purge", 0);
  (void)hub.connections();
  EXPECT_EQ(hub.frames_shed(), shed_before);

  // And low-priority frames keep being shed (counted separately). The
  // socket can flush some backlog between sends, so poll: the buffer
  // refills past the soft limit and the low-priority counter moves.
  const uint64_t low_before = hub.frames_shed_low_priority();
  ASSERT_TRUE(WaitFor([&] {
    hub.Send("bp:flood", big, 2);
    (void)hub.connections();
    return hub.frames_shed_low_priority() > low_before;
  }));
  close(fd);
  hub.Close();
}

TEST_F(FrameFixture, SendWhileDisconnectedShedsInsteadOfBuffering) {
  // No hub listening at all: the client sheds (the reliable layer on
  // top owns retransmission) and reports it.
  FrameClient client(&loop_, 1, 5 * kMicrosPerMilli);  // port 1: never ours
  EXPECT_FALSE(client.Send("notif", "lost", 2));
  EXPECT_GE(client.frames_shed(), 1u);
  client.Close();
}

// ---------------------------------------------------------------------------
// Connection reset during a batched notify stream (reliable recovery)

TEST_F(FrameFixture, ConnectionResetDuringBatchedNotifyRedeliversExactlyOnce) {
  SystemClock clock;
  invalidb::ReliableOptions ropts;
  ropts.enabled = true;
  ropts.retransmit_timeout = 30 * kMicrosPerMilli;
  ropts.max_backoff = 200 * kMicrosPerMilli;
  FrameHub hub(&loop_, 256u << 10, 1u << 20);

  // Receiver (origin side): frames arriving on the notifications queue
  // go straight into its receive path on the hub's loop thread; its acks
  // go back out over the hub.
  invalidb::ReliableReceiver receiver(
      [&](const std::string& queue, std::string message) {
        hub.Send(queue, message, 1);
      },
      "notif");
  std::mutex mu;
  std::vector<std::string> delivered;
  hub.Subscribe("notif", [&](const Frame& f) {
    receiver.Accept(f.payload, [&](const std::string& payload) {
      std::lock_guard<std::mutex> lock(mu);
      delivered.push_back(payload);
    });
  });
  ASSERT_TRUE(hub.Listen(0));
  const uint16_t port = hub.port();

  // Sender (worker side): sends leave over the frame client; acks come
  // back via the subscription, on the client's loop thread.
  EventLoop worker_loop;
  ASSERT_TRUE(worker_loop.Start());
  FrameClient client(&worker_loop, port, 5 * kMicrosPerMilli);
  invalidb::ReliableSender sender(
      &clock,
      [&](const std::string& queue, std::string message) {
        client.Send(queue, message, 2);
      },
      "notif", "w1", ropts);
  client.Subscribe("notif:acks",
                   [&](const Frame& f) { sender.OnAck(f.payload); });
  client.Connect();
  ASSERT_TRUE(WaitFor([&] { return hub.connections() == 1; }));

  // First half of the batch flows normally.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sender.Send("n" + std::to_string(i)).ok());
  }

  // Reset the connection mid-stream: the hub drops off the port, the
  // remaining sends shed at the frame client, then the hub returns.
  hub.Close();
  ASSERT_TRUE(WaitFor([&] { return !client.connected(); }));
  for (int i = 10; i < 20; ++i) {
    ASSERT_TRUE(sender.Send("n" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(hub.Listen(port));

  // The reliable sender's retransmit timer re-ships everything unacked
  // once the client redials; the receiver dedups anything that made it
  // through twice. Every notification arrives exactly once.
  ASSERT_TRUE(WaitFor(
      [&] {
        sender.Tick();
        std::lock_guard<std::mutex> lock(mu);
        return delivered.size() >= 20;
      },
      15000));
  // Let any trailing retransmits land, then assert exactly-once.
  for (int i = 0; i < 10; ++i) {
    sender.Tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(delivered.size(), 20u);
  std::set<std::string> unique(delivered.begin(), delivered.end());
  EXPECT_EQ(unique.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(unique.count("n" + std::to_string(i)), 1u) << i;
  }

  client.Close();
  worker_loop.Stop();
  hub.Close();
}

}  // namespace
}  // namespace quaestor::net
