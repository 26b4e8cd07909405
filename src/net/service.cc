#include "net/service.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace quaestor::net {

namespace {

constexpr uint8_t kPriCritical = 0;
constexpr uint8_t kPriHigh = 1;
constexpr uint8_t kPriNormal = 2;

/// Per-connection write-buffer bounds of the frame hub: past the soft
/// limit only kCritical/kHigh frames still queue, at the hard limit
/// everything sheds. The InvaliDB link's reliable layer retransmits what
/// was shed.
constexpr size_t kWriteBufferSoftLimit = 256u << 10;
constexpr size_t kWriteBufferHardLimit = 1u << 20;
/// Queue-name prefix of the InvaliDB transport on both ends of a link.
constexpr char kInvalidbPrefix[] = "invalidb";

/// How often an endpoint's loop calls its Tick: retransmits and owed acks
/// need 10 ms; a batch age-out needs about one flush_interval.
Micros TickPeriod(const invalidb::BatchOptions& b) {
  constexpr Micros kTick = 10 * kMicrosPerMilli;
  return b.max_batch <= 1 ? kTick
                          : std::clamp<Micros>(b.flush_interval, 250, kTick);
}

/// Runs `tick` on `loop` every `period_us` until the loop stops.
void TickEvery(EventLoop* loop, int64_t period_us,
               std::function<void()> tick) {
  loop->AddTimer(period_us,
                 [loop, period_us, tick = std::move(tick)]() mutable {
                   tick();
                   TickEvery(loop, period_us, std::move(tick));
                 });
}

}  // namespace

// ---------------------------------------------------------------------------
// NetServer

NetServer::NetServer(Clock* clock, core::QuaestorServer* server,
                     NetOptions options)
    : clock_(clock), server_(server), options_(std::move(options)) {}

NetServer::~NetServer() { Stop(); }

bool NetServer::Start() {
  if (!options_.enabled || started_) return false;
  if (!loop_.Start()) return false;
  hub_ = std::make_unique<FrameHub>(&loop_, kWriteBufferSoftLimit,
                                    kWriteBufferHardLimit);
  http_ = std::make_unique<HttpFrontend>(&loop_, server_);

  if (options_.remote_invalidb) {
    const std::string p = kInvalidbPrefix;
    FrameHub* hub = hub_.get();
    const std::string requests = p + ":requests";
    remote_ = std::make_unique<invalidb::InvalidbRemote>(
        clock_,
        // Origin-side sends: registrations/changes are the data path
        // (critical); acks for incoming notifications are high.
        invalidb::QueueSend([hub, requests](const std::string& queue,
                                            std::string message) {
          hub->Send(queue, message,
                    queue == requests ? kPriCritical : kPriHigh);
        }),
        p,
        [this](const std::vector<invalidb::Notification>& batch) {
          server_->OnNotificationBatch(batch);
        },
        options_.transport);
    invalidb::InvalidbRemote* remote = remote_.get();
    const auto deliver = [this, remote](const Frame& frame) {
      deliveries_.count++;
      remote->Receive(frame.channel, frame.payload);
    };
    hub_->Subscribe(p + ":notifications", deliver);
    hub_->Subscribe(p + ":requests:acks", deliver);
    server_->SetPipeline(remote);
  }

  // Invalidation fan-out to socket peers (remote CDN nodes subscribe to
  // the "purge" channel). Purges must beat everything else out.
  FrameHub* hub = hub_.get();
  server_->AddPurgeTarget(
      [hub](const std::string& key) { hub->Send("purge", key, kPriCritical); });

  if (!hub_->Listen(options_.frame_port)) return false;
  if (!http_->Listen(options_.http_port)) return false;
  if (remote_) {
    invalidb::InvalidbRemote* remote = remote_.get();
    TickEvery(&loop_, TickPeriod(options_.transport.batching),
              [remote] { remote->Tick(); });
  }
  started_ = true;
  return true;
}

void NetServer::Stop() {
  if (!started_) {
    loop_.Stop();
    return;
  }
  started_ = false;
  if (http_) http_->Close();
  if (hub_) hub_->Close();
  loop_.Stop();
}

uint16_t NetServer::http_port() const { return http_ ? http_->port() : 0; }

uint16_t NetServer::frame_port() const { return hub_ ? hub_->port() : 0; }

// ---------------------------------------------------------------------------
// NetWorker

NetWorker::NetWorker(Clock* clock, uint16_t frame_port, NetOptions options,
                     invalidb::InvalidbOptions cluster_options)
    : clock_(clock),
      options_(std::move(options)),
      cluster_options_(cluster_options),
      frame_port_(frame_port) {}

NetWorker::~NetWorker() { Stop(); }

bool NetWorker::Start() {
  if (started_) return false;
  if (!loop_.Start()) return false;
  const std::string p = kInvalidbPrefix;
  client_ = std::make_unique<FrameClient>(
      &loop_, frame_port_, options_.reconnect_backoff);
  FrameClient* client = client_.get();
  const std::string notifications = p + ":notifications";
  worker_ = std::make_unique<invalidb::InvalidbWorker>(
      clock_,
      // Worker-side sends: notifications are the sheddable class under
      // backpressure, as is every frame sent while disconnected; the
      // reliable layer retransmits them. Request acks stay high so the
      // origin's sender retires state promptly.
      invalidb::QueueSend([client, notifications](const std::string& queue,
                                                  std::string message) {
        client->Send(queue, message,
                     queue == notifications ? kPriNormal : kPriHigh);
      }),
      p, cluster_options_, options_.transport);
  invalidb::InvalidbWorker* worker = worker_.get();
  // Each request frame is one pump cycle on the loop thread: receive and
  // match, then the worker's Tick ships the notifications it produced.
  const auto deliver = [this, worker](const Frame& frame) {
    deliveries_.count++;
    if (worker->Receive(frame.channel, frame.payload) > 0) worker->Tick();
  };
  client_->Subscribe(p + ":requests", deliver);
  client_->Subscribe(p + ":notifications:acks", deliver);
  TickEvery(&loop_, TickPeriod(options_.transport.batching),
            [worker] { worker->Tick(); });
  // Frames may arrive as soon as the client connects: the worker exists.
  client_->Connect();
  started_ = true;
  return true;
}

void NetWorker::Stop() {
  if (!started_) {
    loop_.Stop();
    return;
  }
  started_ = false;
  loop_.RunInLoopSync([this] { worker_->Tick(); });
  client_->Close();
  loop_.Stop();
}

}  // namespace quaestor::net
