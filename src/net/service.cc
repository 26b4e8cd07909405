#include "net/service.h"

#include <utility>
#include <vector>

namespace quaestor::net {

namespace {

constexpr uint8_t kPriCritical = 0;
constexpr uint8_t kPriHigh = 1;
constexpr uint8_t kPriNormal = 2;

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
  hub_ = std::make_unique<FrameHub>(&loop_, options_.write_buffer_soft_limit,
                                    options_.write_buffer_hard_limit);
  http_ = std::make_unique<HttpFrontend>(&loop_, server_);

  if (options_.remote_invalidb) {
    const std::string& p = options_.invalidb_prefix;
    FrameHub* hub = hub_.get();
    bridged_kv_ = std::make_unique<BridgedKvStore>(
        clock_, [hub](const std::string& queue, const std::string& payload,
                      uint8_t priority) { hub->Send(queue, payload, priority); });
    // Origin-side sends: registrations/changes are the data path
    // (critical); acks for incoming notifications are high.
    bridged_kv_->set_queue_priority(p + ":requests", kPriCritical);
    bridged_kv_->set_queue_priority(p + ":notifications:acks", kPriHigh);
    // Frames arriving from workers feed the local queue pair the remote
    // stub consumes.
    BridgedKvStore* bridged = bridged_kv_.get();
    const auto deliver = [bridged](const Frame& frame) {
      bridged->Deliver(frame.channel, frame.payload);
    };
    hub_->Subscribe(p + ":notifications", deliver);
    hub_->Subscribe(p + ":requests:acks", deliver);

    remote_ = std::make_unique<invalidb::InvalidbRemote>(
        clock_, bridged_kv_.get(), p,
        [this](const std::vector<invalidb::Notification>& batch) {
          server_->OnExternalNotifications(batch);
        },
        options_.transport);
    invalidb::InvalidbRemote* remote = remote_.get();
    core::QuaestorServer::ExternalPipeline pipeline;
    pipeline.register_query = [remote](const db::Query& query,
                                       const std::vector<db::Document>& init,
                                       invalidb::EventMask events) {
      remote->RegisterQuery(query, init, events);
      return Status::OK();
    };
    pipeline.deregister_query = [remote](const std::string& key) {
      remote->DeregisterQuery(key);
    };
    pipeline.on_change = [remote](const db::ChangeEvent& ev) {
      remote->OnChange(ev);
    };
    server_->SetExternalPipeline(std::move(pipeline));
  }

  // Invalidation fan-out to socket peers (remote CDN nodes subscribe to
  // the "purge" channel). Purges must beat everything else out.
  FrameHub* hub = hub_.get();
  server_->AddPurgeTarget(
      [hub](const std::string& key) { hub->Send("purge", key, kPriCritical); });

  if (!hub_->Listen(options_.frame_port)) return false;
  if (!http_->Listen(options_.http_port)) return false;
  if (remote_) remote_->StartPolling();
  started_ = true;
  return true;
}

void NetServer::Stop() {
  if (!started_) {
    loop_.Stop();
    return;
  }
  started_ = false;
  if (remote_) remote_->StopPolling();
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
  const std::string& p = options_.invalidb_prefix;
  client_ = std::make_unique<FrameClient>(
      &loop_, frame_port_, options_.reconnect_backoff);
  FrameClient* client = client_.get();
  bridged_kv_ = std::make_unique<BridgedKvStore>(
      clock_,
      [client](const std::string& queue, const std::string& payload,
               uint8_t priority) { client->Send(queue, payload, priority); });
  // Worker-side sends: notifications are the sheddable class under
  // backpressure (the reliable sender retransmits them); request acks
  // stay high so the origin's sender retires state promptly.
  bridged_kv_->set_queue_priority(p + ":notifications", kPriNormal);
  bridged_kv_->set_queue_priority(p + ":requests:acks", kPriHigh);
  BridgedKvStore* bridged = bridged_kv_.get();
  const auto deliver = [bridged](const Frame& frame) {
    bridged->Deliver(frame.channel, frame.payload);
  };
  client_->Subscribe(p + ":requests", deliver);
  client_->Subscribe(p + ":notifications:acks", deliver);
  client_->Connect();

  worker_ = std::make_unique<invalidb::InvalidbWorker>(
      clock_, bridged_kv_.get(), p, cluster_options_, options_.transport);
  worker_->Start();
  started_ = true;
  return true;
}

void NetWorker::Stop() {
  if (!started_) {
    loop_.Stop();
    return;
  }
  started_ = false;
  if (worker_) worker_->Stop();
  if (client_) client_->Close();
  loop_.Stop();
}

}  // namespace quaestor::net
