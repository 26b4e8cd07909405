#ifndef QUAESTOR_NET_SERVICE_H_
#define QUAESTOR_NET_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/clock.h"
#include "core/server.h"
#include "invalidb/transport.h"
#include "net/event_loop.h"
#include "net/http_server.h"
#include "net/queue_bridge.h"

namespace quaestor::net {

/// Real-socket serving, off by default: the whole layer is inert until
/// `enabled` is set, and nothing else in the system references it.
struct NetOptions {
  bool enabled = false;
  /// 0 = ephemeral (port() reports the bound one) — the only safe choice
  /// for tests sharing a machine.
  uint16_t http_port = 0;
  uint16_t frame_port = 0;
  /// Per-connection write-buffer bounds: past `soft` only kCritical/kHigh
  /// frames still queue, at `hard` everything sheds (the reliable queue
  /// retransmits what matters).
  size_t write_buffer_soft_limit = 256u << 10;
  size_t write_buffer_hard_limit = 1u << 20;
  Micros reconnect_backoff = 20 * kMicrosPerMilli;
  /// Route the InvaliDB data path to workers over TCP (NetWorker peers)
  /// instead of the in-process cluster.
  bool remote_invalidb = false;
  std::string invalidb_prefix = "invalidb";
  invalidb::TransportOptions transport;
};

/// Serving-side bundle: event loop + HTTP front-end + frame hub, and —
/// when remote_invalidb is on — the InvalidbRemote stub wired into the
/// server's ExternalPipeline with its queues carried by the hub. Frames
/// from workers run its receive path (notification handling and purge
/// fan-out included) on the loop thread; a loop timer ticks it.
class NetServer {
 public:
  NetServer(Clock* clock, core::QuaestorServer* server, NetOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Starts the loop and binds both listeners. False if anything failed
  /// (loop/listeners are torn down on failure paths by the dtor).
  bool Start();
  /// Closes the listeners and the hub (sync barriers) and stops the loop:
  /// afterwards no frame or tick reaches the remote.
  void Stop();

  uint16_t http_port() const;
  uint16_t frame_port() const;

  EventLoop* loop() { return &loop_; }
  FrameHub* hub() { return hub_.get(); }
  HttpFrontend* http() { return http_.get(); }
  invalidb::InvalidbRemote* remote() { return remote_.get(); }
  /// Frames delivered to the remote; perfbench reads it by this name.
  FrameDeliveries* bridged_kv() { return &deliveries_; }

 private:
  Clock* clock_;
  core::QuaestorServer* server_;
  NetOptions options_;
  EventLoop loop_;
  std::unique_ptr<FrameHub> hub_;
  std::unique_ptr<HttpFrontend> http_;
  FrameDeliveries deliveries_;
  std::unique_ptr<invalidb::InvalidbRemote> remote_;
  bool started_ = false;
};

/// Matching-cluster side: a FrameClient dialed into a NetServer's frame
/// hub and an InvalidbWorker whose receive path, matching included, runs
/// on the client's loop thread; a loop timer ticks it.
class NetWorker {
 public:
  NetWorker(Clock* clock, uint16_t frame_port, NetOptions options,
            invalidb::InvalidbOptions cluster_options =
                invalidb::InvalidbOptions());
  ~NetWorker();

  NetWorker(const NetWorker&) = delete;
  NetWorker& operator=(const NetWorker&) = delete;

  bool Start();
  /// Ships the notifications the cluster still holds, closes the client
  /// (a sync barrier) and stops the loop: afterwards no frame or tick
  /// reaches the worker.
  void Stop();

  EventLoop* loop() { return &loop_; }
  FrameClient* frame_client() { return client_.get(); }
  /// Frames delivered to the worker; perfbench reads it by this name.
  FrameDeliveries* bridged_kv() { return &deliveries_; }
  invalidb::InvalidbWorker* worker() { return worker_.get(); }

 private:
  Clock* clock_;
  NetOptions options_;
  invalidb::InvalidbOptions cluster_options_;
  const uint16_t frame_port_;
  EventLoop loop_;
  std::unique_ptr<FrameClient> client_;
  FrameDeliveries deliveries_;
  std::unique_ptr<invalidb::InvalidbWorker> worker_;
  bool started_ = false;
};

}  // namespace quaestor::net

#endif  // QUAESTOR_NET_SERVICE_H_
