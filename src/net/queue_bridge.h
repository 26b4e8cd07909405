#ifndef QUAESTOR_NET_QUEUE_BRIDGE_H_
#define QUAESTOR_NET_QUEUE_BRIDGE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/framing.h"
#include "net/tcp.h"

namespace quaestor::net {

/// Frames an InvaliDB transport endpoint received from its peer, each
/// handed straight to its receive path on the loop thread that read it.
struct FrameDeliveries {
  std::atomic<uint64_t> count{0};
  uint64_t deliveries() const { return count.load(); }
};

/// Server side of the frame protocol: accepts connections, tracks which
/// channel prefixes each peer subscribed to (via kSubscribeChannel
/// control frames), fans outgoing frames to interested peers, and hands
/// frames arriving *from* peers to local Subscribe() handlers.
///
/// Backpressure: a peer whose connection buffer is at the hard limit
/// gets nothing; at or past the soft limit only frames with priority
/// kHigh or better (<= 1) are still queued. Everything shed is counted.
class FrameHub {
 public:
  using Handler = std::function<void(const Frame&)>;

  FrameHub(EventLoop* loop, size_t soft_limit, size_t hard_limit)
      : loop_(loop), soft_limit_(soft_limit), hard_limit_(hard_limit) {}
  ~FrameHub();

  /// Binds 127.0.0.1:<port> (0 = ephemeral). Thread-safe (sync-posts).
  bool Listen(uint16_t port);
  uint16_t port() const { return port_; }
  void Close();

  /// Registers a local consumer for incoming frames whose channel starts
  /// with `prefix`. Call before Listen (not synchronized afterwards).
  void Subscribe(const std::string& prefix, Handler handler);

  /// Ships one frame to every connected peer subscribed to `channel`.
  /// Safe from any thread.
  void Send(const std::string& channel, const std::string& payload,
            uint8_t priority);

  uint64_t frames_shed() const;
  uint64_t frames_shed_low_priority() const;
  size_t connections() const;

 private:
  struct Peer {
    std::shared_ptr<TcpConnection> conn;
    std::vector<std::string> prefixes;  // subscription prefixes
  };

  void HandleAccept(int fd);
  void HandleFrames(uint64_t peer_id);

  EventLoop* loop_;
  const size_t soft_limit_;
  const size_t hard_limit_;
  std::unique_ptr<TcpListener> listener_;
  uint16_t port_ = 0;
  // Loop-thread only.
  std::map<uint64_t, Peer> peers_;
  uint64_t next_peer_id_ = 1;
  std::vector<std::pair<std::string, Handler>> local_subs_;

  mutable std::mutex stats_mu_;
  uint64_t frames_shed_ = 0;
  uint64_t frames_shed_low_priority_ = 0;
};

/// Client side: dials a FrameHub, replays its subscriptions on every
/// (re)connect, and reconnects with a fixed backoff when the connection
/// drops. Send() while disconnected sheds — the reliable-queue layer on
/// top retransmits, so nothing needs buffering here.
class FrameClient {
 public:
  using Handler = std::function<void(const Frame&)>;

  FrameClient(EventLoop* loop, uint16_t port, int64_t reconnect_backoff_us);
  ~FrameClient();

  /// Registers interest in channels starting with `prefix`; replayed to
  /// the hub on every connect. Call before Connect.
  void Subscribe(const std::string& prefix, Handler handler);

  /// Starts dialing (async). Thread-safe.
  void Connect();
  void Close();

  /// Ships one frame if connected; sheds (returns false) otherwise.
  bool Send(const std::string& channel, const std::string& payload,
            uint8_t priority);

  bool connected() const;
  uint64_t reconnects() const;
  uint64_t frames_shed() const;

 private:
  void ConnectInLoop();
  void HandleConnected();
  void HandleFrames();
  void HandleDisconnect();

  EventLoop* loop_;
  const uint16_t port_;
  const int64_t reconnect_backoff_us_;
  std::vector<std::pair<std::string, Handler>> subs_;

  mutable std::mutex mu_;
  std::shared_ptr<TcpConnection> conn_;  // null while disconnected
  bool handshake_done_ = false;
  bool closing_ = false;
  uint64_t reconnects_ = 0;
  uint64_t frames_shed_ = 0;
};

}  // namespace quaestor::net

#endif  // QUAESTOR_NET_QUEUE_BRIDGE_H_
