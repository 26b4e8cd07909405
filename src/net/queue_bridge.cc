#include "net/queue_bridge.h"

#include <algorithm>
#include <utility>

namespace quaestor::net {

namespace {

bool MatchesAny(const std::vector<std::string>& prefixes,
                const std::string& channel) {
  for (const std::string& p : prefixes) {
    if (channel.compare(0, p.size(), p) == 0) return true;
  }
  return false;
}

/// Parses every complete frame at the head of `buffer`, invoking `fn`
/// for each; erases consumed bytes and leaves torn tails in place.
/// Returns false on protocol error (caller closes the connection).
template <typename Fn>
bool DrainFrames(std::string* buffer, Fn&& fn) {
  size_t cursor = 0;
  for (;;) {
    Frame frame;
    size_t consumed = 0;
    const FrameDecode rc = DecodeFrame(
        std::string_view(*buffer).substr(cursor), &frame, &consumed);
    if (rc == FrameDecode::kError) return false;
    if (rc == FrameDecode::kNeedMore) break;
    cursor += consumed;
    fn(frame);
  }
  buffer->erase(0, cursor);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// FrameHub

FrameHub::~FrameHub() { Close(); }

bool FrameHub::Listen(uint16_t port) {
  bool ok = false;
  loop_->RunInLoopSync([&] {
    listener_ = std::make_unique<TcpListener>(loop_);
    listener_->set_on_accept([this](int fd) { HandleAccept(fd); });
    ok = listener_->Listen(port);
    if (ok) port_ = listener_->port();
  });
  return ok;
}

void FrameHub::Close() {
  loop_->RunInLoopSync([&] {
    if (listener_) listener_->Close();
    // Close() mutates peers_ via on_close; detach the map first.
    std::map<uint64_t, Peer> doomed;
    doomed.swap(peers_);
    for (auto& [id, peer] : doomed) peer.conn->Close();
  });
}

void FrameHub::Subscribe(const std::string& prefix, Handler handler) {
  local_subs_.emplace_back(prefix, std::move(handler));
}

void FrameHub::HandleAccept(int fd) {
  std::shared_ptr<TcpConnection> conn = TcpConnection::Adopt(loop_, fd);
  conn->set_write_limits(soft_limit_, hard_limit_);
  const uint64_t id = next_peer_id_++;
  peers_[id] = Peer{conn, {}};
  conn->set_on_data([this, id] { HandleFrames(id); });
  conn->set_on_close([this, id] { peers_.erase(id); });
}

void FrameHub::HandleFrames(uint64_t peer_id) {
  auto it = peers_.find(peer_id);
  if (it == peers_.end()) return;
  std::shared_ptr<TcpConnection> conn = it->second.conn;
  const bool ok = DrainFrames(&conn->input(), [&](const Frame& frame) {
    if (frame.channel == kSubscribeChannel) {
      auto again = peers_.find(peer_id);
      if (again != peers_.end()) {
        again->second.prefixes.push_back(frame.payload);
      }
      return;
    }
    for (auto& [prefix, handler] : local_subs_) {
      if (frame.channel.compare(0, prefix.size(), prefix) == 0) {
        handler(frame);
      }
    }
  });
  if (!ok) conn->Close();  // malformed stream: drop the peer
}

void FrameHub::Send(const std::string& channel, const std::string& payload,
                    uint8_t priority) {
  std::string wire = EncodeFrame(Frame{priority, channel, payload});
  loop_->QueueInLoop([this, channel, wire = std::move(wire), priority] {
    for (auto it = peers_.begin(); it != peers_.end();) {
      const Peer& peer = (it++)->second;
      if (!MatchesAny(peer.prefixes, channel)) continue;
      // A failed send closes the connection, whose on_close erases the
      // peer: hold the connection, and the loop has stepped past it.
      std::shared_ptr<TcpConnection> conn = peer.conn;
      // Backpressure: past the soft limit only critical/high classes
      // still queue; the hard limit (enforced in TcpConnection::Send)
      // sheds everything.
      if (conn->write_buffered() >= soft_limit_ && priority > 1) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++frames_shed_;
        ++frames_shed_low_priority_;
        continue;
      }
      if (!conn->Send(wire)) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++frames_shed_;
      }
    }
  });
}

uint64_t FrameHub::frames_shed() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return frames_shed_;
}

uint64_t FrameHub::frames_shed_low_priority() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return frames_shed_low_priority_;
}

size_t FrameHub::connections() const {
  // peers_ is loop-thread state; snapshot via a sync hop.
  size_t n = 0;
  loop_->RunInLoopSync([&] {
    for (const auto& [id, peer] : peers_) n += peer.prefixes.empty() ? 0 : 1;
  });
  return n;
}

// ---------------------------------------------------------------------------
// FrameClient

FrameClient::FrameClient(EventLoop* loop, uint16_t port,
                         int64_t reconnect_backoff_us)
    : loop_(loop), port_(port), reconnect_backoff_us_(reconnect_backoff_us) {}

FrameClient::~FrameClient() { Close(); }

void FrameClient::Subscribe(const std::string& prefix, Handler handler) {
  subs_.emplace_back(prefix, std::move(handler));
}

void FrameClient::Connect() {
  loop_->RunInLoop([this] { ConnectInLoop(); });
}

void FrameClient::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_) return;
    closing_ = true;
  }
  // Sync barrier: every Send/Connect posted before this has drained by
  // the time we return, so nothing references *this afterwards.
  loop_->RunInLoopSync([this] {
    std::shared_ptr<TcpConnection> conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn.swap(conn_);
    }
    if (conn) {
      conn->set_on_close(nullptr);
      conn->Close();
    }
  });
}

void FrameClient::ConnectInLoop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_ || conn_) return;
  }
  const int fd = DialLoopback(port_);
  if (fd < 0) {
    HandleDisconnect();
    return;
  }
  std::shared_ptr<TcpConnection> conn = TcpConnection::Adopt(loop_, fd);
  conn->set_on_data([this] { HandleFrames(); });
  conn->set_on_close([this] { HandleDisconnect(); });
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn_ = conn;
  }
  HandleConnected();
}

void FrameClient::HandleConnected() {
  std::shared_ptr<TcpConnection> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn = conn_;
    if (handshake_done_) ++reconnects_;
    handshake_done_ = true;
  }
  if (!conn || subs_.empty()) return;
  // Replay subscriptions in one write, so the hub installs them together
  // and counts this peer ready with all of them in place. On a
  // still-in-progress connect the write buffers and flushes when the
  // socket turns writable; on failure the error surfaces as a close and
  // we retry.
  std::string wire;
  for (auto& [prefix, handler] : subs_) {
    AppendFrame(&wire, Frame{0, std::string(kSubscribeChannel), prefix});
  }
  conn->Send(wire);
}

void FrameClient::HandleFrames() {
  std::shared_ptr<TcpConnection> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn = conn_;
  }
  if (!conn) return;
  const bool ok = DrainFrames(&conn->input(), [&](const Frame& frame) {
    for (auto& [prefix, handler] : subs_) {
      if (frame.channel.compare(0, prefix.size(), prefix) == 0) {
        handler(frame);
      }
    }
  });
  if (!ok) conn->Close();
}

void FrameClient::HandleDisconnect() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn_.reset();
    if (closing_) return;
  }
  loop_->AddTimer(reconnect_backoff_us_, [this] {
    bool closing;
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing = closing_;
    }
    if (!closing) ConnectInLoop();
  });
}

bool FrameClient::Send(const std::string& channel, const std::string& payload,
                       uint8_t priority) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_ || !conn_) {
      ++frames_shed_;
      return false;
    }
  }
  std::string wire = EncodeFrame(Frame{priority, channel, payload});
  loop_->RunInLoop([this, wire = std::move(wire)] {
    std::shared_ptr<TcpConnection> conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn = conn_;
      if (closing_) return;
    }
    if (!conn || !conn->Send(wire)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++frames_shed_;
    }
  });
  return true;
}

bool FrameClient::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conn_ != nullptr;
}

uint64_t FrameClient::reconnects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reconnects_;
}

uint64_t FrameClient::frames_shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_shed_;
}

}  // namespace quaestor::net
