#include "net/tcp.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace quaestor::net {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

namespace {

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpConnection

std::shared_ptr<TcpConnection> TcpConnection::Adopt(EventLoop* loop, int fd) {
  SetNonBlocking(fd);
  SetNoDelay(fd);
  std::shared_ptr<TcpConnection> conn(new TcpConnection(loop, fd));
  // The epoll handler keeps the connection alive while registered.
  std::weak_ptr<TcpConnection> weak = conn;
  loop->AddFd(fd, EPOLLIN, [weak](uint32_t events) {
    if (auto self = weak.lock()) self->HandleEvents(events);
  });
  return conn;
}

TcpConnection::TcpConnection(EventLoop* loop, int fd) : loop_(loop), fd_(fd) {}

TcpConnection::~TcpConnection() {
  if (fd_ >= 0) {
    loop_->RemoveFd(fd_);
    ::close(fd_);
  }
}

void TcpConnection::Close() {
  if (fd_ < 0) return;
  loop_->RemoveFd(fd_);
  ::close(fd_);
  fd_ = -1;
  output_.clear();
  output_offset_ = 0;
  if (on_close_) on_close_();
}

void TcpConnection::HandleEvents(uint32_t events) {
  // Keep *this alive across user callbacks that may drop their refs.
  std::shared_ptr<TcpConnection> guard = shared_from_this();
  if (events & (EPOLLHUP | EPOLLERR)) {
    Close();
    return;
  }
  if (events & EPOLLIN) HandleReadable();
  if (fd_ >= 0 && (events & EPOLLOUT)) HandleWritable();
}

void TcpConnection::HandleReadable() {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      input_.append(buf, static_cast<size_t>(n));
      // A short read drained the socket for now. Epoll is level-triggered,
      // so later bytes and EOF are reported again; reading on would only
      // earn an EAGAIN.
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // peer closed
      Close();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    Close();  // ECONNRESET etc.
    return;
  }
  if (on_data_) on_data_();
}

bool TcpConnection::Send(std::string_view data) {
  if (fd_ < 0) return false;
  if (output_.size() - output_offset_ + data.size() > hard_limit_) {
    return false;  // bounded buffer: refuse, caller sheds
  }
  if (output_.size() == output_offset_) {
    // Nothing queued: try the socket directly.
    size_t written = 0;
    while (written < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + written,
                               data.size() - written, MSG_NOSIGNAL);
      if (n > 0) {
        written += static_cast<size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Close();  // EPIPE (MSG_NOSIGNAL: no SIGPIPE) / ECONNRESET
      return false;
    }
    if (written == data.size()) return true;
    data.remove_prefix(written);
  }
  output_.clear();
  output_offset_ = 0;
  output_.append(data);
  UpdateInterest();
  return true;
}

void TcpConnection::HandleWritable() {
  while (output_offset_ < output_.size()) {
    const ssize_t n = ::send(fd_, output_.data() + output_offset_,
                             output_.size() - output_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      output_offset_ += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    Close();
    return;
  }
  if (output_offset_ == output_.size()) {
    output_.clear();
    output_offset_ = 0;
  } else if (output_offset_ > (64u << 10)) {
    output_.erase(0, output_offset_);
    output_offset_ = 0;
  }
  UpdateInterest();
}

void TcpConnection::UpdateInterest() {
  const bool want = output_offset_ < output_.size();
  if (want == want_write_ || fd_ < 0) return;
  want_write_ = want;
  loop_->ModFd(fd_, want ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
}

// ---------------------------------------------------------------------------
// TcpListener

TcpListener::~TcpListener() { Close(); }

bool TcpListener::Listen(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 128) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  return loop_->AddFd(fd_, EPOLLIN, [this](uint32_t) {
    for (;;) {
      const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (client < 0) break;  // EAGAIN or transient error: wait for epoll
      if (on_accept_) {
        on_accept_(client);
      } else {
        ::close(client);
      }
    }
  });
}

void TcpListener::Close() {
  if (fd_ < 0) return;
  loop_->RemoveFd(fd_);
  ::close(fd_);
  fd_ = -1;
}

// ---------------------------------------------------------------------------
// Dialers

int DialLoopback(uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = LoopbackAddr(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int DialLoopbackBlocking(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = LoopbackAddr(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  SetNoDelay(fd);
  return fd;
}

}  // namespace quaestor::net
