#ifndef QUAESTOR_NET_HTTP_SERVER_H_
#define QUAESTOR_NET_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/server.h"
#include "net/event_loop.h"
#include "net/http_codec.h"
#include "net/tcp.h"

namespace quaestor::net {

/// HTTP/1.1 front door for core::QuaestorServer. Keep-alive connections,
/// one in-flight request per connection (the SDK pipeline is
/// sequential). Routes:
///   GET  /fetch?key=K        origin fetch; honours If-None-Match /
///                            Authorization / X-Deadline-Us / X-Priority,
///                            answers with the caching headers of
///                            http_codec.h (ETag, Cache-Control, ...)
///   GET  /ebf[?table=T]      serialized Bloom filter snapshot
///   POST /query-shape        body: query spec JSON; announces the shape
///   POST /write?op=insert|update|delete&table=T&id=I
///                            body: document JSON (insert) / update spec
///                            JSON (update); Authorization resolved by
///                            the server's access controller. Errors
///                            carry x-status-code so the remote client
///                            reconstructs the exact Status.
class HttpFrontend {
 public:
  HttpFrontend(EventLoop* loop, core::QuaestorServer* server);
  ~HttpFrontend();

  /// Binds 127.0.0.1:<port> (0 = ephemeral). Thread-safe (sync-posts).
  bool Listen(uint16_t port);
  uint16_t port() const { return port_; }
  void Close();

  uint64_t requests_served() const;

 private:
  void HandleAccept(int fd);
  void HandleData(uint64_t conn_id);
  /// Appends the encoded response to `request` to `out`.
  void Dispatch(const HttpMessage& request, std::string* out);
  void HandleFetch(const HttpMessage& request, std::string* out);
  HttpMessage HandleEbf(const HttpMessage& request);
  HttpMessage HandleQueryShape(const HttpMessage& request);
  HttpMessage HandleWrite(const HttpMessage& request);

  EventLoop* loop_;
  core::QuaestorServer* server_;
  std::unique_ptr<TcpListener> listener_;
  uint16_t port_ = 0;
  // Loop-thread only.
  std::map<uint64_t, std::shared_ptr<TcpConnection>> conns_;
  uint64_t next_conn_id_ = 1;

  /// Bumped on the loop thread, read from any thread.
  std::atomic<uint64_t> requests_served_{0};
};

}  // namespace quaestor::net

#endif  // QUAESTOR_NET_HTTP_SERVER_H_
