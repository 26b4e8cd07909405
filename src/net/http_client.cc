#include "net/http_client.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <utility>

#include "net/tcp.h"

namespace quaestor::net {

namespace {

/// Reconstructs the Status a write endpoint reported via x-status-code.
Status StatusFromResponse(const HttpMessage& msg) {
  auto it = msg.headers.find("x-status-code");
  if (it != msg.headers.end()) {
    const long code = std::strtol(it->second.c_str(), nullptr, 10);
    if (code > 0 && code <= 13) {
      return Status(static_cast<StatusCode>(code), msg.body);
    }
  }
  return Status::Internal("http status " + std::to_string(msg.status));
}

}  // namespace

// ---------------------------------------------------------------------------
// SyncHttpChannel

SyncHttpChannel::~SyncHttpChannel() { Drop(); }

void SyncHttpChannel::Drop() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  residue_.clear();
}

bool SyncHttpChannel::EnsureConnected() {
  if (fd_ >= 0) return true;
  fd_ = DialLoopbackBlocking(port_);
  return fd_ >= 0;
}

Result<HttpMessage> SyncHttpChannel::RoundTrip(const HttpMessage& request) {
  const std::string wire = EncodeHttpRequest(request);
  for (int dial = 0; dial < 2; ++dial) {
    if (!EnsureConnected()) {
      return Status::Unavailable("connect failed");
    }
    // Write the full request.
    size_t written = 0;
    bool write_ok = true;
    while (written < wire.size()) {
      // MSG_NOSIGNAL: a stale peer must fail the write (and trigger the
      // redial below), not raise SIGPIPE.
      const ssize_t n = ::send(fd_, wire.data() + written,
                               wire.size() - written, MSG_NOSIGNAL);
      if (n > 0) {
        written += static_cast<size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      write_ok = false;  // stale keep-alive connection: redial once
      break;
    }
    if (!write_ok) {
      Drop();
      continue;
    }
    // Read until one complete response decodes.
    std::string buffer = std::move(residue_);
    residue_.clear();
    for (;;) {
      HttpMessage response;
      size_t consumed = 0;
      const HttpDecode rc = DecodeHttpResponse(buffer, &response, &consumed);
      if (rc == HttpDecode::kComplete) {
        residue_ = buffer.substr(consumed);
        return response;
      }
      if (rc == HttpDecode::kError) {
        Drop();
        return Status::Internal("malformed http response");
      }
      char chunk[64 * 1024];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        buffer.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      Drop();
      if (!buffer.empty()) {
        return Status::Unavailable("connection lost mid-response");
      }
      break;  // closed before any bytes: retry on a fresh connection
    }
  }
  return Status::Unavailable("connection lost");
}

// ---------------------------------------------------------------------------
// HttpBackend

webcache::HttpResponse HttpBackend::Fetch(
    const webcache::HttpRequest& request) {
  Result<HttpMessage> response = channel_.RoundTrip(ToHttpMessage(request));
  if (!response.ok()) {
    webcache::HttpResponse unavailable;
    unavailable.unavailable = true;
    return unavailable;
  }
  return FromHttpMessage(response.value()).http;
}

ebf::BloomFilter HttpBackend::FetchEbf(const std::string& target) {
  HttpMessage request;
  request.method = "GET";
  request.target = target;
  Result<HttpMessage> response = channel_.RoundTrip(request);
  if (response.ok() && response->status == 200) {
    Result<ebf::BloomFilter> bloom =
        ebf::BloomFilter::Deserialize(response->body);
    if (bloom.ok()) return std::move(bloom).value();
  }
  // Unreachable/garbled EBF endpoint: an empty filter degrades to "no
  // revalidation hints", never to a wrong answer.
  return ebf::BloomFilter();
}

ebf::BloomFilter HttpBackend::BloomSnapshot() { return FetchEbf("/ebf"); }

ebf::BloomFilter HttpBackend::BloomSnapshotForTable(const std::string& table) {
  return FetchEbf("/ebf?table=" + PercentEncode(table));
}

void HttpBackend::RegisterQueryShape(const db::Query& query) {
  HttpMessage request;
  request.method = "POST";
  request.target = "/query-shape";
  request.body = query.ToSpec().ToJson();
  (void)channel_.RoundTrip(request);
}

Result<db::Document> HttpBackend::Write(const std::string& op,
                                        const std::string& auth_token,
                                        const std::string& table,
                                        const std::string& id,
                                        std::string body,
                                        const RequestContext& ctx) {
  HttpMessage request;
  request.method = "POST";
  request.target = "/write?op=" + op + "&table=" + PercentEncode(table) +
                   "&id=" + PercentEncode(id);
  request.body = std::move(body);
  if (!auth_token.empty()) {
    request.headers["authorization"] = "Bearer " + auth_token;
  }
  if (ctx.deadline != 0) {
    request.headers["x-deadline-us"] = std::to_string(ctx.deadline);
  }
  if (ctx.priority != Priority::kNormal) {
    request.headers["x-priority"] =
        std::to_string(static_cast<int>(ctx.priority));
  }
  Result<HttpMessage> response = channel_.RoundTrip(request);
  if (!response.ok()) return response.status();
  if (response->status != 200) return StatusFromResponse(response.value());
  Result<db::Value> parsed = db::Value::FromJson(response->body);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::Internal("write response is not an object");
  }
  db::Object& obj = parsed->as_object();
  db::Document doc;
  auto str = [&](const char* field) -> std::string {
    auto it = obj.find(field);
    return it != obj.end() && it->second.is_string() ? it->second.as_string()
                                                     : "";
  };
  auto num = [&](const char* field) -> int64_t {
    auto it = obj.find(field);
    return it != obj.end() && it->second.is_int() ? it->second.as_int() : 0;
  };
  doc.table = str("table");
  doc.id = str("id");
  doc.version = static_cast<uint64_t>(num("version"));
  doc.write_time = num("write_time");
  auto deleted = obj.find("deleted");
  doc.deleted = deleted != obj.end() && deleted->second.is_bool() &&
                deleted->second.as_bool();
  auto body_it = obj.find("body");
  if (body_it != obj.end()) doc.body = std::move(body_it->second);
  return doc;
}

Result<db::Document> HttpBackend::Insert(const std::string& auth_token,
                                         const std::string& table,
                                         const std::string& id,
                                         db::Value body,
                                         const RequestContext& ctx) {
  return Write("insert", auth_token, table, id, body.ToJson(), ctx);
}

Result<db::Document> HttpBackend::Update(const std::string& auth_token,
                                         const std::string& table,
                                         const std::string& id,
                                         const db::Update& update,
                                         const RequestContext& ctx) {
  return Write("update", auth_token, table, id, update.ToSpec().ToJson(),
               ctx);
}

Result<db::Document> HttpBackend::Delete(const std::string& auth_token,
                                         const std::string& table,
                                         const std::string& id,
                                         const RequestContext& ctx) {
  return Write("delete", auth_token, table, id, "", ctx);
}

}  // namespace quaestor::net
