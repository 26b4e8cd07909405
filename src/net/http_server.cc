#include "net/http_server.h"

#include <utility>

#include "db/document.h"
#include "db/query.h"
#include "db/update.h"
#include "db/value.h"
#include "ebf/bloom_filter.h"

namespace quaestor::net {

namespace {

HttpMessage StatusResponse(const Status& st) {
  HttpMessage msg;
  if (st.IsNotFound()) {
    msg.status = 404;
  } else if (st.IsUnavailable()) {
    msg.status = 503;
  } else if (st.IsResourceExhausted()) {
    msg.status = 429;
  } else if (st.IsDeadlineExceeded()) {
    msg.status = 504;
  } else {
    msg.status = 400;
  }
  msg.headers["x-status-code"] =
      std::to_string(static_cast<int>(st.code()));
  msg.body = st.message();
  return msg;
}

HttpMessage DocumentResponse(const db::Document& doc) {
  HttpMessage msg;
  msg.status = 200;
  db::AppendDocumentJson(&msg.body, doc);
  return msg;
}

RequestContext ContextFromHeaders(const HttpMessage& request) {
  RequestContext ctx;
  auto deadline = request.headers.find("x-deadline-us");
  if (deadline != request.headers.end()) {
    ctx.deadline = std::strtoll(deadline->second.c_str(), nullptr, 10);
  }
  auto priority = request.headers.find("x-priority");
  if (priority != request.headers.end()) {
    const long p = std::strtol(priority->second.c_str(), nullptr, 10);
    if (p >= 0 && p <= 3) ctx.priority = static_cast<Priority>(p);
  }
  return ctx;
}

std::string AuthToken(const HttpMessage& request) {
  auto it = request.headers.find("authorization");
  if (it == request.headers.end()) return "";
  std::string_view v = it->second;
  if (v.compare(0, 7, "Bearer ") == 0) v = v.substr(7);
  return std::string(v);
}

}  // namespace

HttpFrontend::HttpFrontend(EventLoop* loop, core::QuaestorServer* server)
    : loop_(loop), server_(server) {}

HttpFrontend::~HttpFrontend() { Close(); }

bool HttpFrontend::Listen(uint16_t port) {
  bool ok = false;
  loop_->RunInLoopSync([&] {
    listener_ = std::make_unique<TcpListener>(loop_);
    listener_->set_on_accept([this](int fd) { HandleAccept(fd); });
    ok = listener_->Listen(port);
    if (ok) port_ = listener_->port();
  });
  return ok;
}

void HttpFrontend::Close() {
  loop_->RunInLoopSync([&] {
    if (listener_) listener_->Close();
    std::map<uint64_t, std::shared_ptr<TcpConnection>> doomed;
    doomed.swap(conns_);
    for (auto& [id, conn] : doomed) conn->Close();
  });
}

uint64_t HttpFrontend::requests_served() const {
  return requests_served_.load(std::memory_order_relaxed);
}

void HttpFrontend::HandleAccept(int fd) {
  std::shared_ptr<TcpConnection> conn = TcpConnection::Adopt(loop_, fd);
  const uint64_t id = next_conn_id_++;
  conns_[id] = conn;
  conn->set_on_data([this, id] { HandleData(id); });
  conn->set_on_close([this, id] { conns_.erase(id); });
}

void HttpFrontend::HandleData(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  std::shared_ptr<TcpConnection> conn = it->second;
  size_t cursor = 0;
  std::string& input = conn->input();
  std::string response;  // reused by pipelined requests
  for (;;) {
    HttpMessage request;
    size_t consumed = 0;
    const HttpDecode rc = DecodeHttpRequest(
        std::string_view(input).substr(cursor), &request, &consumed);
    if (rc == HttpDecode::kError) {
      conn->Close();
      return;
    }
    if (rc == HttpDecode::kNeedMore) break;
    cursor += consumed;
    response.clear();
    Dispatch(request, &response);
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    if (!conn->Send(response)) {
      conn->Close();
      return;
    }
  }
  input.erase(0, cursor);
}

void HttpFrontend::Dispatch(const HttpMessage& request, std::string* out) {
  if (request.method == "GET" && request.path == "/fetch") {
    HandleFetch(request, out);
    return;
  }
  HttpMessage msg;
  if (request.method == "GET" && request.path == "/ebf") {
    msg = HandleEbf(request);
  } else if (request.method == "POST" && request.path == "/query-shape") {
    msg = HandleQueryShape(request);
  } else if (request.method == "POST" && request.path == "/write") {
    msg = HandleWrite(request);
  } else {
    msg.status = 404;
    msg.body = "unknown route";
  }
  out->append(EncodeHttpResponse(msg));
}

void HttpFrontend::HandleFetch(const HttpMessage& request, std::string* out) {
  const webcache::HttpRequest req = FetchRequestFromHttpMessage(request);
  if (req.key.empty()) {
    HttpMessage msg;
    msg.status = 400;
    msg.body = "missing key";
    out->append(EncodeHttpResponse(msg));
    return;
  }
  WireResponse wire;
  wire.http = server_->Fetch(req);
  AppendFetchResponse(wire, out);
}

HttpMessage HttpFrontend::HandleEbf(const HttpMessage& request) {
  auto table = request.params.find("table");
  const ebf::BloomFilter bloom = table == request.params.end()
                                     ? server_->BloomSnapshot()
                                     : server_->BloomSnapshotForTable(
                                           table->second);
  HttpMessage msg;
  msg.status = 200;
  msg.headers["content-type"] = "application/octet-stream";
  msg.body = bloom.Serialize();
  return msg;
}

HttpMessage HttpFrontend::HandleQueryShape(const HttpMessage& request) {
  Result<db::Value> spec = db::Value::FromJson(request.body);
  if (!spec.ok()) return StatusResponse(spec.status());
  Result<db::Query> query = db::Query::FromSpec(spec.value());
  if (!query.ok()) return StatusResponse(query.status());
  server_->RegisterQueryShape(query.value());
  HttpMessage msg;
  msg.status = 200;
  return msg;
}

HttpMessage HttpFrontend::HandleWrite(const HttpMessage& request) {
  auto op = request.params.find("op");
  auto table = request.params.find("table");
  auto id = request.params.find("id");
  if (op == request.params.end() || table == request.params.end() ||
      id == request.params.end()) {
    HttpMessage msg;
    msg.status = 400;
    msg.body = "missing op/table/id";
    return msg;
  }
  const core::Credentials who = server_->auth().Resolve(AuthToken(request));
  const RequestContext ctx = ContextFromHeaders(request);
  Result<db::Document> doc = Status::InvalidArgument("unknown op");
  if (op->second == "insert") {
    Result<db::Value> body = db::Value::FromJson(request.body);
    if (!body.ok()) return StatusResponse(body.status());
    doc = server_->Insert(who, table->second, id->second,
                          std::move(body.value()), ctx);
  } else if (op->second == "update") {
    Result<db::Value> spec = db::Value::FromJson(request.body);
    if (!spec.ok()) return StatusResponse(spec.status());
    Result<db::Update> update = db::Update::Parse(spec.value());
    if (!update.ok()) return StatusResponse(update.status());
    doc = server_->Update(who, table->second, id->second, update.value(), ctx);
  } else if (op->second == "delete") {
    doc = server_->Delete(who, table->second, id->second, ctx);
  }
  if (!doc.ok()) return StatusResponse(doc.status());
  return DocumentResponse(doc.value());
}

}  // namespace quaestor::net
