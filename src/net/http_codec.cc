#include "net/http_codec.h"

#include <time.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace quaestor::net {

namespace {

constexpr std::string_view kCrlf = "\r\n";

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string PercentDecode(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '%' && i + 2 < raw.size()) {
      const int hi = HexVal(raw[i + 1]), lo = HexVal(raw[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(raw[i] == '+' ? ' ' : raw[i]);
  }
  return out;
}

void ParseTarget(HttpMessage* msg) {
  const size_t q = msg->target.find('?');
  msg->path = msg->target.substr(0, q);
  if (q == std::string::npos) return;
  std::string_view query = std::string_view(msg->target).substr(q + 1);
  while (!query.empty()) {
    const size_t amp = query.find('&');
    std::string_view pair = query.substr(0, amp);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos) {
      msg->params[PercentDecode(pair.substr(0, eq))] =
          PercentDecode(pair.substr(eq + 1));
    } else if (!pair.empty()) {
      msg->params[PercentDecode(pair)] = "";
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
}

/// Longest header block (all header lines up to the blank line) a
/// message may have. Without a bound, a peer that never ends its headers
/// grows the connection's input forever, and each arrival re-parses it.
constexpr size_t kMaxHeaderBlock = 64u << 10;

/// Shared header+body machinery: `in` positioned at the first header
/// line (start-line already consumed at offset `pos`).
HttpDecode DecodeRest(std::string_view in, size_t pos, HttpMessage* msg,
                      size_t* consumed) {
  const size_t headers_start = pos;
  for (;;) {
    const size_t eol = in.find(kCrlf, pos);
    const size_t block_end = eol == std::string_view::npos ? in.size() : eol;
    if (block_end - headers_start > kMaxHeaderBlock) return HttpDecode::kError;
    if (eol == std::string_view::npos) return HttpDecode::kNeedMore;
    if (eol == pos) {  // blank line: end of headers
      pos += 2;
      break;
    }
    std::string_view line = in.substr(pos, eol - pos);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) return HttpDecode::kError;
    msg->headers[ToLower(Trim(line.substr(0, colon)))] =
        std::string(Trim(line.substr(colon + 1)));
    pos = eol + 2;
  }
  size_t content_length = 0;
  auto it = msg->headers.find("content-length");
  if (it != msg->headers.end()) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') return HttpDecode::kError;
    content_length = static_cast<size_t>(v);
    if (content_length > (64u << 20)) return HttpDecode::kError;
  }
  if (in.size() - pos < content_length) return HttpDecode::kNeedMore;
  msg->body = std::string(in.substr(pos, content_length));
  *consumed = pos + content_length;
  return HttpDecode::kComplete;
}

void AppendHeaders(std::string* out, const HttpMessage& msg) {
  for (const auto& [name, value] : msg.headers) {
    out->append(name);
    out->append(": ");
    out->append(value);
    out->append(kCrlf);
  }
  out->append("content-length: ");
  out->append(std::to_string(msg.body.size()));
  out->append(kCrlf);
  out->append(kCrlf);
  out->append(msg.body);
}

std::string_view ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

template <typename Int>
void AppendInt(std::string* out, Int value) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, res.ptr);
}

/// Appends the HTTP-date of `micros`. Formats at most once per distinct
/// second per thread: consecutive responses mostly share one.
void AppendHttpDate(std::string* out, Micros micros) {
  struct Formatted {
    int64_t secs = -1;
    char text[64] = {};
    size_t len = 0;
  };
  thread_local Formatted cached;
  const int64_t secs = micros / kMicrosPerSecond;
  if (secs != cached.secs) {
    const time_t t = static_cast<time_t>(secs);
    struct tm tm_utc;
    gmtime_r(&t, &tm_utc);
    cached.len = strftime(cached.text, sizeof(cached.text),
                          "%a, %d %b %Y %H:%M:%S GMT", &tm_utc);
    cached.secs = secs;
  }
  out->append(cached.text, cached.len);
}

int64_t ParseI64(const std::string& s) {
  return std::strtoll(s.c_str(), nullptr, 10);
}

}  // namespace

std::string PercentEncode(std::string_view raw) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    const unsigned char u = static_cast<unsigned char>(c);
    const bool safe = (u >= 'a' && u <= 'z') || (u >= 'A' && u <= 'Z') ||
                      (u >= '0' && u <= '9') || u == '-' || u == '_' ||
                      u == '.' || u == '~';
    if (safe) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
    }
  }
  return out;
}

HttpDecode DecodeHttpRequest(std::string_view in, HttpMessage* msg,
                             size_t* consumed) {
  *msg = HttpMessage{};
  const size_t eol = in.find(kCrlf);
  if (eol == std::string_view::npos) {
    return in.size() > 8192 ? HttpDecode::kError : HttpDecode::kNeedMore;
  }
  std::string_view line = in.substr(0, eol);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return HttpDecode::kError;
  if (line.substr(sp2 + 1).compare(0, 5, "HTTP/") != 0) {
    return HttpDecode::kError;
  }
  msg->method = std::string(line.substr(0, sp1));
  msg->target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  if (msg->method.empty() || msg->target.empty()) return HttpDecode::kError;
  ParseTarget(msg);
  return DecodeRest(in, eol + 2, msg, consumed);
}

HttpDecode DecodeHttpResponse(std::string_view in, HttpMessage* msg,
                              size_t* consumed) {
  *msg = HttpMessage{};
  const size_t eol = in.find(kCrlf);
  if (eol == std::string_view::npos) {
    return in.size() > 8192 ? HttpDecode::kError : HttpDecode::kNeedMore;
  }
  std::string_view line = in.substr(0, eol);
  if (line.compare(0, 5, "HTTP/") != 0) return HttpDecode::kError;
  const size_t sp = line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > line.size()) {
    return HttpDecode::kError;
  }
  msg->status = std::atoi(std::string(line.substr(sp + 1, 3)).c_str());
  if (msg->status < 100 || msg->status > 599) return HttpDecode::kError;
  return DecodeRest(in, eol + 2, msg, consumed);
}

std::string EncodeHttpRequest(const HttpMessage& msg) {
  std::string out = msg.method;
  out.push_back(' ');
  out.append(msg.target);
  out.append(" HTTP/1.1");
  out.append(kCrlf);
  AppendHeaders(&out, msg);
  return out;
}

std::string EncodeHttpResponse(const HttpMessage& msg) {
  std::string out = "HTTP/1.1 ";
  out.append(std::to_string(msg.status));
  out.push_back(' ');
  out.append(ReasonPhrase(msg.status));
  out.append(kCrlf);
  AppendHeaders(&out, msg);
  return out;
}

void AppendFetchResponse(const WireResponse& response, std::string* out) {
  const webcache::HttpResponse& r = response.http;
  int status = 404;
  if (r.not_modified) {
    status = 304;
  } else if (r.ok) {
    status = 200;
  } else if (r.deadline_exceeded) {
    status = 504;
  } else if (r.shed) {
    status = 429;
  } else if (r.unavailable) {
    status = 503;
  }
  out->append("HTTP/1.1 ");
  AppendInt(out, status);
  out->push_back(' ');
  out->append(ReasonPhrase(status));
  out->append(kCrlf);
  // Header names in sorted order, as an HttpMessage's std::map emits them.
  const bool caching = status == 200 || status == 304;
  if (caching) {
    if (r.ttl > 0) {
      out->append("cache-control: max-age=");
      AppendInt(out, r.ttl / kMicrosPerSecond);
      out->append(kCrlf);
    } else {
      out->append("cache-control: no-store\r\n");
    }
    out->append("etag: \"");
    AppendInt(out, r.etag);
    out->append("\"\r\n");
    if (r.last_modified > 0) {
      out->append("last-modified: ");
      AppendHttpDate(out, r.last_modified);
      out->append(kCrlf);
    }
    out->append("x-last-modified-us: ");
    AppendInt(out, r.last_modified);
    out->append(kCrlf);
  }
  if (response.served_stale_on_shed) {
    out->append("x-served-stale-on-shed: 1\r\nx-stale-age-us: ");
    AppendInt(out, response.stale_entry_age);
    out->append(kCrlf);
  }
  if (caching) {
    out->append("x-ttl-us: ");
    AppendInt(out, r.ttl);
    out->append(kCrlf);
  }
  const std::string_view body =
      status == 200 ? std::string_view(r.body) : std::string_view();
  out->append("content-length: ");
  AppendInt(out, body.size());
  out->append("\r\n\r\n");
  out->append(body);
}

WireResponse FromHttpMessage(const HttpMessage& msg) {
  WireResponse out;
  webcache::HttpResponse& r = out.http;
  switch (msg.status) {
    case 200:
      r.ok = true;
      r.body = msg.body;
      break;
    case 304:
      // A revalidation answer is a success without a body, exactly as the
      // in-process server reports it.
      r.ok = true;
      r.not_modified = true;
      break;
    case 429:
      r.shed = true;
      break;
    case 503:
      r.unavailable = true;
      break;
    case 504:
      r.deadline_exceeded = true;
      break;
    default:
      break;  // 404 and friends: plain miss
  }
  auto get = [&](const char* name) -> const std::string* {
    auto it = msg.headers.find(name);
    return it == msg.headers.end() ? nullptr : &it->second;
  };
  if (const std::string* etag = get("etag")) {
    std::string_view v = *etag;
    if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
      v = v.substr(1, v.size() - 2);
    }
    r.etag = std::strtoull(std::string(v).c_str(), nullptr, 10);
  }
  if (const std::string* ttl = get("x-ttl-us")) r.ttl = ParseI64(*ttl);
  if (const std::string* lm = get("x-last-modified-us")) {
    r.last_modified = ParseI64(*lm);
  }
  if (get("x-served-stale-on-shed")) {
    out.served_stale_on_shed = true;
    if (const std::string* age = get("x-stale-age-us")) {
      out.stale_entry_age = ParseI64(*age);
    }
  }
  return out;
}

HttpMessage ToHttpMessage(const webcache::HttpRequest& request) {
  HttpMessage msg;
  msg.method = "GET";
  msg.target = "/fetch?key=" + PercentEncode(request.key);
  ParseTarget(&msg);
  if (request.has_if_none_match) {
    msg.headers["if-none-match"] =
        "\"" + std::to_string(request.if_none_match) + "\"";
  }
  if (!request.auth_token.empty()) {
    msg.headers["authorization"] = "Bearer " + request.auth_token;
  }
  if (request.context.deadline != 0) {
    msg.headers["x-deadline-us"] = std::to_string(request.context.deadline);
  }
  if (request.context.priority != Priority::kNormal) {
    msg.headers["x-priority"] =
        std::to_string(static_cast<int>(request.context.priority));
  }
  return msg;
}

webcache::HttpRequest FetchRequestFromHttpMessage(const HttpMessage& msg) {
  webcache::HttpRequest req;
  auto key = msg.params.find("key");
  if (key != msg.params.end()) req.key = key->second;
  auto inm = msg.headers.find("if-none-match");
  if (inm != msg.headers.end()) {
    std::string_view v = inm->second;
    if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
      v = v.substr(1, v.size() - 2);
    }
    req.has_if_none_match = true;
    req.if_none_match = std::strtoull(std::string(v).c_str(), nullptr, 10);
  }
  auto auth = msg.headers.find("authorization");
  if (auth != msg.headers.end()) {
    std::string_view v = auth->second;
    if (v.compare(0, 7, "Bearer ") == 0) v = v.substr(7);
    req.auth_token = std::string(v);
  }
  auto deadline = msg.headers.find("x-deadline-us");
  if (deadline != msg.headers.end()) {
    req.context.deadline = ParseI64(deadline->second);
  }
  auto priority = msg.headers.find("x-priority");
  if (priority != msg.headers.end()) {
    const int64_t p = ParseI64(priority->second);
    if (p >= 0 && p <= 3) req.context.priority = static_cast<Priority>(p);
  }
  return req;
}

}  // namespace quaestor::net
