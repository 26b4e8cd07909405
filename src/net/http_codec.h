#ifndef QUAESTOR_NET_HTTP_CODEC_H_
#define QUAESTOR_NET_HTTP_CODEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "webcache/http.h"

namespace quaestor::net {

/// A parsed HTTP/1.1 message (request or response). Header names are
/// lowercased on decode; query parameters are percent-decoded.
struct HttpMessage {
  // Request side.
  std::string method;
  std::string target;  // raw request target, e.g. "/fetch?key=t%2Fx"
  std::string path;    // target up to '?'
  std::map<std::string, std::string> params;
  // Response side.
  int status = 0;
  // Both.
  std::map<std::string, std::string> headers;
  std::string body;
};

enum class HttpDecode {
  kComplete,  // one message decoded; *consumed bytes used
  kNeedMore,  // headers or body still arriving
  kError,     // malformed start-line / headers / length
};

HttpDecode DecodeHttpRequest(std::string_view in, HttpMessage* msg,
                             size_t* consumed);
HttpDecode DecodeHttpResponse(std::string_view in, HttpMessage* msg,
                              size_t* consumed);

std::string EncodeHttpRequest(const HttpMessage& msg);
std::string EncodeHttpResponse(const HttpMessage& msg);

std::string PercentEncode(std::string_view raw);

/// webcache::HttpResponse plus the stale-serving annotations that ride
/// along as X- headers (they live in FetchOutcome, not HttpResponse, so
/// the wire mapping carries them separately).
struct WireResponse {
  webcache::HttpResponse http;
  bool served_stale_on_shed = false;
  Micros stale_entry_age = 0;
};

/// Appends the HTTP/1.1 encoding of a domain response to `out` in one
/// pass, with no intermediate HttpMessage. Status:
///   304 not_modified · 200 ok · 504 deadline_exceeded · 429 shed ·
///   503 unavailable · 404 otherwise.
/// 200 and 304 carry the caching headers: Cache-Control with floor(ttl)
/// in seconds (no-store when ttl==0); X-TTL-Us / X-Last-Modified-Us keep
/// exact microseconds so the round trip is lossless; Last-Modified is the
/// standard HTTP-date. Stale-on-shed answers add X-Served-Stale-On-Shed /
/// X-Stale-Age-Us. Only a 200 carries the body. Headers are lowercase
/// and sorted by name, then content-length: the bytes EncodeHttpResponse
/// produces for the same status, headers and body.
void AppendFetchResponse(const WireResponse& response, std::string* out);
WireResponse FromHttpMessage(const HttpMessage& msg);

/// GET /fetch with key/If-None-Match/Authorization/X-Deadline-Us (absolute
/// request deadline) / X-Priority headers.
HttpMessage ToHttpMessage(const webcache::HttpRequest& request);
webcache::HttpRequest FetchRequestFromHttpMessage(const HttpMessage& msg);

}  // namespace quaestor::net

#endif  // QUAESTOR_NET_HTTP_CODEC_H_
