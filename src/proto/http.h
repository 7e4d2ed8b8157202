// HTTP-style request/response types and a path router.
//
// The paper's management plane is RESTful (§II-C: "controls workloads
// running on the Pi devices using RESTful interfaces"), so the model carries
// real method/path/status semantics. Requests and responses travel as
// schema'd envelopes (util/schema.h): the message carries the struct, and
// the fabric charges the size of its JSON text.
//
// Router supports literal segments and ":param" captures:
//   router.handle(Method::kPost, "/containers/:name/freeze", handler);
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "util/intern.h"
#include "util/json.h"
#include "util/result.h"
#include "util/schema.h"

namespace picloud::proto {

enum class Method : std::uint8_t { kGet, kPost, kPut, kDelete };

constexpr std::array<std::string_view, 4> json_names(Method) {
  return {"GET", "POST", "PUT", "DELETE"};
}
const char* method_name(Method m);

// The request envelope {"b"?, "i", "m", "p"}; "b" only when the body is not
// null.
struct HttpRequest : util::JsonSchema<HttpRequest> {
  Method method = Method::kGet;
  std::string path;        // "/nodes/pi-r0-03/containers"
  util::Json body;         // JSON payload (null for body-less requests)
  std::uint64_t id = 0;    // correlation id, set by the client

  // A server answers a request whose path does not start with '/' with 400.
  bool valid_path() const { return !path.empty() && path[0] == '/'; }

  static constexpr auto json_fields() {
    return std::tuple{util::field("b", &HttpRequest::body),
                      util::field("i", &HttpRequest::id),
                      util::field("m", &HttpRequest::method),
                      util::field("p", &HttpRequest::path)};
  }
};

// The response envelope {"b"?, "i", "s"}.
struct HttpResponse : util::JsonSchema<HttpResponse> {
  int status = 200;
  util::Json body;
  std::uint64_t id = 0;  // echoes the request id

  bool ok() const { return status >= 200 && status < 300; }
  // A client drops a response whose status is outside 100-599.
  bool valid_status() const { return status >= 100 && status <= 599; }

  static constexpr auto json_fields() {
    return std::tuple{util::field("b", &HttpResponse::body),
                      util::field("i", &HttpResponse::id),
                      util::field("s", &HttpResponse::status)};
  }

  static HttpResponse make(int status, util::Json body = util::Json());
  // Convenience bodies: {"error": code, "message": ...}.
  static HttpResponse not_found(const std::string& message = "not found");
  static HttpResponse bad_request(const std::string& message);
  static HttpResponse conflict(const std::string& message);
  static HttpResponse service_unavailable(const std::string& message);
  static HttpResponse from_error(const util::Error& error);
};

// Captured ":param" values, by name.
using PathParams = std::map<std::string, std::string>;
using RouteHandler =
    std::function<HttpResponse(const HttpRequest&, const PathParams&)>;
// Async handlers receive a responder they must invoke exactly once —
// possibly after further network round trips (pimaster proxying a spawn to
// a node daemon).
using Responder = std::function<void(HttpResponse)>;
using AsyncRouteHandler =
    std::function<void(const HttpRequest&, const PathParams&, Responder)>;

// Routes are compiled at registration into a table keyed by segment count,
// with literal segments interned (util/intern.h): dispatch splits the
// request path into string_views, resolves each segment to a Symbol with
// one hash probe, and matches candidates by integer compares — no
// per-request segment strings, no string compares in the scan. PathParams
// are materialized only for the winning route. Observable semantics are
// unchanged: later registrations win on exact duplicates, an unmatched
// path is 404, a matched path with the wrong method is 405.
class Router {
 public:
  // Registers a route; ":name" segments capture. Later registrations win on
  // exact duplicates.
  void handle(Method method, const std::string& pattern, RouteHandler handler);
  void handle_async(Method method, const std::string& pattern,
                    AsyncRouteHandler handler);
  // Dispatches; 404 when nothing matches. The responder may fire later.
  void dispatch_async(const HttpRequest& request, Responder respond) const;
  // Synchronous convenience for purely-sync routers (unit tests, local
  // panels): returns 504 if the matched handler did not respond inline.
  HttpResponse dispatch(const HttpRequest& request) const;
  size_t route_count() const { return routes_.size(); }
  // All registered "METHOD pattern" strings (control panel's API index).
  std::vector<std::string> describe() const;

 private:
  // One pre-compiled pattern segment: a valid `literal` matches exactly
  // that interned string; an invalid one is a ":param" capture.
  struct Seg {
    util::Symbol literal;
    std::string param;  // capture name, empty for literals
  };
  struct Route {
    Method method;
    std::vector<Seg> segs;
    std::string pattern;  // original, for describe()
    AsyncRouteHandler handler;
  };

  std::vector<Route> routes_;
  // Literal-segment vocabulary shared by all routes. Request segments that
  // find() nothing here can only match ":param" captures.
  util::StringTable seg_names_;
  // Route indices (registration order) bucketed by segment count — only
  // same-length candidates are ever scanned.
  std::vector<std::vector<std::uint32_t>> by_count_;
};

}  // namespace picloud::proto
