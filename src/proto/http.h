// HTTP-style request/response types and a path router.
//
// The paper's management plane is RESTful (§II-C: "controls workloads
// running on the Pi devices using RESTful interfaces"), so the model carries
// real method/path/status semantics. Requests and responses travel as a
// JSON envelope value (the fabric charges its encoded size).
//
// Router supports literal segments and ":param" captures:
//   router.handle(Method::kPost, "/containers/:name/freeze", handler);
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/intern.h"
#include "util/json.h"
#include "util/result.h"

namespace picloud::proto {

enum class Method { kGet, kPost, kPut, kDelete };

const char* method_name(Method m);
std::optional<Method> parse_method(const std::string& name);

struct HttpRequest {
  Method method = Method::kGet;
  std::string path;        // "/nodes/pi-r0-03/containers"
  util::Json body;         // JSON payload (null for body-less requests)
  std::uint64_t id = 0;    // correlation id, set by the client

  // The envelope {"m", "p", "b", "i"}; the path and body move into it.
  util::Json to_json() &&;
  // Rejects an unknown method and a path that does not start with '/'.
  static util::Result<HttpRequest> from_json(const util::Json& wire);
};

struct HttpResponse {
  int status = 200;
  util::Json body;
  std::uint64_t id = 0;  // echoes the request id

  bool ok() const { return status >= 200 && status < 300; }
  // The envelope {"s", "b", "i"}; the body moves into it.
  util::Json to_json() &&;
  // Rejects a status outside 100-599.
  static util::Result<HttpResponse> from_json(const util::Json& wire);

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
