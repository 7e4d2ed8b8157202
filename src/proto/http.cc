#include "proto/http.h"

#include "util/strings.h"

namespace picloud::proto {

const char* method_name(Method m) {
  // The names are literals, so each view is NUL-terminated.
  return json_names(m)[static_cast<size_t>(m)].data();
}

HttpResponse HttpResponse::make(int status, util::Json body) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(body);
  return r;
}

namespace {
HttpResponse error_response(int status, const std::string& code,
                            const std::string& message) {
  util::Json body = util::Json::object();
  body.set("error", code);
  body.set("message", message);
  return HttpResponse::make(status, std::move(body));
}
}  // namespace

HttpResponse HttpResponse::not_found(const std::string& message) {
  return error_response(404, "not_found", message);
}

HttpResponse HttpResponse::bad_request(const std::string& message) {
  return error_response(400, "bad_request", message);
}

HttpResponse HttpResponse::conflict(const std::string& message) {
  return error_response(409, "conflict", message);
}

HttpResponse HttpResponse::service_unavailable(const std::string& message) {
  return error_response(503, "unavailable", message);
}

HttpResponse HttpResponse::from_error(const util::Error& error) {
  int status = 500;
  if (error.code == "not_found" || error.code == "no_image") status = 404;
  else if (error.code == "exists" || error.code == "conflict" ||
           error.code == "state") status = 409;
  else if (error.code == "invalid" || error.code == "bad_request") status = 400;
  else if (error.code == "oom" || error.code == "limit" ||
           error.code == "no_capacity" || error.code == "disk_full") status = 507;
  else if (error.code == "timeout" || error.code == "unavailable") status = 503;
  return error_response(status, error.code, error.message);
}

void Router::handle(Method method, const std::string& pattern,
                    RouteHandler handler) {
  handle_async(method, pattern,
               [handler = std::move(handler)](const HttpRequest& req,
                                              const PathParams& params,
                                              Responder respond) {
                 respond(handler(req, params));
               });
}

void Router::handle_async(Method method, const std::string& pattern,
                          AsyncRouteHandler handler) {
  Route route;
  route.method = method;
  route.pattern = pattern;
  for (const std::string& seg : util::split_nonempty(pattern, '/')) {
    Seg compiled;
    if (!seg.empty() && seg[0] == ':') {
      compiled.param = seg.substr(1);
    } else {
      compiled.literal = seg_names_.intern(seg);
    }
    route.segs.push_back(std::move(compiled));
  }
  route.handler = std::move(handler);
  const std::size_t count = route.segs.size();
  if (by_count_.size() <= count) by_count_.resize(count + 1);
  by_count_[count].push_back(static_cast<std::uint32_t>(routes_.size()));
  routes_.push_back(std::move(route));
}

void Router::dispatch_async(const HttpRequest& request,
                            Responder respond) const {
  const auto parts = util::split_nonempty_views(request.path, '/');
  // Resolve each request segment to the literal vocabulary once; a segment
  // the table has never seen (invalid Symbol) can only match a capture.
  std::vector<util::Symbol> part_syms(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    part_syms[i] = seg_names_.find(parts[i]);
  }
  bool path_matched = false;
  if (parts.size() < by_count_.size()) {
    const auto& bucket = by_count_[parts.size()];
    // Later registrations win: scan newest-first.
    for (auto it = bucket.rbegin(); it != bucket.rend(); ++it) {
      const Route& route = routes_[*it];
      bool ok = true;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        const util::Symbol lit = route.segs[i].literal;
        if (lit.valid() && lit != part_syms[i]) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      path_matched = true;
      if (route.method != request.method) continue;
      // Params materialize only for the route that actually runs.
      PathParams params;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (!route.segs[i].literal.valid()) {
          params.emplace(route.segs[i].param, std::string(parts[i]));
        }
      }
      std::uint64_t id = request.id;
      route.handler(request, params,
                    [respond = std::move(respond), id](HttpResponse resp) {
                      resp.id = id;
                      respond(std::move(resp));
                    });
      return;
    }
  }
  HttpResponse resp = path_matched
                          ? error_response(405, "method_not_allowed",
                                           "method not allowed on this path")
                          : HttpResponse::not_found("no route for " +
                                                    request.path);
  resp.id = request.id;
  respond(std::move(resp));
}

HttpResponse Router::dispatch(const HttpRequest& request) const {
  HttpResponse out = error_response(504, "pending",
                                    "handler did not respond synchronously");
  dispatch_async(request, [&out](HttpResponse resp) { out = std::move(resp); });
  return out;
}

std::vector<std::string> Router::describe() const {
  std::vector<std::string> out;
  out.reserve(routes_.size());
  for (const auto& r : routes_) {
    out.push_back(util::format("%s %s", method_name(r.method),
                               r.pattern.c_str()));
  }
  return out;
}

}  // namespace picloud::proto
