// The serving tier's messages (DESIGN.md §11). One request schema and one
// reply schema carry every body between the load generator, KvClient, the
// L7 balancer, httpd and kvstore; each app reads and writes the members it
// uses and leaves the others empty.
//
// Requests, with the members each sender sets:
//   HttpLoadGen -> httpd:  {"cost"?, "id", "op":"get", "path"}
//   LB probe -> backend:   {"id", "op":"health"}
//   KvClient -> kvstore:   {"bytes" (put only), "id", "key", "op":"put"|"get"|"del"}
// The LB forwards a client's request with its own id in place.
//
// Replies:
//   httpd:   {"brownout":true?, "id", "path", "status":200}
//            {"id", "shed":cause, "status":503}
//            {"health":true, "id", "status":200}
//   kvstore: {"id", "ok":true}, {"bytes", "id", "ok":true} (get),
//            {"brownout":true, "bytes", "id", "ok":true} (degraded get),
//            {"error":..., "id", "ok":false}, {"id", "ok":false, "shed":cause},
//            {"health":true, "id", "ok":true}
//   LB:      the backend's reply with the client's id in place, or
//            {"id", "lb_error":..., "status":503}
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>

#include "util/schema.h"

namespace picloud::apps {

enum class ServeOp : std::uint8_t { kGet, kPut, kDel, kHealth };
constexpr std::array<std::string_view, 4> json_names(ServeOp) {
  return {"get", "put", "del", "health"};
}

// Why a server refused a request without serving it (apps/admission.h).
enum class ShedCause : std::uint8_t { kAdmission, kDeadline };
constexpr std::array<std::string_view, 2> json_names(ShedCause) {
  return {"admission", "deadline"};
}

// Why the balancer answered for its backends.
enum class LbError : std::uint8_t { kNoBackend, kUpstreamFailed };
constexpr std::array<std::string_view, 2> json_names(LbError) {
  return {"no_backend", "upstream_failed"};
}

// Why kvstore refused a put or found no value.
enum class KvError : std::uint8_t { kOutOfMemory, kNoSuchKey };
constexpr std::array<std::string_view, 2> json_names(KvError) {
  return {"out of memory", "no such key"};
}

struct ServeRequest : util::JsonSchema<ServeRequest> {
  std::optional<std::string> path;     // httpd: the page
  std::optional<std::string> key;      // kvstore
  std::optional<std::uint64_t> bytes;  // kvstore put: the value's size
  // httpd: heavy-tailed work multiplier; absent means 1.
  std::optional<double> cost;
  std::uint64_t id = 0;  // correlation id, echoed by the reply
  ServeOp op = ServeOp::kGet;

  bool operator==(const ServeRequest&) const = default;

  static constexpr auto json_fields() {
    return std::tuple{util::field("bytes", &ServeRequest::bytes),
                      util::field("cost", &ServeRequest::cost),
                      util::field("id", &ServeRequest::id),
                      util::field("key", &ServeRequest::key),
                      util::field("op", &ServeRequest::op),
                      util::field("path", &ServeRequest::path)};
  }
};

struct ServeReply : util::JsonSchema<ServeReply> {
  std::optional<std::string> path;     // httpd: the page served
  std::optional<std::uint64_t> bytes;  // kvstore get: the value's size
  std::uint64_t id = 0;
  std::optional<int> status;           // httpd and the LB
  std::optional<bool> brownout;        // degraded; written only as true
  std::optional<bool> health;          // a probe's answer
  std::optional<bool> ok;              // kvstore
  std::optional<KvError> error;
  std::optional<LbError> lb_error;
  std::optional<ShedCause> shed;

  // The LB and the load generator count a reply as a failure when its
  // status is 5xx (absent reads as 200) or it was shed or answered by the
  // balancer itself.
  bool failed() const {
    return status.value_or(200) >= 500 || shed.has_value() ||
           lb_error.has_value();
  }

  bool operator==(const ServeReply&) const = default;

  static constexpr auto json_fields() {
    return std::tuple{util::field("brownout", &ServeReply::brownout),
                      util::field("bytes", &ServeReply::bytes),
                      util::field("error", &ServeReply::error),
                      util::field("health", &ServeReply::health),
                      util::field("id", &ServeReply::id),
                      util::field("lb_error", &ServeReply::lb_error),
                      util::field("ok", &ServeReply::ok),
                      util::field("path", &ServeReply::path),
                      util::field("shed", &ServeReply::shed),
                      util::field("status", &ServeReply::status)};
  }
};

}  // namespace picloud::apps
