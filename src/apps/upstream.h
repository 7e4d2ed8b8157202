// Client-side protection shared by the two clients of a serving tier
// (DESIGN.md §11): the open-loop HttpLoadGen and LbApp's upstream path.
//
// Both rotate over the tier's endpoints and cap their retries with a token
// bucket. Each keeps its own breaker and eligibility rule.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/addr.h"

namespace picloud::apps {

// Caps retries as a fraction of traffic, so failover cannot amplify a
// crowd. Each original request earns kRatio tokens, up to `burst` (the
// bucket starts full), and a retry spends one; a request gets at most
// kMaxAttempts attempts. For the attempts a client sent, bounded() checks
//
//   attempts - originals == retries <= kRatio * originals + burst
class RetryBudget {
 public:
  static constexpr int kMaxAttempts = 2;  // first try + at most one retry
  static constexpr double kRatio = 0.1;
  static constexpr double kBurst = 10.0;

  enum class Verdict { kCapped, kDenied, kAllowed };

  explicit RetryBudget(double burst = kBurst) : burst_(burst), tokens_(burst) {}

  // Books an original request; it earns kRatio tokens.
  void original() {
    ++originals_;
    tokens_ = std::min(tokens_ + kRatio, burst_);
  }

  // For a request whose `attempts`th attempt failed: kCapped at the attempt
  // cap, kDenied (counted) when the bucket holds no token, else kAllowed.
  // A caller that then finds a target books the retry with spend().
  Verdict judge(int attempts) {
    if (attempts >= kMaxAttempts) return Verdict::kCapped;
    if (tokens_ < 1.0) {
      ++denials_;
      return Verdict::kDenied;
    }
    return Verdict::kAllowed;
  }
  void spend() {
    tokens_ -= 1.0;
    ++retries_;
  }

  // The bound above; 1e-6 absorbs the rounding of summed kRatio tokens.
  bool bounded(std::uint64_t attempts) const {
    return attempts - originals_ == retries_ &&
           static_cast<double>(retries_) <=
               kRatio * static_cast<double>(originals_) + burst_ + 1e-6;
  }

  std::uint64_t originals() const { return originals_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t denials() const { return denials_; }

 private:
  double burst_;
  double tokens_;
  std::uint64_t originals_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t denials_ = 0;
};

// Endpoints in endpoint order with a round-robin cursor. set() keeps the
// cursor on the endpoint it pointed at (the first one if that endpoint
// left), so endpoint churn does not perturb a same-seed run.
class Rotation {
 public:
  void set(std::vector<net::Ipv4Addr> endpoints) {
    std::size_t cursor = 0;
    if (!endpoints_.empty()) {
      auto at = std::find(endpoints.begin(), endpoints.end(),
                          endpoints_[cursor_]);
      if (at != endpoints.end()) {
        cursor = static_cast<std::size_t>(at - endpoints.begin());
      }
    }
    endpoints_ = std::move(endpoints);
    cursor_ = cursor;
  }

  const std::vector<net::Ipv4Addr>& endpoints() const { return endpoints_; }

  // Visits each endpoint once from the cursor, moving the cursor past each
  // one, and stores in `out` the first that `eligible` accepts.
  template <typename Eligible>
  bool next(const Eligible& eligible, net::Ipv4Addr* out) {
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      const net::Ipv4Addr ip = endpoints_[cursor_];
      cursor_ = (cursor_ + 1) % endpoints_.size();
      if (eligible(ip)) {
        *out = ip;
        return true;
      }
    }
    return false;
  }

 private:
  std::vector<net::Ipv4Addr> endpoints_;
  std::size_t cursor_ = 0;  // < endpoints_.size() unless empty
};

}  // namespace picloud::apps
