#include "sim/time.h"

#include "util/strings.h"

namespace picloud::sim {

std::string Duration::to_string() const {
  double ns = static_cast<double>(ns_);
  if (ns_ < 0) {
    return util::format("-%s", Duration::nanos(-ns_).to_string().c_str());
  }
  if (ns < 1e3) return util::format("%ldns", static_cast<long>(ns_));
  if (ns < 1e6) return util::format("%.3fus", ns / 1e3);
  if (ns < 1e9) return util::format("%.3fms", ns / 1e6);
  return util::format("%.3fs", ns / 1e9);
}

std::string SimTime::to_string() const {
  return util::format("[%12.6fs]", to_seconds());
}

}  // namespace picloud::sim
