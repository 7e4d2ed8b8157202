#include "util/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/strings.h"

namespace picloud::util {

LogHistogram::LogHistogram(double min_value, double growth, int max_buckets)
    : min_value_(min_value), growth_(growth) {
  PICLOUD_CHECK_GT(min_value, 0.0) << "LogHistogram min_value";
  PICLOUD_CHECK_GT(growth, 1.0) << "LogHistogram growth";
  PICLOUD_CHECK_GT(max_buckets, 0) << "LogHistogram max_buckets";
  log_growth_ = std::log(growth);
  buckets_.assign(static_cast<std::size_t>(max_buckets), 0);
}

int LogHistogram::bucket_index(double v) const {
  // v >= min_value_ here. Values beyond the top bucket clamp into it (their
  // count stays right; the quantile saturates at the bucket's span, while
  // max() remains exact).
  int idx = static_cast<int>(std::floor(std::log(v / min_value_) / log_growth_));
  return std::clamp(idx, 0, static_cast<int>(buckets_.size()) - 1);
}

void LogHistogram::observe(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (!(v >= min_value_)) {  // also catches NaN and non-positives
    ++underflow_;
    return;
  }
  ++buckets_[static_cast<std::size_t>(bucket_index(v))];
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0) return min_;
  if (p >= 100) return max_;
  // Rank of the requested quantile, 1-based, over all samples (underflow
  // sorts first: everything below min_value_ is "smaller than bucket 0").
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::max<std::uint64_t>(rank, 1);
  if (rank <= underflow_) return min_;
  std::uint64_t seen = underflow_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      double lo = min_value_ * std::pow(growth_, static_cast<double>(i));
      double mid = lo * std::sqrt(growth_);  // geometric midpoint
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;
}

std::string LogHistogram::summary() const {
  return format("n=%llu, p50=%.6g, p99=%.6g, max=%.6g",
                static_cast<unsigned long long>(count_), percentile(50),
                percentile(99), max());
}

Json LogHistogram::to_json() const {
  Json j = Json::object();
  j.set("count", static_cast<unsigned long long>(count_));
  j.set("sum", sum_);
  j.set("min", min());
  j.set("max", max());
  j.set("mean", mean());
  j.set("p50", percentile(50));
  j.set("p90", percentile(90));
  j.set("p99", percentile(99));
  return j;
}

namespace {

// Grows `v` so Symbol id `id` is a valid slot (null until first request).
template <typename T>
std::unique_ptr<T>& slot_for(std::vector<std::unique_ptr<T>>& v,
                             Symbol name) {
  PICLOUD_DCHECK(name.valid()) << "metric name symbol";
  if (v.size() <= name.id()) v.resize(name.id() + 1);
  return v[name.id()];
}

// Read-side: the instance at `id`, or nullptr if absent / never requested.
template <typename T>
const T* peek(const std::vector<std::unique_ptr<T>>& v, Symbol name) {
  if (!name.valid() || name.id() >= v.size()) return nullptr;
  return v[name.id()].get();
}

}  // namespace

Counter& MetricsRegistry::counter(Symbol name) {
  PICLOUD_DCHECK(name.id() >= linked_counters_.size() ||
                 linked_counters_[name.id()].read == nullptr)
      << "counter name already bound to a linked source";
  auto& slot = slot_for(counters_, name);
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

void MetricsRegistry::link_counter(Symbol name,
                                   std::uint64_t (*read)(const void*),
                                   const void* ctx) {
  PICLOUD_CHECK(read != nullptr) << "link_counter source";
  PICLOUD_DCHECK(peek(counters_, name) == nullptr)
      << "counter name already has a stored cell";
  if (linked_counters_.size() <= name.id()) {
    linked_counters_.resize(name.id() + 1);
  }
  linked_counters_[name.id()] = LinkedCounter{read, ctx};
}

Gauge& MetricsRegistry::gauge(Symbol name) {
  auto& slot = slot_for(gauges_, name);
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

LogHistogram& MetricsRegistry::histogram(Symbol name, double min_value,
                                         double growth, int max_buckets) {
  auto& slot = slot_for(histograms_, name);
  if (slot == nullptr) {
    slot = std::make_unique<LogHistogram>(min_value, growth, max_buckets);
  }
  return *slot;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const Symbol s = names_.find(name);
  if (s.valid() && s.id() < linked_counters_.size()) {
    const LinkedCounter& link = linked_counters_[s.id()];
    if (link.read != nullptr) return link.read(link.ctx);
  }
  const Counter* c = peek(counters_, s);
  return c != nullptr ? c->value() : 0;
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const Gauge* g = peek(gauges_, names_.find(name));
  return g != nullptr ? g->value() : 0.0;
}

bool MetricsRegistry::has(std::string_view name) const {
  const Symbol s = names_.find(name);
  if (s.valid() && s.id() < linked_counters_.size() &&
      linked_counters_[s.id()].read != nullptr) {
    return true;
  }
  return peek(counters_, s) != nullptr || peek(gauges_, s) != nullptr ||
         peek(histograms_, s) != nullptr;
}

std::size_t MetricsRegistry::size() const {
  std::size_t n = 0;
  for (const auto& link : linked_counters_) n += link.read != nullptr;
  for (const auto& c : counters_) n += c != nullptr;
  for (const auto& g : gauges_) n += g != nullptr;
  for (const auto& h : histograms_) n += h != nullptr;
  return n;
}

namespace {

// Position of the first id in the name-ordered `by_name` whose name is not
// less than `name`.
std::size_t name_rank(const StringTable& names,
                      const std::vector<std::uint32_t>& by_name,
                      std::string_view name) {
  auto at = std::lower_bound(
      by_name.begin(), by_name.end(), name,
      [&names](std::uint32_t id, std::string_view n) {
        return names.str(names.symbol_at(id)) < n;
      });
  return static_cast<std::size_t>(at - by_name.begin());
}

// True when `name` is inside `prefix`'s subtree; on success `out` is the
// exported key (the name with "prefix." stripped).
bool in_scope(const std::string& name, const std::string& prefix,
              std::string* out) {
  if (prefix.empty()) {
    *out = name;
    return true;
  }
  if (name == prefix) {
    *out = name;
    return true;
  }
  if (name.size() > prefix.size() + 1 &&
      name.compare(0, prefix.size(), prefix) == 0 &&
      name[prefix.size()] == '.') {
    *out = name.substr(prefix.size() + 1);
    return true;
  }
  return false;
}

}  // namespace

void MetricsRegistry::index_name(Symbol s) {
  const auto at = name_rank(names_, by_name_, names_.str(s));
  by_name_.insert(by_name_.begin() + static_cast<std::ptrdiff_t>(at), s.id());
}

Json MetricsRegistry::snapshot(const std::string& prefix) const {
  // Every name in scope starts with `prefix`, and those names are one
  // contiguous run of by_name_. The run also holds names that only share
  // the string (`node.pi-r0-00-x.*` sorts between `node.pi-r0-00` and its
  // `.` children), so in_scope() filters inside it rather than ending it.
  Json counters = Json::object();
  Json gauges = Json::object();
  Json histograms = Json::object();
  std::string key;
  for (std::size_t i = name_rank(names_, by_name_, prefix);
       i < by_name_.size(); ++i) {
    const Symbol s = names_.symbol_at(by_name_[i]);
    const std::string& name = names_.str(s);
    if (name.compare(0, prefix.size(), prefix) != 0) break;
    ++names_visited_;
    if (!in_scope(name, prefix, &key)) continue;
    if (const Counter* c = peek(counters_, s)) {
      counters.set(key, static_cast<unsigned long long>(c->value()));
    }
    if (s.id() < linked_counters_.size() &&
        linked_counters_[s.id()].read != nullptr) {
      const LinkedCounter& link = linked_counters_[s.id()];
      counters.set(key, static_cast<unsigned long long>(link.read(link.ctx)));
    }
    if (const Gauge* g = peek(gauges_, s)) gauges.set(key, g->value());
    if (const LogHistogram* h = peek(histograms_, s)) {
      histograms.set(key, h->to_json());
    }
  }
  Json j = Json::object();
  j.set("counters", std::move(counters));
  j.set("gauges", std::move(gauges));
  j.set("histograms", std::move(histograms));
  return j;
}

}  // namespace picloud::util
