#include "apps/admission.h"

namespace picloud::apps {

using util::Json;

void AdmissionParams::read_json(const Json& j) {
  admission_control =
      j.get_number("admission_control", admission_control ? 1 : 0) != 0;
  queue_capacity =
      static_cast<int>(j.get_number("queue_capacity", queue_capacity));
  service_concurrency = static_cast<int>(
      j.get_number("service_concurrency", service_concurrency));
  queue_deadline = sim::Duration::nanos(static_cast<std::int64_t>(j.get_number(
      "queue_deadline_ns", static_cast<double>(queue_deadline.ns()))));
  brownout_enter_fill =
      j.get_number("brownout_enter_fill", brownout_enter_fill);
  brownout_exit_fill = j.get_number("brownout_exit_fill", brownout_exit_fill);
  brownout_cycles_factor =
      j.get_number("brownout_cycles_factor", brownout_cycles_factor);
}

void AdmissionParams::write_json(Json& j) const {
  j.set("admission_control", admission_control ? 1 : 0);
  j.set("queue_capacity", queue_capacity);
  j.set("service_concurrency", service_concurrency);
  j.set("queue_deadline_ns", static_cast<double>(queue_deadline.ns()));
  j.set("brownout_enter_fill", brownout_enter_fill);
  j.set("brownout_exit_fill", brownout_exit_fill);
  j.set("brownout_cycles_factor", brownout_cycles_factor);
}

void AdmissionSeries::bind(util::MetricsRegistry& registry,
                           const std::string& scope, const char* received_name,
                           bool count_brownouts) {
  auto name = [&scope](const char* leaf) {
    return std::string(scope).append(leaf);
  };
  received = &registry.counter(name(received_name));
  shed_admission = &registry.counter(name("shed_admission"));
  shed_deadline = &registry.counter(name("shed_deadline"));
  refused_at_start = &registry.counter(name("refused_at_start"));
  if (count_brownouts) {
    brownout_entered = &registry.counter(name("brownout_entered"));
  }
  queue_depth = &registry.gauge(name("queue_depth"));
}

}  // namespace picloud::apps
