// ScenarioRunner — executes one Scenario end to end and reports the verdict
// (DESIGN.md §10).
//
// run_scenario() builds a fresh Simulation + PiCloud from the scenario's
// cluster shape, boots the fleet, starts the workload (ReplicaSets through
// the real control plane, an HTTP load generator for web tiers), arms the
// InvariantChecker on a sim-time sweep cadence, plays the chaos schedule,
// then demands convergence and runs the quiesce probes. The returned digest
// is an FNV-1a hash over the end state (event count, final sim time, the
// full metrics snapshot, every instance record and node) — the witness that
// the same scenario reproduces bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "testing/invariants.h"
#include "testing/scenario.h"

namespace picloud::testing {

struct RunReport {
  std::uint64_t seed = 0;
  bool ready = false;      // the fleet registered within the boot budget
  bool converged = false;  // workloads healthy post-chaos, in the budget
  std::vector<Violation> violations;
  std::uint64_t digest = 0;  // determinism witness over the end state
  std::uint64_t events = 0;  // simulation events executed
  std::uint64_t sweeps = 0;  // invariant sweeps performed
  // Human-readable failure report (violations + trace tail + repro
  // command); empty on success.
  std::string summary;

  bool failed() const { return !ready || !converged || !violations.empty(); }
  // Stable identifier for "the same failure": the first violated probe, or
  // the lifecycle stage that did not complete. The minimizer only accepts a
  // reduction that preserves this signature.
  std::string signature() const;
};

RunReport run_scenario(const Scenario& scenario);

// FNV-1a hash over a run's end state: event count, final sim time, the full
// metrics snapshot, every instance record and node. Fuzz runs and the model
// checker's episodes both report it, so their digests compare directly.
std::uint64_t end_state_digest(sim::Simulation& sim, cloud::PiCloud& cloud);

}  // namespace picloud::testing
