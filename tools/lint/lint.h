// picloud_analyze — whole-program static analysis for the determinism rules.
//
// The simulator's contract is bit-reproducible whole-cloud runs (DESIGN.md
// §6.1). That contract is easy to break with one stray wall-clock call, an
// unordered container leaking iteration order into a digest, or a dangling
// by-reference lambda capture firing from the event queue — so the analyzer
// lexes the whole tree (lexer.h), builds a cross-file project model
// (model.h: include graph, computed module layering, symbol index) and runs
// eighteen rules over it (schedule-point and hot-path-alloc are described
// in rules.cc):
//
//   nondeterminism       banned wall-clock / libc-RNG / threading APIs
//                        (rand/srand, std::random_device, time(),
//                        gettimeofday, clock_gettime, system_clock/
//                        steady_clock/high_resolution_clock, this_thread)
//                        anywhere in the tree. Randomness comes from
//                        util::Rng streams; time from sim::Simulation.
//   raw-assert           `assert(` in src/ — invariants must use
//                        PICLOUD_CHECK / PICLOUD_DCHECK (src/util/check.h)
//                        so they survive NDEBUG.
//   pragma-once          every header must contain `#pragma once`.
//   include-hygiene      module layering, computed from the whole-tree
//                        include graph: a src/<module> include edge that
//                        creates a module-level cycle against the
//                        prevailing direction is a violation (the old
//                        hard-coded DAG is gone; the graph is the spec).
//   include-cycle        file-level #include cycles (strongly connected
//                        components of the include graph).
//   unused-include       a project header is included but none of the
//                        symbols it declares are referenced by the
//                        including file (reported under src/ only).
//   unordered-container  std::unordered_map/set/multimap/multiset in src/ —
//                        iteration order feeds event ordering and digests;
//                        the repo's ordered-container convention (std::map/
//                        std::set) is enforced.
//   event-capture        a lambda with a `[&]` default-reference capture
//                        passed to Simulation::after/at/schedule or
//                        sim::Timer::after/every — the event fires after
//                        the enclosing frame is gone, so default reference
//                        captures are dangling-by-fire-time hazards.
//                        Capture explicitly ([this], [this, id], by value)
//                        in src/.
//   event-owner          a sim::EventId data member outside src/sim — an
//                        object holds its pending events through sim::Timer,
//                        which cancels on re-arm, cancel() and destruction.
//   dead-symbol          a function or type defined in src/ that no file in
//                        src/, tests/, bench/ or examples/ references —
//                        dead checking code (an unregistered probe, an
//                        unkept helper) enforces nothing.
//   rest-retry           RestClient call sites in src/cloud/*.cc (receiver
//                        identifier containing "client", method
//                        call/get/post) must state their reliability — a
//                        RetryPolicy or timeout/Duration argument.
//   json-boundary        Json::parse and .dump()/.pretty() calls in src/net,
//                        src/os, src/proto, src/apps and src/cloud —
//                        messages carry util::Json values; JSON text is
//                        written and read only at the boundaries.
//   metrics-registry     telemetry flows through the unified spine
//                        (DESIGN.md §9): a `struct *Stats` in src/ outside
//                        util/ is a counter store beside the registry and
//                        needs an explicit allow; std::cerr/cout/printf/
//                        fprintf in src/ is banned in favour of PICLOUD_LOG.
//   invariant-catalogue  probe_<x> factories in src/testing/ must be passed
//                        to register_probe(...) in the same file.
//   bounded-queue        a std::deque/std::vector in src/apps/ or src/cloud/
//                        named like pending work (*queue*, *pending*,
//                        *backlog*) with no capacity comparison against its
//                        .size() in the declaring file or its same-stem
//                        sibling — unbounded queues turn overload into
//                        memory exhaustion instead of load shedding
//                        (DESIGN.md §11).
//   full-solve           reallocate_full / kFullOracle outside
//                        src/net/fabric.* and tests/ — the whole-fabric
//                        progressive-filling oracle is a differential-
//                        testing reference (DESIGN.md §14); production
//                        paths use the incremental dirty-set solver.
//
// A finding on a line is suppressed with a trailing or immediately
// preceding comment:  // picloud-lint: allow(<rule>[, <rule>...])
//
// For CI the analyzer emits text, JSON or SARIF (--format=), and supports
// ratcheting: --write-baseline records today's findings, --baseline=FILE
// exits 0 as long as no *new* findings appear (see output in this header).
//
// The core is a library so the lexer, model and rules are unit-testable on
// in-memory content; the picloud_analyze binary wraps directory walking and
// flag parsing.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "model.h"

namespace picloud::lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

// Rule catalogue (id + one-line summary), used by --list-rules and the
// SARIF tool.driver.rules table.
struct RuleInfo {
  const char* id;
  const char* summary;
};
const std::vector<RuleInfo>& rule_catalogue();

struct AnalyzeOptions {
  // Whole-program rules (dead-symbol, unused-include) only make sense when
  // the model covers the full tree; single-file entry points disable them.
  bool whole_program = true;
};

// Runs every rule over the model. Diagnostics are deduplicated and sorted
// by (file, line, rule, message); suppressed findings are dropped.
std::vector<Diagnostic> analyze(const ProjectModel& model,
                                const AnalyzeOptions& options = {});

// Convenience: builds an in-memory model from (path, content) pairs and
// analyzes it. The workhorse for unit tests.
std::vector<Diagnostic> analyze_files(
    const std::vector<ProjectModel::Input>& inputs,
    const AnalyzeOptions& options = {});

// Lints one file's content with per-file rules only (no whole-program
// rules — a lone file would trivially "prove" its symbols dead).
std::vector<Diagnostic> lint_content(const std::string& path,
                                     const std::string& content);

// Reads `path` and lints it. A file that cannot be read yields a single
// "io" diagnostic.
std::vector<Diagnostic> lint_file(const std::string& path);

// Recursively collects the .h/.cc/.cpp files under each root (a root may
// also name a single file), in sorted order for deterministic output.
// Directories named "build" or starting with '.' are skipped.
std::vector<std::string> collect_files(const std::vector<std::string>& roots);

// Reads every file under `roots` into a model. Unreadable files and missing
// roots append "io" diagnostics (a misspelled CI root must not read as
// clean).
ProjectModel load_project(const std::vector<std::string>& roots,
                          std::vector<Diagnostic>* io_diags);

// Analyzes every file under `roots`, printing "file:line: rule: message"
// per finding to `out`. Returns the number of diagnostics (0 == clean).
int run(const std::vector<std::string>& roots, std::ostream& out);

// --- output formats & baseline ratchet (output.cc) ---------------------------

std::string to_text(const std::vector<Diagnostic>& diags);
std::string to_json(const std::vector<Diagnostic>& diags);
std::string to_sarif(const std::vector<Diagnostic>& diags);

// A baseline is a multiset of known findings keyed by (file, rule, message)
// — line numbers are deliberately excluded so unrelated edits that shift a
// finding don't churn the ratchet. `filter` returns only findings beyond
// the baselined count per key, i.e. the *new* ones.
class Baseline {
 public:
  static Baseline from_diagnostics(const std::vector<Diagnostic>& diags);
  // Parses the JSON produced by to_json(). Returns false (with *error set)
  // on malformed input.
  static bool parse(const std::string& text, Baseline* out,
                    std::string* error);

  std::string to_json() const;
  std::vector<Diagnostic> filter(const std::vector<Diagnostic>& diags) const;
  std::size_t size() const;

 private:
  // key -> allowed count; key is file\x01rule\x01message.
  std::map<std::string, int> counts_;
};

}  // namespace picloud::lint
