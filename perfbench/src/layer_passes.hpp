// The traced run: the workload's generated stream replayed in-process,
// one layer at a time, through each layer's public entry points.
//
// The program has no hooks inside its layers, so the passes stack:
//
//   dsl      direct ExplorationSession calls (the shell grammar's work)
//   shell    dsl::ShellEngine::execute
//   manager  service::SessionManager::execute (lookup, pin, locks, persist)
//   executor service::RequestExecutor::submit -> callback
//   net      the untraced TCP run itself
//
// A layer's self time is the time at its boundary minus the time at the
// boundary below it for the same request, taken as the median of the
// per-request differences. Every timed call is a Span (name, start, end,
// parent, request); spans stay in memory until the run ends.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "fixture.hpp"
#include "walks.hpp"

namespace perfbench {

struct PassOptions {
  bool durable = false;      ///< sessions persist through a SessionStore
  unsigned workers = 4;      ///< executor workers, as on the server
  unsigned threads = 4;      ///< scripts replayed concurrently
  std::string journal_dir;   ///< session journals of the durable passes
};

struct LayerReport {
  std::map<std::string, double> metrics;  ///< per-layer metric -> value
  std::vector<std::string> notes;         ///< bases and sample counts
  std::vector<Span> spans;
  std::uint64_t shell_mismatches = 0;     ///< shell-pass bodies off the oracle
  double executor_step_p50_ms = 0.0;      ///< for net.self_ms
};

LayerReport run_layer_passes(const Catalog& catalog, const std::vector<Script>& scripts,
                             const PassOptions& options);

}  // namespace perfbench
