// Observability counters for the indexed + cached query layer.
//
// Interactive exploration (Section 5) asks the same questions — what
// options remain, what cores comply, what metric ranges follow — after
// every decision. QueryStats makes the cost of answering them visible:
// how many constraint predicates were evaluated, how many cores went
// through compliance checks, and how often the memoized caches and the
// per-CDO indexes absorbed a query instead of a rescan.
//
// QueryStats is a VIEW over a Telemetry hub's per-kind counters
// (stats_view below), not a set of hand-bumped fields: DesignSpaceLayer
// and ExplorationSession count typed event kinds (support/telemetry.hpp)
// and derive these numbers on demand. The shell's `stats` command prints
// them.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "support/telemetry.hpp"

namespace dslayer::dsl {

struct QueryStats {
  std::uint64_t constraint_evaluations = 0;  ///< predicate violated() calls issued
  std::uint64_t compliance_checks = 0;       ///< cores run through the candidate filter
  std::uint64_t cache_hits = 0;              ///< queries answered from a memoized result
  std::uint64_t cache_misses = 0;            ///< queries that had to recompute
  std::uint64_t index_rebuilds = 0;          ///< per-CDO index (re)constructions

  std::string summary() const {
    std::ostringstream os;
    os << "constraint evaluations: " << constraint_evaluations
       << "  compliance checks: " << compliance_checks << "  cache hits: " << cache_hits
       << "  cache misses: " << cache_misses << "  index rebuilds: " << index_rebuilds;
    return os.str();
  }
};

/// Builds the QueryStats view from a hub's aggregate event counters.
inline QueryStats stats_view(const telemetry::Telemetry& t) {
  using telemetry::EventKind;
  QueryStats s;
  s.constraint_evaluations = t.count_of(EventKind::kConstraintEvaluated);
  s.compliance_checks = t.count_of(EventKind::kComplianceCheck);
  s.cache_hits = t.count_of(EventKind::kCacheHit);
  s.cache_misses = t.count_of(EventKind::kCacheMiss);
  s.index_rebuilds = t.count_of(EventKind::kIndexRebuild);
  return s;
}

}  // namespace dslayer::dsl
