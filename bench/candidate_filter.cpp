// Measures the cold candidate-matching path (DESIGN.md Section 10, §14) at
// million-core scale: the columnar CoreFilterPlan engine with the word
// kernels forced scalar and forced to the widest SIMD ISA the host
// supports, on a 1M-core synthetic library.
//
// Scenarios:
//
//  * "declarative": the Fig. 8 coprocessor spec minus the latency bound,
//    so every filtering step is expressible as equality / metric-bound /
//    compiled-predicate kernels. Phases: columnar_scalar, columnar_simd.
//    The headline gate: SIMD >= 2x over the scalar sweep, byte-identical
//    candidate sets.
//  * "custom_filter": the full spec including LatencySingleOperation,
//    whose opaque per-core CoreFilter caps the SIMD sweep at the lambda's
//    speed. A third phase declares the sound ACCEPT prefilter
//    `latency_eol768_us <= LatencySingleOperation` (see
//    synthetic_library.hpp) so the SIMD path prunes compliant rows and
//    only the residual runs the lambda; the gate is >= 5x over the
//    undeclared SIMD sweep.
//
// Every repeat queries a fresh session replayed from the scenario's
// journal (built outside the timer), so each pays the cold sweep. Work
// counters (constraint evaluations, compliance checks, prefilter skips)
// are reported PER SCAN — totals divided by the phase's
// repeat count — so the committed baselines in
// bench/baselines/counters.json stay independent of the repeat choice.
// The JSON also carries the columnar table's
// bytes_per_core so the memory footprint regresses as loudly as time
// (scripts/check_bench_counters.py gates it with a {"max": ...} bound).
//
// Aggregates: the what-if queries over the declarative scenario's
// survivors (DESIGN.md §14) — metric_range(area), option_ranges on a
// regular issue (LoopMultiplier, grouped by its text column) and on a
// generalized issue (Algorithm, partitioned by subtree row ranges), each
// timed over repeated calls on one session whose survivor mask is already
// memoized. Their deterministic counters (rows visited, survivors, the
// count behind every range) are gated like the sweep counters, and each
// answer is cross-checked against a plain fold over candidates() and
// Core::metric().
//
// The JSON's "machine" object stamps the run: hardware threads, the
// active word-kernel ISA, the build type and the git revision.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "domains/crypto.hpp"
#include "support/simd.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "machine_stamp.hpp"
#include "synthetic_library.hpp"

using namespace dslayer;
using namespace dslayer::domains;

namespace simd = dslayer::support::simd;

namespace {

constexpr std::size_t kDefaultTargetCores = 1'000'000;
constexpr int kRepeats = 12;

enum class Engine { kColumnarScalar, kColumnarSimd, kColumnarSimdPrefilter };

struct PhaseResult {
  int repeats = 0;
  double wall_ms = 0.0;      ///< total across repeats
  double per_scan_ms = 0.0;  ///< wall_ms / repeats
  // Deterministic work counters, per scan.
  std::uint64_t constraint_evaluations = 0;
  std::uint64_t compliance_checks = 0;
  std::uint64_t prefilter_skips = 0;
};

struct ScenarioResult {
  std::size_t candidates = 0;
  bool identical = false;        ///< every phase's survivors == scalar's
  bool counters_match = false;   ///< per-scan declarative counters agree
  PhaseResult scalar;
  PhaseResult simd;
  PhaseResult prefiltered;  ///< engaged iff with_prefilter
  bool with_prefilter = false;
  double speedup_simd_vs_scalar = 0.0;
  double speedup_prefilter_vs_simd = 0.0;
};

/// Scripts one scenario's decisions/requirements onto a fresh session.
using Script = void (*)(dsl::ExplorationSession&);

void script_declarative(dsl::ExplorationSession& s) {
  s.set_requirement(kEOL, 768.0);
  s.set_requirement(kOperandCoding, "2's complement");
  s.set_requirement(kResultCoding, "Redundant");
  s.set_requirement(kModuloIsOdd, "Guaranteed");
  s.decide(kImplStyle, "Hardware");
}

void script_custom_filter(dsl::ExplorationSession& s) {
  apply_coprocessor_spec(s);  // includes LatencySingleOperation -> opaque filter
  s.decide(kImplStyle, "Hardware");
}

/// The sound ACCEPT prefilter for the latency lambda: the synthetic cores
/// carry the exact EOL-768 single-operation latency as a metric, and the
/// bench spec always sets EffectiveOperandLength to 768.
std::vector<dsl::PredicateAtom> latency_prefilter() {
  dsl::PredicateAtom atom;
  atom.lhs = bench::kMetricLatencyEol768Us;
  atom.cmp = dsl::PredicateAtom::Cmp::kLe;
  atom.rhs_property = kLatencyBound;
  return {atom};
}

/// A session replayed from `journal`, its query counters zeroed: its first
/// candidates() call pays the cold sweep.
dsl::ExplorationSession cold_session(const dsl::DesignSpaceLayer& layer,
                                     const std::string& journal, Engine engine) {
  dsl::ExplorationSession s = dsl::ExplorationSession::replay(layer, journal);
  if (engine == Engine::kColumnarSimdPrefilter) {
    s.declare_prefilter(kLatencyBound, latency_prefilter());  // not journaled
  }
  s.reset_query_stats();
  return s;
}

PhaseResult run_phase(const dsl::DesignSpaceLayer& layer, const std::string& journal,
                      Engine engine, std::vector<const dsl::Core*>& out) {
  simd::set_kernel(engine == Engine::kColumnarScalar ? simd::Kernel::kScalar
                                                     : simd::widest_supported());
  // Warm-up: layer-side caches + filter plan (writers prime these).
  out = cold_session(layer, journal, engine).candidates();
  PhaseResult r;
  r.repeats = kRepeats;
  std::uint64_t constraint_evaluations = 0, compliance_checks = 0, prefilter_skips = 0;
  std::size_t checksum = 0;
  for (int i = 0; i < kRepeats; ++i) {
    const dsl::ExplorationSession s = cold_session(layer, journal, engine);
    const auto start = std::chrono::steady_clock::now();
    checksum += s.candidates().size();
    r.wall_ms +=
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    const dsl::QueryStats stats = s.query_stats();
    constraint_evaluations += stats.constraint_evaluations;
    compliance_checks += stats.compliance_checks;
    prefilter_skips += s.telemetry().count_of(telemetry::EventKind::kPrefilterSkip);
  }
  simd::reset_kernel_choice();
  if (checksum != out.size() * static_cast<std::size_t>(kRepeats)) {
    std::cerr << "unstable candidate count across repeats\n";
    std::exit(2);
  }
  r.per_scan_ms = r.wall_ms / kRepeats;
  const auto per_scan = [](std::uint64_t total, const char* what) {
    if (total % static_cast<std::uint64_t>(kRepeats) != 0) {
      std::cerr << what << " not divisible by repeat count — nondeterministic scan\n";
      std::exit(2);
    }
    return total / static_cast<std::uint64_t>(kRepeats);
  };
  r.constraint_evaluations = per_scan(constraint_evaluations, "constraint_evaluations");
  r.compliance_checks = per_scan(compliance_checks, "compliance_checks");
  r.prefilter_skips = per_scan(prefilter_skips, "prefilter_skips");
  return r;
}

bool counters_agree(const PhaseResult& a, const PhaseResult& b) {
  return a.constraint_evaluations == b.constraint_evaluations &&
         a.compliance_checks == b.compliance_checks;
}

ScenarioResult run_scenario(const dsl::DesignSpaceLayer& layer, Script script,
                            bool with_prefilter) {
  ScenarioResult r;
  r.with_prefilter = with_prefilter;
  dsl::ExplorationSession scripted(layer, kPathOMM);
  script(scripted);
  const std::string journal = scripted.export_journal();
  std::vector<const dsl::Core*> scalar_set, simd_set, prefiltered_set;
  r.scalar = run_phase(layer, journal, Engine::kColumnarScalar, scalar_set);
  r.simd = run_phase(layer, journal, Engine::kColumnarSimd, simd_set);
  r.candidates = simd_set.size();
  r.identical = scalar_set == simd_set;
  r.counters_match = counters_agree(r.scalar, r.simd);
  if (with_prefilter) {
    r.prefiltered = run_phase(layer, journal, Engine::kColumnarSimdPrefilter, prefiltered_set);
    r.identical = r.identical && scalar_set == prefiltered_set;
    r.counters_match = r.counters_match && counters_agree(r.scalar, r.prefiltered);
    r.speedup_prefilter_vs_simd =
        r.prefiltered.per_scan_ms > 0.0 ? r.simd.per_scan_ms / r.prefiltered.per_scan_ms : 0.0;
  }
  r.speedup_simd_vs_scalar =
      r.simd.per_scan_ms > 0.0 ? r.scalar.per_scan_ms / r.simd.per_scan_ms : 0.0;
  return r;
}

// ---------------------------------------------------------------------------
// Aggregates: what-if folds over a memoized survivor mask.

using MetricRange = dsl::ExplorationSession::MetricRange;

struct AggregatePhase {
  std::string issue;  ///< empty for metric_range
  std::string metric;
  int repeats = 0;
  double per_query_ms = 0.0;
  std::map<std::string, std::size_t> counts;  ///< option (metric_range: the metric) -> count
};

struct AggregateResult {
  std::string scope;
  std::size_t rows_visited = 0;  ///< plan rows each fold walks the mask over
  std::size_t survivors = 0;
  bool identical = false;  ///< every answer == the plain Core* fold
  AggregatePhase range;
  AggregatePhase ranges_regular;
  AggregatePhase ranges_generalized;
};

template <typename Fn>
double per_call_ms(const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRepeats; ++i) fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
             .count() /
         kRepeats;
}

bool same_range(const MetricRange& a, const MetricRange& b) {
  return std::bit_cast<std::uint64_t>(a.min) == std::bit_cast<std::uint64_t>(b.min) &&
         std::bit_cast<std::uint64_t>(a.max) == std::bit_cast<std::uint64_t>(b.max) &&
         a.count == b.count;
}

/// The plain what-if fold the columnar one must reproduce: every candidate,
/// in order, whose option `keep` accepts, folded with std::min / std::max.
template <typename Keep>
MetricRange plain_fold(const std::vector<const dsl::Core*>& cores, const std::string& metric,
                       const Keep& keep) {
  MetricRange range;
  for (const dsl::Core* core : cores) {
    const auto v = core->metric(metric);
    if (!v.has_value() || !keep(*core)) continue;
    range.min = range.count == 0 ? *v : std::min(range.min, *v);
    range.max = range.count == 0 ? *v : std::max(range.max, *v);
    ++range.count;
  }
  return range;
}

AggregateResult run_aggregates(const dsl::DesignSpaceLayer& layer) {
  AggregateResult r;
  dsl::ExplorationSession s(layer, kPathOMM);
  script_declarative(s);
  r.scope = s.current().path();
  r.rows_visited = layer.filter_plan(s.current()).table.rows();
  r.survivors = s.candidate_count();  // the one sweep; every query below reuses its mask

  std::optional<MetricRange> range;
  r.range.metric = kMetricArea;
  r.range.repeats = kRepeats;
  r.range.per_query_ms = per_call_ms([&] { range = s.metric_range(kMetricArea); });
  r.range.counts[kMetricArea] = range.has_value() ? range->count : 0;

  std::map<std::string, MetricRange> regular;
  r.ranges_regular.issue = kLoopMultiplier;
  r.ranges_regular.metric = kMetricClockNs;
  r.ranges_regular.repeats = kRepeats;
  r.ranges_regular.per_query_ms =
      per_call_ms([&] { regular = s.option_ranges(kLoopMultiplier, kMetricClockNs); });
  for (const auto& [option, got] : regular) r.ranges_regular.counts[option] = got.count;

  std::map<std::string, MetricRange> generalized;
  r.ranges_generalized.issue = kAlgorithm;
  r.ranges_generalized.metric = kMetricArea;
  r.ranges_generalized.repeats = kRepeats;
  r.ranges_generalized.per_query_ms =
      per_call_ms([&] { generalized = s.option_ranges(kAlgorithm, kMetricArea); });
  for (const auto& [option, got] : generalized) r.ranges_generalized.counts[option] = got.count;

  // Cross-check (untimed) against plain folds over the Core* rows.
  const std::vector<const dsl::Core*>& cores = s.candidates();
  const MetricRange all = plain_fold(cores, kMetricArea, [](const dsl::Core&) { return true; });
  const auto agree = [&](const std::map<std::string, MetricRange>& got, const std::string& issue,
                         const std::string& metric, const auto& keeps) {
    std::size_t expected = 0;
    for (const std::string& option : s.available_options(issue)) {
      const MetricRange want =
          plain_fold(cores, metric, [&](const dsl::Core& core) { return keeps(option, core); });
      if (want.count == 0) continue;
      ++expected;
      if (!got.contains(option) || !same_range(got.at(option), want)) return false;
    }
    return got.size() == expected;
  };
  std::map<std::string, std::unordered_set<const dsl::Core*>> regions;
  for (const dsl::Cdo* child : s.current().children()) {
    const auto& under = layer.cores_under(*child);
    regions[child->specializing_option()].insert(under.begin(), under.end());
  }
  r.identical =
      (range.has_value() ? same_range(*range, all) : all.count == 0) &&
      agree(regular, kLoopMultiplier, kMetricClockNs,
            [](const std::string& option, const dsl::Core& core) {
              return core.binding(kLoopMultiplier) == dsl::Value::text(option);
            }) &&
      agree(generalized, kAlgorithm, kMetricArea,
            [&](const std::string& option, const dsl::Core& core) {
              return regions[option].contains(&core);
            });
  return r;
}

void print_aggregate(const char* name, const AggregatePhase& p) {
  std::cout << "  " << name << ": " << format_double(p.per_query_ms, 4) << " ms/query (x"
            << p.repeats << ")  counts:";
  for (const auto& [option, count] : p.counts) std::cout << " " << option << "=" << count;
  std::cout << "\n";
}

void json_aggregate(std::ostream& out, const char* name, const AggregatePhase& p) {
  out << "    \"" << name << "\": {\n";
  if (!p.issue.empty()) out << "      \"issue\": \"" << p.issue << "\",\n";
  out << "      \"metric\": \"" << p.metric << "\",\n"
      << "      \"repeats\": " << p.repeats << ",\n"
      << "      \"per_query_ms\": " << p.per_query_ms << ",\n";
  if (p.issue.empty()) {
    out << "      \"count\": " << p.counts.at(p.metric) << "\n";
  } else {
    out << "      \"options\": {";
    const char* sep = "";
    for (const auto& [option, count] : p.counts) {
      out << sep << "\"" << option << "\": " << count;
      sep = ", ";
    }
    out << "}\n";
  }
  out << "    }";
}

void print_phase(const char* name, const PhaseResult& p) {
  std::cout << "  " << name << ": " << format_double(p.per_scan_ms, 4) << " ms/scan (x"
            << p.repeats << ")  (" << p.constraint_evaluations << " constraint evals, "
            << p.compliance_checks << " compliance checks";
  if (p.prefilter_skips > 0) std::cout << ", " << p.prefilter_skips << " prefilter skips";
  std::cout << ")\n";
}

void print_scenario(const char* name, const ScenarioResult& r) {
  std::cout << name << ":\n";
  print_phase("columnar scalar", r.scalar);
  print_phase("columnar simd  ", r.simd);
  if (r.with_prefilter) print_phase("simd+prefilter ", r.prefiltered);
  std::cout << "  candidates: " << r.candidates << "; identical: " << (r.identical ? "yes" : "NO")
            << "; counters match: " << (r.counters_match ? "yes" : "NO") << "\n"
            << "  simd vs scalar: " << format_double(r.speedup_simd_vs_scalar, 3) << "x";
  if (r.with_prefilter) {
    std::cout << "; prefilter vs simd: " << format_double(r.speedup_prefilter_vs_simd, 3) << "x";
  }
  std::cout << "\n\n";
}

void json_phase(std::ostream& out, const char* name, const PhaseResult& p) {
  out << "    \"" << name << "\": {\n"
      << "      \"repeats\": " << p.repeats << ",\n"
      << "      \"wall_ms\": " << p.wall_ms << ",\n"
      << "      \"per_scan_ms\": " << p.per_scan_ms << ",\n"
      << "      \"constraint_evaluations\": " << p.constraint_evaluations << ",\n"
      << "      \"compliance_checks\": " << p.compliance_checks << ",\n"
      << "      \"prefilter_skips\": " << p.prefilter_skips << "\n"
      << "    }";
}

void json_scenario(std::ostream& out, const char* name, const ScenarioResult& r) {
  out << "  \"" << name << "\": {\n"
      << "    \"candidates\": " << r.candidates << ",\n"
      << "    \"identical\": " << (r.identical ? "true" : "false") << ",\n"
      << "    \"counters_match\": " << (r.counters_match ? "true" : "false") << ",\n";
  json_phase(out, "columnar_scalar", r.scalar);
  out << ",\n";
  json_phase(out, "columnar_simd", r.simd);
  if (r.with_prefilter) {
    out << ",\n";
    json_phase(out, "columnar_simd_prefilter", r.prefiltered);
  }
  out << ",\n    \"speedup_simd_vs_scalar\": " << r.speedup_simd_vs_scalar;
  if (r.with_prefilter) {
    out << ",\n    \"speedup_prefilter_vs_simd\": " << r.speedup_prefilter_vs_simd;
  }
  out << "\n  }";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t target_cores = kDefaultTargetCores;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--cores" && i + 1 < argc) {
      target_cores = static_cast<std::size_t>(std::stoull(argv[++i]));
    } else {
      std::cerr << "usage: " << argv[0] << " [--json <path>] [--cores <n>]\n";
      return 2;
    }
  }
  auto layer = build_crypto_layer();
  const auto build_start = std::chrono::steady_clock::now();
  const std::size_t synthetic =
      bench::populate_synthetic_library(layer->add_library("syn-hardcores"), target_cores);
  const std::size_t indexed = layer->index_cores();
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - build_start)
                              .count();
  std::cout << "=== Candidate filter benchmark ===\n";
  std::cout << "synthetic cores: " << synthetic << " (indexed total: " << indexed
            << ", built in " << format_double(build_ms, 1) << " ms)\n";
  std::cout << "kernel (widest supported): " << simd::to_string(simd::widest_supported())
            << "; cold candidates() on a fresh replayed session per repeat\n\n";

  const ScenarioResult declarative =
      run_scenario(*layer, script_declarative, /*with_prefilter=*/false);
  print_scenario("declarative (Fig. 8 spec minus latency bound)", declarative);
  const ScenarioResult custom =
      run_scenario(*layer, script_custom_filter, /*with_prefilter=*/true);
  print_scenario("custom_filter (full spec, opaque latency filter)", custom);

  // Memory footprint of the columnar snapshot the phases swept (the plan
  // is cached on the layer; the session's scope is the kPathOMM subtree).
  dsl::ExplorationSession probe(*layer, kPathOMM);
  const dsl::CoreFilterPlan& plan = layer->filter_plan(probe.current());
  const std::size_t table_bytes = plan.table.memory_bytes();
  const double bytes_per_core =
      plan.table.rows() > 0 ? static_cast<double>(table_bytes) / plan.table.rows() : 0.0;
  std::cout << "columnar table: " << plan.table.rows() << " rows, " << table_bytes << " bytes ("
            << format_double(bytes_per_core, 1) << " bytes/core)\n";

  const AggregateResult aggregates = run_aggregates(*layer);
  std::cout << "\naggregates over " << aggregates.survivors << " survivors of "
            << aggregates.rows_visited << " rows at " << aggregates.scope
            << " (memoized survivor mask):\n";
  print_aggregate("range area              ", aggregates.range);
  print_aggregate("ranges LoopMultiplier   ", aggregates.ranges_regular);
  print_aggregate("ranges Algorithm (gen.) ", aggregates.ranges_generalized);
  std::cout << "  identical to the plain Core* fold: " << (aggregates.identical ? "yes" : "NO")
            << "\n";

  const bool ok = declarative.identical && declarative.counters_match && custom.identical &&
                  custom.counters_match && aggregates.identical &&
                  declarative.speedup_simd_vs_scalar >= 2.0 &&
                  custom.speedup_prefilter_vs_simd >= 5.0;
  std::cout << "gates: simd declarative >= 2x scalar: "
            << (declarative.speedup_simd_vs_scalar >= 2.0 ? "PASS" : "FAIL")
            << "; prefiltered lambda >= 5x undeclared simd: "
            << (custom.speedup_prefilter_vs_simd >= 5.0 ? "PASS" : "FAIL") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"candidate_filter\",\n"
        << "  \"synthetic_cores\": " << synthetic << ",\n"
        << "  \"indexed_cores\": " << indexed << ",\n"
        << "  \"kernel\": \"" << simd::to_string(simd::widest_supported()) << "\",\n"
        << "  \"table_rows\": " << plan.table.rows() << ",\n"
        << "  \"table_bytes\": " << table_bytes << ",\n"
        << "  \"bytes_per_core\": " << bytes_per_core << ",\n"
        << bench::machine_json() << ",\n";
    json_scenario(out, "declarative", declarative);
    out << ",\n";
    json_scenario(out, "custom_filter", custom);
    out << ",\n  \"aggregates\": {\n"
        << "    \"scope\": \"" << aggregates.scope << "\",\n"
        << "    \"rows_visited\": " << aggregates.rows_visited << ",\n"
        << "    \"survivors\": " << aggregates.survivors << ",\n"
        << "    \"identical\": " << (aggregates.identical ? "true" : "false") << ",\n";
    json_aggregate(out, "range", aggregates.range);
    out << ",\n";
    json_aggregate(out, "ranges_regular", aggregates.ranges_regular);
    out << ",\n";
    json_aggregate(out, "ranges_generalized", aggregates.ranges_generalized);
    out << "\n  }";
    out << ",\n  \"speedup\": " << declarative.speedup_simd_vs_scalar << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
