// Measures the durable-catalog cold start (DESIGN.md §15) at million-core
// scale against the two ways a restarted process can rebuild the same
// state without a snapshot:
//
//  * full re-index — re-import the interchange text (the durable format
//    without src/storage/) with dsl::import_layer, then re-prime the
//    columnar filter plan. This is the production cold start a snapshot
//    replaces, and the baseline the headline speedup is gated against.
//  * in-process rebuild — repopulate the synthetic library from the
//    generator, re-index, re-prime. Reported for context only: a real
//    restart has no generator, and this path skips the parse entirely.
//
// The snapshot path is what a restarted dslshell/dslserve pays before it
// can answer its first query: load_snapshot() maps the file, rebuilds the
// libraries and index from the column sections, and re-installs the
// persisted filter plans (text columns alias the mmap when the symbol
// remap is the identity, so the big payloads are never copied).
//
// Boot builds no Core: it walks the kCores records once and leaves one
// unfilled slot per core, decoded on first read (dsl/core_library.hpp).
//
// Two gates, both set from measured behaviour (see EXPERIMENTS.md):
//  * boot >= 4x faster than the full re-index (the lazy boot clears it
//    by well over an order of magnitude);
//  * plan restore >= 50x faster than re-priming the filter plan — the
//    query-readiness phase, where the snapshot's persisted CoreTable
//    columns replace the full scan-and-build.
//
// Correctness rides along: the restored layer's dsl::export_layer() must
// be byte-identical to the original's, and the deterministic shape
// counters (core counts, restored tables, snapshot bytes per core, cores
// hydrated by boot and a session open — exactly 0) feed
// bench/baselines/counters.json so a format regression — a section
// silently dropped, the alias fast path lost, an eager decode back in
// boot — fails CI even when the wall times still look fine. The JSON's
// "machine" object stamps the run (machine_stamp.hpp).

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "domains/crypto.hpp"
#include "dsl/exploration.hpp"
#include "dsl/serialize.hpp"
#include "storage/file_io.hpp"
#include "storage/snapshot.hpp"
#include "support/strings.hpp"
#include "machine_stamp.hpp"
#include "synthetic_library.hpp"

using namespace dslayer;
using namespace dslayer::domains;

namespace {

constexpr std::size_t kDefaultTargetCores = 1'000'000;
constexpr double kReindexSpeedupGate = 4.0;
constexpr double kPrimeSpeedupGate = 50.0;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
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

  std::cout << "=== Storage cold-start benchmark ===\n";

  // --- Full rebuild: populate + index + prime, timed per phase. ---
  auto layer = build_crypto_layer();
  auto start = std::chrono::steady_clock::now();
  const std::size_t synthetic =
      bench::populate_synthetic_library(layer->add_library("syn-hardcores"), target_cores);
  const double populate_ms = ms_since(start);

  start = std::chrono::steady_clock::now();
  const std::size_t indexed = layer->index_cores();
  const double index_ms = ms_since(start);

  start = std::chrono::steady_clock::now();
  dsl::ExplorationSession prime_probe(*layer, kPathOMM);
  const dsl::CoreFilterPlan& primed = layer->filter_plan(prime_probe.current());
  const double prime_ms = ms_since(start);
  const double rebuild_ms = populate_ms + index_ms + prime_ms;

  std::cout << "in-process rebuild: " << synthetic << " synthetic cores (" << indexed
            << " indexed), populate " << format_double(populate_ms, 5) << " ms + index "
            << format_double(index_ms, 5) << " ms + prime " << format_double(prime_ms, 5)
            << " ms = " << format_double(rebuild_ms, 5) << " ms ("
            << primed.table.rows() << " table rows)\n";

  // --- Full re-index: the text interchange is the durable format without
  // a snapshot, so the production cold start is parse + index (both inside
  // import_layer) + prime. The imported layer dies at scope end so peak
  // memory stays at two live catalogs. ---
  const std::string live_text = dsl::export_layer(*layer);
  double reindex_import_ms = 0.0;
  double reindex_prime_ms = 0.0;
  std::size_t reimported_cores = 0;
  {
    start = std::chrono::steady_clock::now();
    const dsl::ImportResult reimported = dsl::import_layer(live_text);
    reindex_import_ms = ms_since(start);
    start = std::chrono::steady_clock::now();
    dsl::ExplorationSession reindex_probe(*reimported.layer, kPathOMM);
    const dsl::CoreFilterPlan& replan = reimported.layer->filter_plan(reindex_probe.current());
    reindex_prime_ms = ms_since(start);
    reimported_cores = replan.table.rows();
  }
  const double reindex_ms = reindex_import_ms + reindex_prime_ms;
  std::cout << "full re-index: " << live_text.size() << " bytes of interchange text, "
            << reimported_cores << " table rows, import+index " << format_double(reindex_import_ms, 5)
            << " ms + prime " << format_double(reindex_prime_ms, 5) << " ms = "
            << format_double(reindex_ms, 5) << " ms\n";

  // --- Publish the snapshot (not part of either timed cold start). ---
  const std::string snap_path = "coldstart.snap";
  start = std::chrono::steady_clock::now();
  const storage::SnapshotWriteReport written = storage::write_snapshot(*layer, snap_path);
  const double write_ms = ms_since(start);
  const double bytes_per_core =
      written.cores > 0 ? static_cast<double>(written.bytes) / static_cast<double>(written.cores)
                        : 0.0;
  std::cout << "snapshot: " << written.bytes << " bytes (" << format_double(bytes_per_core, 4)
            << " bytes/core), " << written.tables << " tables, written in "
            << format_double(write_ms, 5) << " ms\n";

  // --- Snapshot boot: fresh code-built layer, load the file. ---
  auto booted = build_crypto_layer();
  start = std::chrono::steady_clock::now();
  const storage::SnapshotLoadReport loaded = storage::load_snapshot(*booted, snap_path);
  const double boot_ms = ms_since(start);
  const double reindex_speedup = boot_ms > 0.0 ? reindex_ms / boot_ms : 0.0;
  const double rebuild_speedup = boot_ms > 0.0 ? rebuild_ms / boot_ms : 0.0;
  const double prime_speedup =
      loaded.phases.tables_ms > 0.0 ? prime_ms / loaded.phases.tables_ms : 0.0;
  std::cout << "snapshot boot: " << loaded.cores << " cores, " << loaded.tables
            << " tables, " << loaded.aliased_bytes << " bytes aliased from the mmap"
            << (loaded.symbol_identity ? " (identity remap)" : " (symbols rewritten)") << ", in "
            << format_double(boot_ms, 5) << " ms\n";
  std::cout << "  phases: open " << format_double(loaded.phases.open_ms, 4) << " ms, symbols "
            << format_double(loaded.phases.symbols_ms, 4) << " ms, cores "
            << format_double(loaded.phases.cores_ms, 4) << " ms, index "
            << format_double(loaded.phases.index_ms, 4) << " ms, tables "
            << format_double(loaded.phases.tables_ms, 4) << " ms\n";

  // --- Oracle: the booted catalog is byte-identical to the original. ---
  // The filter-plan probe must use the BOOTED layer's CDO object: plans
  // key on Cdo identity, not path. Opening it and counting its candidates
  // reads columns only, so no core is hydrated before the export below
  // reads them all.
  dsl::ExplorationSession boot_probe(*booted, kPathOMM);
  const std::size_t boot_candidates = boot_probe.candidate_count();
  const std::size_t hydrated_after_boot = booted->catalog_counts().hydrated;
  std::cout << "hydrated after boot and a session open: " << hydrated_after_boot << " of "
            << loaded.cores << " cores (" << boot_candidates << " candidates counted)\n";
  const bool identical = dsl::export_layer(*booted) == live_text;
  const bool plan_restored = booted->peek_filter_plan(boot_probe.current()) != nullptr;
  const bool pass = identical && plan_restored && hydrated_after_boot == 0 &&
                    reindex_speedup >= kReindexSpeedupGate && prime_speedup >= kPrimeSpeedupGate;
  std::cout << "export identical: " << (identical ? "yes" : "NO")
            << "; filter plan restored: " << (plan_restored ? "yes" : "NO") << "\n";
  std::cout << "speedups: boot vs full re-index " << format_double(reindex_speedup, 3)
            << "x (gate >= " << format_double(kReindexSpeedupGate, 2) << "x), plan restore vs "
            << "re-prime " << format_double(prime_speedup, 3) << "x (gate >= "
            << format_double(kPrimeSpeedupGate, 2) << "x), boot vs in-process rebuild "
            << format_double(rebuild_speedup, 3) << "x (informational)\n";
  std::cout << "gate: " << (pass ? "PASS" : "FAIL") << "\n";

  storage::remove_file(snap_path);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    out << "{\n"
        << bench::machine_json() << ",\n"
        << "  \"synthetic_cores\": " << synthetic << ",\n"
        << "  \"indexed_cores\": " << indexed << ",\n"
        << "  \"populate_ms\": " << populate_ms << ",\n"
        << "  \"index_ms\": " << index_ms << ",\n"
        << "  \"prime_ms\": " << prime_ms << ",\n"
        << "  \"rebuild_ms\": " << rebuild_ms << ",\n"
        << "  \"interchange_bytes\": " << live_text.size() << ",\n"
        << "  \"reindex_import_ms\": " << reindex_import_ms << ",\n"
        << "  \"reindex_prime_ms\": " << reindex_prime_ms << ",\n"
        << "  \"reindex_ms\": " << reindex_ms << ",\n"
        << "  \"reindex_rows\": " << reimported_cores << ",\n"
        << "  \"snapshot_write_ms\": " << write_ms << ",\n"
        << "  \"snapshot_bytes\": " << written.bytes << ",\n"
        << "  \"bytes_per_core\": " << bytes_per_core << ",\n"
        << "  \"snapshot_tables\": " << written.tables << ",\n"
        << "  \"boot_ms\": " << boot_ms << ",\n"
        << "  \"restored_cores\": " << loaded.cores << ",\n"
        << "  \"restored_tables\": " << loaded.tables << ",\n"
        << "  \"aliased_bytes\": " << loaded.aliased_bytes << ",\n"
        << "  \"symbol_identity\": " << (loaded.symbol_identity ? "true" : "false") << ",\n"
        << "  \"boot_phase_tables_ms\": " << loaded.phases.tables_ms << ",\n"
        << "  \"boot_phase_cores_ms\": " << loaded.phases.cores_ms << ",\n"
        << "  \"boot_phase_index_ms\": " << loaded.phases.index_ms << ",\n"
        << "  \"hydrated_after_boot\": " << hydrated_after_boot << ",\n"
        << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
        << "  \"plan_restored\": " << (plan_restored ? "true" : "false") << ",\n"
        << "  \"speedup_vs_reindex\": " << reindex_speedup << ",\n"
        << "  \"speedup_vs_rebuild\": " << rebuild_speedup << ",\n"
        << "  \"prime_restore_speedup\": " << prime_speedup << ",\n"
        << "  \"pass\": " << (pass ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return pass ? 0 : 1;
}
