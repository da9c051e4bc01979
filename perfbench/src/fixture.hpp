// Catalog fixtures: the synthetic snapshots the server boots from, built
// once and reused across runs, and the in-process copy of the same
// catalog that the walk generator, the oracle and the traced passes use.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "dsl/layer.hpp"
#include "service/shared_layer.hpp"
#include "storage/snapshot.hpp"

namespace perfbench {

/// Returns the path of a snapshot holding the crypto layer plus
/// `synthetic_cores` synthetic cores, building it under `cache_dir` when
/// it is missing or its stamp no longer matches: the stamp records the
/// code's hierarchy fingerprint and the harness binary that wrote it, so
/// any rebuild of the program rebuilds the fixture. `built_s` receives
/// the build time (0 when reused); it is never part of any metric.
std::string ensure_fixture(const std::string& cache_dir, std::size_t synthetic_cores,
                           double* built_s);

/// An in-process catalog identical to what the server boots: the crypto
/// layer, the snapshot loaded onto it (when one is given), and the
/// SharedLayer prime that lets several threads read it at once.
struct Catalog {
  std::unique_ptr<dslayer::dsl::DesignSpaceLayer> layer;
  std::unique_ptr<dslayer::service::SharedLayer> shared;
  std::uint64_t cores = 0;            ///< cores in every library
  double boot_ms = 0.0;               ///< storage::load_snapshot wall time
  dslayer::storage::SnapshotLoadReport boot;
};

Catalog load_catalog(const std::string& snapshot_path);

/// Hard-links (or copies, where links fail) `snapshot` into a fresh data
/// directory `dir` as the catalog a `--data` server boots from.
void prepare_data_dir(const std::string& snapshot, const std::string& dir);

}  // namespace perfbench
