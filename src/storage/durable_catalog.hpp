// The durable catalog: snapshot + write-ahead journal + checkpointing,
// composed over one data directory (DESIGN.md §15).
//
//   <dir>/catalog.snap   last published snapshot (atomic rename target)
//   <dir>/catalog.wal    journal of mutations since that snapshot
//   <dir>/sessions/      per-session command journals (SessionStore)
//
// Boot order: the factory builds the CODE parts of the layer (hierarchy,
// its constraints, estimators, hooks); the DurableCatalog then loads
// the snapshot (if any) onto it, replays the journal tail, and opens the
// journal for appending. Every journal frame carries a monotonically
// increasing sequence number; the snapshot records the highest sequence
// it absorbed, so replay after an interrupted checkpoint (snapshot
// published, WAL reset not yet reached) skips exactly the absorbed
// records — mutations apply exactly once no matter where a crash lands.
//
// Mutation protocol (apply_and_log): apply to the in-memory layer first —
// a semantic rejection (duplicate core, duplicate constraint id) then
// journals nothing and replay can never trip over it — and append the
// frame (synced per WalOptions) before the caller acknowledges. The
// acknowledged prefix is therefore always on disk; a crash between apply
// and append loses only an un-acknowledged mutation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/catalog_journal.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace dslayer::storage {

struct DurableOptions {
  std::string dir;
  WalOptions wal{};
  /// Re-hash snapshot section payloads at load (boot stays fast without).
  bool verify_snapshot_payloads = false;
};

struct BootReport {
  bool loaded_snapshot = false;
  SnapshotLoadReport snapshot;
  std::uint64_t replayed_records = 0;   ///< journal records applied after the snapshot
  std::uint64_t skipped_records = 0;    ///< records the snapshot had already absorbed
  std::uint64_t truncated_bytes = 0;    ///< torn journal tail dropped at recovery
};

class DurableCatalog {
 public:
  /// Boots the catalog into `layer` (which must outlive this object) and
  /// opens the journal for appending. Throws StorageError if the existing
  /// state is unreadable or belongs to a different layer build.
  DurableCatalog(dsl::DesignSpaceLayer& layer, DurableOptions options);

  const BootReport& boot_report() const { return boot_; }

  /// Re-runs the boot sequence against the live layer: reloads the last
  /// published snapshot (or clears the catalog when none exists), replays
  /// the journal tail, and reopens the journal. The `!restore` directive
  /// runs this inside a SharedLayer writer epoch so every session
  /// migrates off the discarded state, and passes `retired` so the old
  /// catalog is freed after that epoch releases its lock. A snapshot that
  /// fails to load leaves the layer, the journal position and the open
  /// journal as they were.
  const BootReport& reload(dsl::DesignSpaceLayer::RetiredCatalog* retired = nullptr);

  /// Applies the mutation to the layer, then journals it. Returns after
  /// the frame is on disk per the configured sync mode.
  void apply_and_log(const CatalogRecord& record);

  /// Forces an fsync of any unsynced journal bytes (interval mode).
  void sync() { wal_->sync(); }

  /// Checkpoint: publishes a snapshot of the current layer state, then
  /// resets the journal. Crash-safe at every point in between.
  SnapshotWriteReport checkpoint();

  std::uint64_t sequence() const { return sequence_; }
  const std::string& dir() const { return options_.dir; }
  std::string snapshot_path() const;
  std::string wal_path() const;
  std::string sessions_dir() const;

 private:
  /// Snapshot load (or catalog clear) + journal replay + writer open.
  BootReport boot(bool clear_layer, dsl::DesignSpaceLayer::RetiredCatalog* retired);

  dsl::DesignSpaceLayer& layer_;
  DurableOptions options_;
  std::unique_ptr<WalWriter> wal_;
  std::uint64_t sequence_ = 0;  ///< last sequence written (or absorbed)
  BootReport boot_;
  /// Every journaled kAddConstraint record in history order (from the
  /// snapshot that absorbed it, the replayed journal, or apply_and_log).
  /// checkpoint() persists these into the next snapshot: a snapshot
  /// stores cores as columns but constraints as their records, so a WAL
  /// reset never loses constraint history.
  std::vector<CatalogRecord> constraint_records_;
};

}  // namespace dslayer::storage
