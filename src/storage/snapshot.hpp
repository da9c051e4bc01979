// Catalog snapshots: the mmap-friendly cold-start format (DESIGN.md §15).
//
// A snapshot freezes the DATA of a layer — libraries, cores, the
// core->CDO index, and the primed columnar filter tables — into one file
// that a fresh process loads in milliseconds instead of re-importing and
// re-indexing a million-core catalog for tens of seconds. The hierarchy
// and code-authored constraints are NOT stored (they are code); a
// fingerprint of the CDO tree (dsl::export_hierarchy() minus constraint
// comments — journaled constraints must not shift it) is, so loading
// against a different layer build fails loudly instead of mis-resolving
// symbols. Journaled declarative constraints ARE stored, as their
// CatalogRecords (section kConstraints), and re-applied idempotently.
//
// File layout
//   header   : magic "DSLSNAP1", u32 version, u32 section count,
//              u64 total file bytes, u32 crc32(header+directory with this
//              field zeroed)
//   directory: per section {u32 tag, u32 flags, u64 offset, u64 length,
//              u32 crc32(payload), u32 pad}
//   sections : payloads, each 64-byte aligned
//
// Sections
//   kLayerInfo  layer name, hierarchy fingerprint, core count
//   kSymbols    every interned spelling, id order — the remap basis
//   kCdoPaths   every CDO path, space().all() order — dense cdo ids
//   kCores      per library, per core: name, class symbol, indexed cdo
//               id, bindings (symbol, value), metrics (symbol, f64), views
//   kTables     per primed CDO: column directory (symbols, kinds) with
//               offsets into kTablePayload
//   kTablePayload raw column words (presence bitmaps, doubles, symbols),
//               64-byte aligned — the loader ALIASES these through a
//               shared mmap instead of copying (CoreTable keepalive)
//
// Integrity: the header/directory CRC is always verified (it is small).
// Section payload CRCs are verified when `verify_payloads` is set — the
// publish protocol (write tmp, fsync, rename) means a file under the
// final name is never torn, so the default boot path skips re-hashing
// hundreds of megabytes and stays in the page-cache-speed regime.
//
// Symbol remap: the loader interns every snapshot symbol and builds an
// old->new id map. When the map is the identity (same layer binary, same
// boot order — the common case) text columns alias the file directly;
// otherwise they are rewritten through the map into owned buffers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsl/layer.hpp"
#include "storage/catalog_journal.hpp"

namespace dslayer::storage {

struct SnapshotWriteReport {
  std::uint64_t bytes = 0;
  std::uint64_t cores = 0;
  std::uint64_t tables = 0;       ///< primed filter plans persisted
  std::uint64_t constraints = 0;  ///< journaled constraint records persisted
};

/// Serializes `layer` into `path` atomically: writes "<path>.tmp", fsyncs,
/// renames into place, fsyncs the directory. `journal_seq` is the highest
/// journal sequence number absorbed into this snapshot — boot skips WAL
/// records at or below it, which makes the checkpoint protocol (publish
/// snapshot, then reset WAL) crash-safe in between. `constraints` (may be
/// null) are the journaled kAddConstraint records absorbed so far: the
/// snapshot stores cores and tables as columns but constraints as their
/// journal records, because a ConsistencyConstraint is rebuilt cheaply
/// and absorbing them any other way would lose them at WAL reset.
/// Failpoints:
/// storage.snapshot.write / storage.snapshot.sync / storage.snapshot.rename.
/// The layer must be quiescent (the service calls this under its read
/// lock after a drain).
SnapshotWriteReport write_snapshot(const dsl::DesignSpaceLayer& layer, const std::string& path,
                                   std::uint64_t journal_seq = 0,
                                   const std::vector<CatalogRecord>* constraints = nullptr);

/// Where boot time went, for the cold-start bench and `!stats`. The sum
/// is load_snapshot()'s wall time.
struct SnapshotLoadPhases {
  double open_ms = 0.0;         ///< mmap + header/directory verify (+ payload CRCs)
  double symbols_ms = 0.0;      ///< symbol intern + remap + CDO path resolve
  double cores_ms = 0.0;        ///< kCores record walk (validate, offsets, cdo ids)
  double index_ms = 0.0;        ///< clear + restored slots + restore_index
  double tables_ms = 0.0;       ///< constraints + filter plan decode/install (mmap alias)
};

struct SnapshotLoadReport {
  std::uint64_t cores = 0;
  std::uint64_t tables = 0;          ///< filter plans restored
  std::uint64_t aliased_bytes = 0;   ///< column payload bytes served from the mmap
  std::uint64_t journal_seq = 0;     ///< highest journal sequence absorbed
  bool symbol_identity = false;      ///< remap was the identity (alias fast path)
  /// The snapshot's persisted constraint records, decoded. Each was
  /// applied to the layer unless it already carried the id (idempotent
  /// re-load); the caller (DurableCatalog) keeps them for the next
  /// checkpoint's snapshot.
  std::vector<CatalogRecord> constraint_records;
  SnapshotLoadPhases phases;
};

struct SnapshotLoadOptions {
  /// Re-hash every section payload against its directory CRC before use.
  bool verify_payloads = false;
};

/// Loads `path` into `layer`, which must carry the same code-defined
/// hierarchy/constraints the snapshot was taken against (checked by
/// fingerprint). Replaces the layer's libraries and index wholesale
/// (clear_catalog + restore_index) and installs the persisted filter
/// plans. Builds no Core: each restored library holds unfilled slots over
/// the mapped kCores records, filled on first read (dsl/core_library.hpp).
/// The snapshot file stays mmapped for the life of those libraries and
/// the restored tables. Throws StorageError on any mismatch; every check
/// runs before the first change to `layer`, so a failed load leaves it as
/// it was. The replaced catalog is moved to `retired` when given (so a
/// caller holding a lock can free it afterwards), else freed here.
SnapshotLoadReport load_snapshot(dsl::DesignSpaceLayer& layer, const std::string& path,
                                 const SnapshotLoadOptions& options = {},
                                 dsl::DesignSpaceLayer::RetiredCatalog* retired = nullptr);

}  // namespace dslayer::storage
