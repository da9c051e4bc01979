#include "storage/durable_catalog.hpp"

#include <cstring>
#include <memory>
#include <utility>

#include "storage/codec.hpp"
#include "storage/counters.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::storage {

namespace {

using dslayer::cat;

/// Journal frame payload: [u64 sequence][encoded CatalogRecord].
std::string frame_payload(std::uint64_t sequence, const CatalogRecord& record) {
  Encoder e;
  e.u64(sequence);
  const std::string body = encode_record(record);
  e.bytes(body.data(), body.size());
  return e.take();
}

}  // namespace

DurableCatalog::DurableCatalog(dsl::DesignSpaceLayer& layer, DurableOptions options)
    : layer_(layer), options_(std::move(options)) {
  DSLAYER_REQUIRE(!options_.dir.empty(), "durable catalog needs a data directory");
  ensure_directory(options_.dir);
  boot_ = boot(/*clear_layer=*/false, nullptr);
}

const BootReport& DurableCatalog::reload(dsl::DesignSpaceLayer::RetiredCatalog* retired) {
  const std::uint64_t sequence = sequence_;
  std::vector<CatalogRecord> constraint_records = constraint_records_;
  wal_.reset();  // release the append fd before recovery re-scans the file
  try {
    boot_ = boot(/*clear_layer=*/true, retired);
  } catch (...) {
    // Keep appending where the journal left off: resetting the sequence
    // would number new frames at or below the snapshot's absorbed mark,
    // and the next boot would skip them.
    sequence_ = sequence;
    constraint_records_ = std::move(constraint_records);
    if (wal_ == nullptr) wal_ = std::make_unique<WalWriter>(wal_path(), options_.wal);
    throw;
  }
  return boot_;
}

BootReport DurableCatalog::boot(bool clear_layer,
                                dsl::DesignSpaceLayer::RetiredCatalog* retired) {
  BootReport report;
  sequence_ = 0;

  if (path_exists(snapshot_path())) {
    report.snapshot =
        load_snapshot(layer_, snapshot_path(),
                      {.verify_payloads = options_.verify_snapshot_payloads}, retired);
    report.loaded_snapshot = true;
    sequence_ = report.snapshot.journal_seq;
  } else if (clear_layer) {
    // `!restore` without a snapshot: the journal is the whole history, so
    // replay must start from an empty catalog, not the live one.
    dsl::DesignSpaceLayer::RetiredCatalog replaced = layer_.clear_catalog();
    if (retired != nullptr) *retired = std::move(replaced);
  }

  // The snapshot carries the constraint records it absorbed; they seed
  // the running list the next checkpoint will persist.
  constraint_records_ = report.snapshot.constraint_records;

  WalRecovery recovery = recover_wal(wal_path());
  report.truncated_bytes = recovery.truncated_bytes;
  bool needs_index = false;
  for (const std::string& payload : recovery.records) {
    Decoder d(payload);
    const std::uint64_t seq = d.u64();
    sequence_ = std::max(sequence_, seq);
    if (report.loaded_snapshot && seq <= report.snapshot.journal_seq) {
      // Absorbed by the snapshot before an interrupted checkpoint got to
      // reset the journal — applying again would double-add cores (and
      // constraints travel inside the snapshot, so they are covered too).
      ++report.skipped_records;
      continue;
    }
    CatalogRecord record = decode_record(payload.substr(d.position()));
    if (record.kind == CatalogRecord::Kind::kAddConstraint) {
      // Idempotent on reload(): clear_catalog() leaves constraints in
      // place, so the live layer may already carry this id.
      if (!layer_has_constraint(layer_, record.id)) apply_record(layer_, record);
      constraint_records_.push_back(std::move(record));
    } else {
      apply_record(layer_, record);
      needs_index = record.kind == CatalogRecord::Kind::kAddCores ||
                    (needs_index && record.kind != CatalogRecord::Kind::kIndexCores);
    }
    ++report.replayed_records;
    counters().recovery_replayed_records.add();
  }
  // A journal tail that added cores without reaching its index record
  // (the mutator indexed through SharedLayer::write, which does not
  // journal) must still leave the replayed cores queryable.
  if (needs_index) layer_.index_cores();

  wal_ = std::make_unique<WalWriter>(wal_path(), options_.wal);
  return report;
}

void DurableCatalog::apply_and_log(const CatalogRecord& record) {
  apply_record(layer_, record);  // may throw: nothing journaled, state clean
  wal_->append(frame_payload(++sequence_, record));
  if (record.kind == CatalogRecord::Kind::kAddConstraint) {
    constraint_records_.push_back(record);
  }
}

SnapshotWriteReport DurableCatalog::checkpoint() {
  wal_->sync();  // the snapshot must not get ahead of unsynced frames
  const SnapshotWriteReport report =
      write_snapshot(layer_, snapshot_path(), sequence_, &constraint_records_);
  wal_->reset();
  return report;
}

std::string DurableCatalog::snapshot_path() const { return cat(options_.dir, "/catalog.snap"); }
std::string DurableCatalog::wal_path() const { return cat(options_.dir, "/catalog.wal"); }
std::string DurableCatalog::sessions_dir() const { return cat(options_.dir, "/sessions"); }

}  // namespace dslayer::storage
