// Unit tests for src/storage: codec framing, CRC32, WAL append/recover
// (torn tails), snapshot round trips, the durable catalog's exactly-once
// replay, session journals, and the bulk CSV importer.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "domains/crypto.hpp"
#include "domains/media.hpp"
#include "dsl/layer.hpp"
#include "dsl/serialize.hpp"
#include "snapshot_layout.hpp"
#include "storage/catalog_journal.hpp"
#include "storage/codec.hpp"
#include "storage/counters.hpp"
#include "storage/crc32.hpp"
#include "storage/csv_import.hpp"
#include "storage/durable_catalog.hpp"
#include "storage/file_io.hpp"
#include "storage/session_store.hpp"
#include "storage/snapshot.hpp"
#include "storage/wal.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace dslayer::storage {
namespace {

using dsl::Cdo;
using dsl::ConsistencyConstraint;
using dsl::Core;
using dsl::DesignSpaceLayer;
using dsl::PredicateAtom;
using dsl::Property;
using dsl::PropertyPath;
using dsl::Value;
using dsl::ValueDomain;

/// Fresh per-test scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir =
      ::testing::TempDir() + "dslayer_storage/" + info->test_suite_name() + "." +
      info->name() + "." + tag;
  std::string cleaned = dir;
  // Re-runs must start clean; remove any files a previous run left.
  for (const std::string& name : list_directory(cleaned)) remove_file(cleaned + "/" + name);
  ensure_directory(cleaned);
  return cleaned;
}

/// Block -> {Fast, Slow}; Fast has a numeric Width issue. Small enough to
/// export-compare, rich enough to exercise text + number columns.
std::unique_ptr<DesignSpaceLayer> make_layer() {
  auto layer = std::make_unique<DesignSpaceLayer>("storage-test");
  Cdo& root = layer->space().add_root("Block");
  root.add_property(Property::generalized_issue("Speed", {"Fast", "Slow"}, ""));
  Cdo& fast = root.specialize("Fast");
  fast.add_property(Property::design_issue("Width", ValueDomain::powers_of_two(), ""));
  root.specialize("Slow");
  return layer;
}

Core make_core(const std::string& name, const std::string& speed, double width) {
  Core c(name, "Block");
  c.bind("Speed", Value::text(speed));
  c.bind("Width", Value::number(width));
  c.set_metric("area", width * 10.0);
  c.add_view("rt", "ip://" + name + "/rtl.v");
  return c;
}

/// Library lookup by core name (ReuseLibrary deliberately has no find()).
const Core* find_core(const dsl::ReuseLibrary& library, std::string_view name) {
  for (const Core* core : library.cores()) {
    if (core->name() == name) return core;
  }
  return nullptr;
}

CatalogRecord cores_record(const std::string& library,
                           std::initializer_list<const char*> names, const char* speed,
                           double width) {
  std::vector<CoreRecord> cores;
  double w = width;
  for (const char* name : names) {
    cores.push_back(to_record(make_core(name, speed, w)));
    w *= 2.0;
  }
  return CatalogRecord::add_cores(library, std::move(cores));
}

ConsistencyConstraint make_constraint() {
  return ConsistencyConstraint::inconsistent_when(
      "W1", "fast blocks stay narrow", {PropertyPath::parse("Speed@Block")},
      {PropertyPath::parse("Width@Block")},
      {PredicateAtom::equals("Speed", Value::text("Fast")),
       PredicateAtom::compares("Width", PredicateAtom::Cmp::kGe, 128.0)});
}

// -- crc32 ------------------------------------------------------------------

TEST(Crc32, MatchesKnownVectors) {
  // zlib-compatible: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("")), 0u);
}

TEST(Crc32, Chains) {
  const std::string_view text = "hello, journal";
  const std::uint32_t whole = crc32(text);
  const std::uint32_t part = crc32(text.substr(7), crc32(text.substr(0, 7)));
  EXPECT_EQ(whole, part);
}

// -- codec ------------------------------------------------------------------

TEST(Codec, RoundTripsScalarsAndValues) {
  Encoder e;
  e.u8(7);
  e.u32(0xDEADBEEFu);
  e.u64(1ull << 52);
  e.f64(-2.5);
  e.str("sym");
  e.value(Value::text("t"));
  e.value(Value::number(42.0));
  e.value(Value::flag(true));
  const std::string bytes = e.take();

  Decoder d(bytes);
  EXPECT_EQ(d.u8(), 7u);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 1ull << 52);
  EXPECT_EQ(d.f64(), -2.5);
  EXPECT_EQ(d.str(), "sym");
  EXPECT_EQ(d.value(), Value::text("t"));
  EXPECT_EQ(d.value(), Value::number(42.0));
  EXPECT_EQ(d.value(), Value::flag(true));
  EXPECT_TRUE(d.done());
}

TEST(Codec, TruncationThrows) {
  Encoder e;
  e.str("truncate me");
  const std::string bytes = e.take();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Decoder d(std::string_view(bytes).substr(0, cut));
    EXPECT_THROW((void)d.str(), StorageError) << "cut=" << cut;
  }
}

// -- catalog records --------------------------------------------------------

TEST(CatalogJournal, RecordEncodingRoundTrips) {
  const CatalogRecord original = cores_record("vendor", {"c1", "c2"}, "Fast", 8);
  const CatalogRecord decoded = decode_record(encode_record(original));
  EXPECT_EQ(decoded.kind, CatalogRecord::Kind::kAddCores);
  EXPECT_EQ(decoded.library, "vendor");
  ASSERT_EQ(decoded.cores.size(), 2u);
  EXPECT_EQ(decoded.cores[0].name, "c1");
  EXPECT_EQ(decoded.cores[0].class_path, "Block");
  EXPECT_EQ(decoded.cores[0].bindings.size(), 2u);
  EXPECT_EQ(decoded.cores[0].metrics.size(), 1u);
  ASSERT_EQ(decoded.cores[0].views.size(), 1u);
  EXPECT_EQ(decoded.cores[0].views[0].artifact, "ip://c1/rtl.v");

  const CatalogRecord constraint = CatalogRecord::add_constraint(make_constraint());
  const CatalogRecord constraint2 = decode_record(encode_record(constraint));
  EXPECT_EQ(constraint2.kind, CatalogRecord::Kind::kAddConstraint);
  EXPECT_EQ(constraint2.id, "W1");
  EXPECT_EQ(constraint2.atoms.size(), 2u);

  const CatalogRecord index = decode_record(encode_record(CatalogRecord::index_cores()));
  EXPECT_EQ(index.kind, CatalogRecord::Kind::kIndexCores);
}

TEST(CatalogJournal, DomainPredicateConstraintsRoundTripAndOthersAreRefused) {
  std::vector<std::unique_ptr<DesignSpaceLayer>> layers;
  layers.push_back(domains::build_crypto_layer());
  layers.push_back(domains::build_media_layer());
  std::size_t predicates = 0;
  std::size_t formulas = 0;
  for (const auto& layer : layers) {
    for (const ConsistencyConstraint& cc : layer->constraints()) {
      const dsl::RelationKind kind = cc.kind();
      if (kind == dsl::RelationKind::kInconsistentOptions ||
          kind == dsl::RelationKind::kDominanceElimination) {
        const ConsistencyConstraint back = constraint_from_record(
            decode_record(encode_record(CatalogRecord::add_constraint(cc))));
        EXPECT_EQ(back.describe(), cc.describe());
        EXPECT_EQ(back.atoms(), cc.atoms()) << cc.id();
        ++predicates;
      } else {
        EXPECT_THROW(CatalogRecord::add_constraint(cc), PreconditionError) << cc.id();
        formulas += kind == dsl::RelationKind::kFormula ? 1 : 0;
      }
    }
  }
  EXPECT_GE(predicates, 5u);
  EXPECT_GE(formulas, 1u);
}

TEST(CatalogJournal, ReplayMatchesDirectConstruction) {
  auto direct = make_layer();
  direct->add_library("vendor").add(make_core("c1", "Fast", 8));
  direct->library("vendor")->add(make_core("c2", "Slow", 16));
  direct->add_constraint(make_constraint());
  direct->index_cores();

  auto replayed = make_layer();
  apply_record(*replayed, cores_record("vendor", {"c1"}, "Fast", 8));
  apply_record(*replayed, cores_record("vendor", {"c2"}, "Slow", 16));
  apply_record(*replayed, CatalogRecord::add_constraint(make_constraint()));
  apply_record(*replayed, CatalogRecord::index_cores());

  EXPECT_EQ(dsl::export_layer(*direct), dsl::export_layer(*replayed));
}

TEST(CatalogJournal, DuplicateCoreRejectedBeforeJournal) {
  auto layer = make_layer();
  apply_record(*layer, cores_record("vendor", {"dup"}, "Fast", 8));
  EXPECT_THROW(apply_record(*layer, cores_record("vendor", {"dup"}, "Fast", 8)), Error);
}

// -- WAL --------------------------------------------------------------------

TEST(Wal, AppendRecoverRoundTrip) {
  const std::string path = scratch_dir("wal") + "/catalog.wal";
  {
    WalWriter writer(path, {});
    writer.append("alpha");
    writer.append("beta");
    writer.append(std::string(100000, 'x'));  // multi-block frame
  }
  const WalRecovery recovery = recover_wal(path);
  EXPECT_TRUE(recovery.existed);
  EXPECT_EQ(recovery.truncated_bytes, 0u);
  ASSERT_EQ(recovery.records.size(), 3u);
  EXPECT_EQ(recovery.records[0], "alpha");
  EXPECT_EQ(recovery.records[1], "beta");
  EXPECT_EQ(recovery.records[2].size(), 100000u);
}

TEST(Wal, MissingFileIsEmptyJournal) {
  const WalRecovery recovery = recover_wal(scratch_dir("none") + "/missing.wal");
  EXPECT_FALSE(recovery.existed);
  EXPECT_TRUE(recovery.records.empty());
}

TEST(Wal, TornTailIsTruncatedExactlyOnce) {
  const std::string path = scratch_dir("torn") + "/catalog.wal";
  {
    WalWriter writer(path, {});
    writer.append("whole-1");
    writer.append("whole-2");
  }
  // Crash mid-append: a frame header promising more bytes than exist.
  {
    std::ofstream tail(path, std::ios::binary | std::ios::app);
    const std::uint32_t length = 100;
    tail.write(reinterpret_cast<const char*>(&length), 4);
    tail.write("\0\0\0\0torn", 8);
  }
  const WalRecovery first = recover_wal(path);
  ASSERT_EQ(first.records.size(), 2u);
  EXPECT_GT(first.truncated_bytes, 0u);

  const WalRecovery second = recover_wal(path);
  ASSERT_EQ(second.records.size(), 2u);
  EXPECT_EQ(second.truncated_bytes, 0u);  // the repair stuck

  // And the writer appends after the valid prefix.
  {
    WalWriter writer(path, {});
    writer.append("whole-3");
  }
  EXPECT_EQ(recover_wal(path).records.size(), 3u);
}

TEST(Wal, CorruptPayloadStopsReplayAtLastGoodFrame) {
  const std::string path = scratch_dir("crc") + "/catalog.wal";
  std::uint64_t second_frame_at = 0;
  {
    WalWriter writer(path, {});
    writer.append("good");
    second_frame_at = writer.file_bytes();
    writer.append("evil");
  }
  {
    // Flip one payload byte of the second frame.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(second_frame_at) + 8);
    f.put('E' ^ 0x01);
  }
  const WalRecovery recovery = recover_wal(path);
  ASSERT_EQ(recovery.records.size(), 1u);
  EXPECT_EQ(recovery.records[0], "good");
  EXPECT_GT(recovery.truncated_bytes, 0u);
}

TEST(Wal, BadHeaderThrows) {
  const std::string path = scratch_dir("hdr") + "/catalog.wal";
  std::ofstream(path, std::ios::binary) << "NOTAWAL1 and some bytes";
  EXPECT_THROW(recover_wal(path), StorageError);
}

TEST(Wal, ResetTruncatesToHeader) {
  const std::string path = scratch_dir("reset") + "/catalog.wal";
  WalWriter writer(path, {});
  writer.append("gone after checkpoint");
  writer.reset();
  writer.append("fresh");
  const WalRecovery recovery = recover_wal(path);
  ASSERT_EQ(recovery.records.size(), 1u);
  EXPECT_EQ(recovery.records[0], "fresh");
}

TEST(Wal, SyncModesCountSyncedBytes) {
  const std::string dir = scratch_dir("sync");
  const std::uint64_t before = counters().wal_synced_bytes.get();
  {
    WalOptions options;
    options.sync = SyncMode::kOff;
    WalWriter writer(dir + "/off.wal", options);
    writer.append("unsynced");
  }
  EXPECT_EQ(counters().wal_synced_bytes.get(), before);
  {
    WalWriter writer(dir + "/always.wal", {});  // default kAlways
    writer.append("synced");
  }
  EXPECT_GT(counters().wal_synced_bytes.get(), before);

  EXPECT_EQ(parse_sync_mode("interval"), SyncMode::kInterval);
  EXPECT_THROW(parse_sync_mode("sometimes"), StorageError);
}

// -- snapshots --------------------------------------------------------------

TEST(Snapshot, RoundTripsCatalogAndTables) {
  const std::string path = scratch_dir("snap") + "/catalog.snap";
  auto original = make_layer();
  original->add_library("vendor").add(make_core("c1", "Fast", 8));
  original->library("vendor")->add(make_core("c2", "Slow", 16));
  original->add_library("acme").add(make_core("c3", "Fast", 32));
  original->add_constraint(make_constraint());
  original->index_cores();
  // Prime two filter plans so kTables has content.
  (void)original->filter_plan(*original->space().find("Block"));
  (void)original->filter_plan(*original->space().find("Block.Fast"));

  const SnapshotWriteReport written = write_snapshot(*original, path, 17);
  EXPECT_EQ(written.cores, 3u);
  EXPECT_EQ(written.tables, 2u);
  EXPECT_GT(written.bytes, 0u);

  auto restored = make_layer();
  restored->add_constraint(make_constraint());
  const SnapshotLoadReport loaded = load_snapshot(*restored, path, {.verify_payloads = true});
  EXPECT_EQ(loaded.cores, 3u);
  EXPECT_EQ(loaded.tables, 2u);
  EXPECT_EQ(loaded.journal_seq, 17u);

  EXPECT_EQ(dsl::export_layer(*original), dsl::export_layer(*restored));
  const Cdo& root = *restored->space().find("Block");
  EXPECT_EQ(restored->cores_under(root).size(), 3u);
  EXPECT_NE(restored->peek_filter_plan(root), nullptr);
  EXPECT_NE(restored->peek_filter_plan(*restored->space().find("Block.Fast")), nullptr);
  EXPECT_EQ(restored->peek_filter_plan(*restored->space().find("Block.Slow")), nullptr);
}

TEST(Snapshot, HierarchyFingerprintMismatchThrows) {
  const std::string path = scratch_dir("fp") + "/catalog.snap";
  auto original = make_layer();
  original->add_library("v").add(make_core("c1", "Fast", 8));
  original->index_cores();
  write_snapshot(*original, path);

  DesignSpaceLayer different("storage-test");
  different.space().add_root("Other");
  EXPECT_THROW(load_snapshot(different, path), StorageError);
}

TEST(Snapshot, CorruptHeaderDetected) {
  const std::string path = scratch_dir("corrupt") + "/catalog.snap";
  auto layer = make_layer();
  layer->index_cores();
  write_snapshot(*layer, path);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);  // section count field
    f.put('\x7F');
  }
  auto fresh = make_layer();
  EXPECT_THROW(load_snapshot(*fresh, path), StorageError);
}

/// Writes the three-core Block catalog's snapshot, lets `corrupt` damage
/// the bytes of its first kCores record, and boots a populated layer from
/// the result. The load must throw at boot (not at a core's first read)
/// and leave the live catalog as it was.
void expect_corrupt_core_record_rejected(
    const std::function<void(std::string&, const testing_support::FirstCoreRecord&)>& corrupt) {
  const std::string path = scratch_dir("cores") + "/catalog.snap";
  auto original = make_layer();
  original->add_library("vendor").add(make_core("c1", "Fast", 8));
  original->library("vendor")->add(make_core("c2", "Slow", 16));
  original->index_cores();
  write_snapshot(*original, path);
  std::string bytes = testing_support::read_bytes(path);
  corrupt(bytes, testing_support::first_core_record(bytes));
  testing_support::write_bytes(path, bytes);

  auto live = make_layer();
  live->add_library("live").add(make_core("l1", "Slow", 4));
  live->index_cores();
  const std::string before = dsl::export_layer(*live);
  EXPECT_THROW(load_snapshot(*live, path), StorageError);
  EXPECT_EQ(dsl::export_layer(*live), before);
  EXPECT_EQ(live->cores_under(*live->space().find("Block")).size(), 1u);
}

TEST(Snapshot, BadValueKindTagInCoresThrowsAtBoot) {
  expect_corrupt_core_record_rejected(
      [](std::string& bytes, const testing_support::FirstCoreRecord& record) {
        ASSERT_GT(testing_support::get_u32(bytes, record.class_symbol + 8), 0u);  // has bindings
        bytes[record.binding_kind] = '\x7F';
      });
}

TEST(Snapshot, OutOfRangeSymbolIdInCoresThrowsAtBoot) {
  expect_corrupt_core_record_rejected(
      [](std::string& bytes, const testing_support::FirstCoreRecord& record) {
        testing_support::put_u32(bytes, record.class_symbol, 0x00FFFFF0u);
      });
}

TEST(Snapshot, OverlongStringLengthInCoresThrowsAtBoot) {
  expect_corrupt_core_record_rejected(
      [](std::string& bytes, const testing_support::FirstCoreRecord& record) {
        testing_support::put_u32(bytes, record.name_length, 0x7FFFFFF0u);
      });
}

// -- durable catalog --------------------------------------------------------

TEST(DurableCatalog, BootReplaysJournalExactlyOnce) {
  const std::string dir = scratch_dir("boot");
  std::string expected;
  {
    auto layer = make_layer();
    DurableCatalog durable(*layer, {.dir = dir});
    durable.apply_and_log(cores_record("vendor", {"c1", "c2"}, "Fast", 8));
    durable.apply_and_log(CatalogRecord::add_constraint(make_constraint()));
    durable.apply_and_log(CatalogRecord::index_cores());
    expected = dsl::export_layer(*layer);
  }
  {
    auto layer = make_layer();
    DurableCatalog durable(*layer, {.dir = dir});
    EXPECT_FALSE(durable.boot_report().loaded_snapshot);
    EXPECT_EQ(durable.boot_report().replayed_records, 3u);
    EXPECT_EQ(dsl::export_layer(*layer), expected);
    EXPECT_EQ(durable.sequence(), 3u);
  }
}

TEST(DurableCatalog, CheckpointThenTailReplay) {
  const std::string dir = scratch_dir("checkpoint");
  std::string expected;
  {
    auto layer = make_layer();
    DurableCatalog durable(*layer, {.dir = dir});
    durable.apply_and_log(cores_record("vendor", {"c1"}, "Fast", 8));
    durable.apply_and_log(CatalogRecord::index_cores());
    durable.checkpoint();
    durable.apply_and_log(cores_record("vendor", {"c3"}, "Slow", 16));
    durable.apply_and_log(CatalogRecord::index_cores());
    expected = dsl::export_layer(*layer);
  }
  {
    auto layer = make_layer();
    DurableCatalog durable(*layer, {.dir = dir});
    EXPECT_TRUE(durable.boot_report().loaded_snapshot);
    EXPECT_EQ(durable.boot_report().replayed_records, 2u);  // only the tail
    EXPECT_EQ(durable.boot_report().skipped_records, 0u);
    EXPECT_EQ(dsl::export_layer(*layer), expected);
  }
}

TEST(DurableCatalog, InterruptedCheckpointSkipsAbsorbedRecords) {
  const std::string dir = scratch_dir("interrupted");
  std::string expected;
  {
    auto layer = make_layer();
    DurableCatalog durable(*layer, {.dir = dir});
    durable.apply_and_log(cores_record("vendor", {"c1", "c2"}, "Fast", 8));
    durable.apply_and_log(CatalogRecord::index_cores());
    // Crash window: the snapshot published but the WAL reset never ran.
    write_snapshot(*layer, dir + "/catalog.snap", durable.sequence());
    expected = dsl::export_layer(*layer);
  }
  {
    auto layer = make_layer();
    DurableCatalog durable(*layer, {.dir = dir});
    EXPECT_TRUE(durable.boot_report().loaded_snapshot);
    EXPECT_EQ(durable.boot_report().replayed_records, 0u);
    EXPECT_EQ(durable.boot_report().skipped_records, 2u);  // absorbed, not re-applied
    EXPECT_EQ(dsl::export_layer(*layer), expected);
    // The sequence counter continues from the absorbed history.
    EXPECT_EQ(durable.sequence(), 2u);
  }
}

TEST(DurableCatalog, ReloadDiscardsUnjournaledState) {
  const std::string dir = scratch_dir("reload");
  auto layer = make_layer();
  DurableCatalog durable(*layer, {.dir = dir});
  durable.apply_and_log(cores_record("vendor", {"c1"}, "Fast", 8));
  durable.apply_and_log(CatalogRecord::index_cores());
  const std::string journaled = dsl::export_layer(*layer);

  // Mutate the layer behind the journal's back, then restore.
  layer->library("vendor")->add(make_core("ghost", "Slow", 16));
  layer->index_cores();
  EXPECT_NE(dsl::export_layer(*layer), journaled);

  const BootReport& report = durable.reload();
  EXPECT_EQ(report.replayed_records, 2u);
  EXPECT_EQ(dsl::export_layer(*layer), journaled);

  // The journal still accepts appends after a reload.
  durable.apply_and_log(cores_record("vendor", {"c2"}, "Slow", 32));
  EXPECT_EQ(durable.sequence(), 3u);
}

TEST(DurableCatalog, WalAppendFailpointLosesOnlyUnacknowledged) {
  const std::string dir = scratch_dir("failpoint");
  auto& registry = support::FailpointRegistry::instance();
  {
    auto layer = make_layer();
    DurableCatalog durable(*layer, {.dir = dir});
    durable.apply_and_log(cores_record("vendor", {"acked"}, "Fast", 8));
    registry.arm("storage.wal.append", support::FailpointMode::kError, 0.0, 1);
    EXPECT_THROW(durable.apply_and_log(cores_record("vendor", {"lost"}, "Slow", 16)),
                 FailpointError);
    registry.reset();
  }
  auto layer = make_layer();
  DurableCatalog durable(*layer, {.dir = dir});
  EXPECT_EQ(durable.boot_report().replayed_records, 1u);
  EXPECT_EQ(layer->library("vendor")->size(), 1u);  // "lost" was never acknowledged
}

// -- session store ----------------------------------------------------------

TEST(SessionStore, SaveLoadRemoveRoundTrip) {
  SessionStore store(scratch_dir("sessions"));
  EXPECT_FALSE(store.load("alice").has_value());
  store.save("alice", "line-1\nline-2\n");
  ASSERT_TRUE(store.load("alice").has_value());
  EXPECT_EQ(*store.load("alice"), "line-1\nline-2\n");
  store.append("alice", "line-3\n");
  EXPECT_EQ(*store.load("alice"), "line-1\nline-2\nline-3\n");
  EXPECT_EQ(store.list(), std::vector<std::string>{"alice"});
  store.remove("alice");
  EXPECT_FALSE(store.load("alice").has_value());
  store.remove("alice");  // idempotent
}

TEST(SessionStore, TornFinalLineIsDropped) {
  SessionStore store(scratch_dir("torn"));
  store.save("s", "complete\n");
  store.append("s", "also complete\n");
  // Simulate a crash mid-append: no trailing newline.
  std::ofstream(store.dir() + "/" + SessionStore::encode_name("s") + ".jsonl",
                std::ios::app)
      << "torn half-lin";
  EXPECT_EQ(*store.load("s"), "complete\nalso complete\n");
}

TEST(SessionStore, EncodesHostileNames) {
  const std::string hostile = "../etc/pass wd%00\n";
  const std::string encoded = SessionStore::encode_name(hostile);
  EXPECT_EQ(encoded.find('/'), std::string::npos);
  EXPECT_EQ(encoded.find('\n'), std::string::npos);
  EXPECT_EQ(SessionStore::decode_name(encoded), hostile);

  SessionStore store(scratch_dir("names"));
  store.save(hostile, "journal\n");
  EXPECT_EQ(*store.load(hostile), "journal\n");
  EXPECT_EQ(store.list(), std::vector<std::string>{hostile});
}

// -- CSV import -------------------------------------------------------------

TEST(CsvImport, ParsesTypedColumnsAndBatches) {
  const std::string csv =
      "name,class,library,Speed,bind:Width,metric:area,view:rt\n"
      "c1,Block,vendor,Fast,8,80,ip://c1/rtl.v\n"
      "c2,Block,vendor,Slow,16,160,\n"
      "c3,Block,acme,Fast,32,320,ip://c3/rtl.v\n";
  std::vector<CatalogRecord> records;
  const CsvImportResult result =
      import_csv(csv, "fallback", 2, [&](CatalogRecord r) { records.push_back(std::move(r)); });
  EXPECT_EQ(result.rows, 3u);
  EXPECT_TRUE(result.warnings.empty());
  ASSERT_EQ(records.size(), 2u);  // vendor batch + acme batch

  auto layer = make_layer();
  for (const CatalogRecord& record : records) apply_record(*layer, record);
  apply_record(*layer, CatalogRecord::index_cores());
  EXPECT_EQ(layer->library("vendor")->size(), 2u);
  EXPECT_EQ(layer->library("acme")->size(), 1u);
  const Core& c1 = *find_core(*layer->library("vendor"), "c1");
  EXPECT_EQ(c1.binding("Speed"), Value::text("Fast"));
  EXPECT_EQ(c1.binding("Width"), Value::number(8));  // auto-typed
  EXPECT_EQ(c1.metric("area"), 80.0);
  ASSERT_EQ(c1.views().size(), 1u);
  const Core& c2 = *find_core(*layer->library("vendor"), "c2");
  EXPECT_TRUE(c2.views().empty());  // empty cell binds nothing
}

TEST(CsvImport, QuotingAndEscapes) {
  const std::string csv =
      "name,class,bind:Doc\n"
      "\"q,1\",Block,\"says \"\"hi\"\"\nsecond line\"\n";
  std::vector<CatalogRecord> records;
  const CsvImportResult result =
      import_csv(csv, "lib", 100, [&](CatalogRecord r) { records.push_back(std::move(r)); });
  EXPECT_EQ(result.rows, 1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].library, "lib");  // default library
  ASSERT_EQ(records[0].cores.size(), 1u);
  EXPECT_EQ(records[0].cores[0].name, "q,1");
  ASSERT_EQ(records[0].cores[0].bindings.size(), 1u);
  EXPECT_EQ(records[0].cores[0].bindings[0].second,
            Value::text("says \"hi\"\nsecond line"));
}

TEST(CsvImport, RowsMissingRequirementsWarnButContinue) {
  const std::string csv =
      "name,class\n"
      ",Block\n"
      "ok,Block\n"
      "lost,\n";
  std::vector<CatalogRecord> records;
  const CsvImportResult result =
      import_csv(csv, "lib", 10, [&](CatalogRecord r) { records.push_back(std::move(r)); });
  EXPECT_EQ(result.rows, 1u);
  EXPECT_EQ(result.warnings.size(), 2u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].cores[0].name, "ok");
}

TEST(CsvImport, MalformedInputThrows) {
  EXPECT_THROW(import_csv("name\nx\n", "lib", 10, [](CatalogRecord) {}), StorageError)
      << "missing class column";
  EXPECT_THROW(
      import_csv("name,class,metric:m\nc,Block,notanumber\n", "lib", 10, [](CatalogRecord) {}),
      StorageError);
  EXPECT_THROW(import_csv("name,class\n\"unterminated,Block\n", "lib", 10, [](CatalogRecord) {}),
               StorageError);
}

TEST(CsvImport, NonFiniteMetricCellsAreRejected) {
  // strtod accepts "nan" and "inf" whole; a NaN metric would make range
  // answers depend on row order, so both are refused like any non-number.
  for (const char* cell : {"nan", "inf"}) {
    const std::string csv =
        std::string("name,class,metric:area\nok,Block,80\nbad,Block,") + cell + "\n";
    try {
      import_csv(csv, "lib", 10, [](CatalogRecord) {});
      ADD_FAILURE() << cell << " was imported";
    } catch (const StorageError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("csv line 3: metric 'area' value '") + cell + "' is not a number");
    }
  }
}

// -- declared failpoint catalog --------------------------------------------

TEST(Failpoints, StorageSitesAreDeclared) {
  const auto declared = support::FailpointRegistry::instance().list_declared();
  const auto has = [&](std::string_view name) {
    for (const auto& info : declared) {
      if (info.name == name) return true;
    }
    return false;
  };
  for (const char* site :
       {"storage.wal.open", "storage.wal.append", "storage.wal.sync", "storage.wal.truncate",
        "storage.snapshot.write", "storage.snapshot.sync", "storage.snapshot.rename",
        "storage.session.flush", "storage.session.rename", "storage.import.row"}) {
    EXPECT_TRUE(has(site)) << site;
  }
}

}  // namespace
}  // namespace dslayer::storage
