#include "storage/snapshot.hpp"

#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dsl/core_table.hpp"
#include "dsl/serialize.hpp"
#include "storage/codec.hpp"
#include "storage/counters.hpp"
#include "storage/crc32.hpp"
#include "storage/file_io.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/strings.hpp"
#include "support/symbol.hpp"

namespace dslayer::storage {

namespace {

using dslayer::cat;

constexpr char kMagic[8] = {'D', 'S', 'L', 'S', 'N', 'A', 'P', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kDirEntryBytes = 32;
constexpr std::size_t kAlign = 64;
constexpr std::uint32_t kNoCdo = 0xFFFFFFFFu;

enum SectionTag : std::uint32_t {
  kLayerInfo = 1,
  kSymbols = 2,
  kCdoPaths = 3,
  kCores = 4,
  kTables = 5,
  kTablePayload = 6,
  kConstraints = 7,
};

std::size_t align_up(std::size_t n) { return (n + (kAlign - 1)) & ~(kAlign - 1); }

/// Compatibility fingerprint: the hierarchy text WITHOUT constraint
/// comment lines. Journaled declarative constraints appear as "#
/// constraint ..." comments in export_hierarchy(), so hashing them would
/// make a snapshot taken after a journaled constraint unloadable against
/// the fresh factory layer it must boot onto.
std::uint32_t hierarchy_fingerprint(const dsl::DesignSpaceLayer& layer) {
  const std::string text = dsl::export_hierarchy(layer);
  std::uint32_t crc = 0;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size(); else ++end;
    const std::string_view line(text.data() + begin, end - begin);
    if (!line.starts_with("# constraint ")) crc = crc32(line, crc);
    begin = end;
  }
  return crc;
}

struct Section {
  std::uint32_t tag = 0;
  std::string payload;
};

struct DirEntry {
  std::uint32_t tag = 0;
  std::uint32_t flags = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
};

// -- writer -----------------------------------------------------------------

/// Appends one column's payloads to the blob (64-byte aligned chunks) and
/// encodes its directory entry. Only kNumber / kText columns reach here.
void encode_column(Encoder& dir, std::string& blob, const dsl::CoreTable::Column& column) {
  const auto append_chunk = [&blob](const void* data, std::size_t bytes) {
    const std::size_t at = align_up(blob.size());
    blob.resize(at, '\0');
    blob.append(static_cast<const char*>(data), bytes);
    return static_cast<std::uint64_t>(at);
  };
  dir.u32(column.symbol);
  dir.u8(static_cast<std::uint8_t>(column.kind));
  const std::size_t present_bytes = column.present.size() * sizeof(std::uint64_t);
  dir.u64(append_chunk(column.present.data(), present_bytes));
  dir.u64(present_bytes);
  if (column.kind == dsl::CoreTable::ColumnKind::kNumber) {
    const std::size_t bytes = column.numbers.size() * sizeof(double);
    dir.u64(append_chunk(column.numbers.data(), bytes));
    dir.u64(bytes);
  } else {
    const std::size_t bytes = column.texts.size() * sizeof(support::Symbol);
    dir.u64(append_chunk(column.texts.data(), bytes));
    dir.u64(bytes);
  }
}

bool table_is_persistable(const dsl::CoreTable& table) {
  const auto pure = [](const std::vector<dsl::CoreTable::Column>& columns) {
    for (const dsl::CoreTable::Column& c : columns) {
      if (c.kind == dsl::CoreTable::ColumnKind::kMixed) return false;
    }
    return true;
  };
  return pure(table.binding_columns()) && pure(table.metric_columns());
}

// -- loader -----------------------------------------------------------------

struct ParsedFile {
  std::shared_ptr<MappedFile> mapping;
  std::vector<DirEntry> directory;

  std::string_view section(std::uint32_t tag, bool required = true) const {
    for (const DirEntry& entry : directory) {
      if (entry.tag == tag) {
        return mapping->view().substr(entry.offset, entry.length);
      }
    }
    if (required) throw StorageError(cat("snapshot: missing section ", tag));
    return {};
  }
};

ParsedFile parse_file(const std::string& path, bool verify_payloads) {
  ParsedFile out;
  out.mapping = std::make_shared<MappedFile>(MappedFile::map(path));
  const std::string_view file = out.mapping->view();
  if (file.size() < kHeaderBytes || std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    throw StorageError(cat("snapshot '", path, "': bad magic header"));
  }
  std::uint32_t version;
  std::uint32_t section_count;
  std::uint64_t file_bytes;
  std::uint32_t header_crc;
  std::memcpy(&version, file.data() + 8, 4);
  std::memcpy(&section_count, file.data() + 12, 4);
  std::memcpy(&file_bytes, file.data() + 16, 8);
  std::memcpy(&header_crc, file.data() + 24, 4);
  if (version != kVersion) {
    throw StorageError(cat("snapshot '", path, "': unsupported version ", version));
  }
  if (file_bytes != file.size()) {
    throw StorageError(cat("snapshot '", path, "': size mismatch (header says ", file_bytes,
                           ", file is ", file.size(), ")"));
  }
  const std::size_t dir_end = kHeaderBytes + std::size_t{section_count} * kDirEntryBytes;
  if (dir_end > file.size()) {
    throw StorageError(cat("snapshot '", path, "': directory runs past EOF"));
  }
  // Header+directory CRC, computed with the CRC field itself zeroed.
  std::string head(file.substr(0, dir_end));
  std::memset(head.data() + 24, 0, 4);
  if (crc32(head) != header_crc) {
    throw StorageError(cat("snapshot '", path, "': header checksum mismatch"));
  }
  out.directory.reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    const char* p = file.data() + kHeaderBytes + std::size_t{i} * kDirEntryBytes;
    DirEntry entry;
    std::memcpy(&entry.tag, p, 4);
    std::memcpy(&entry.flags, p + 4, 4);
    std::memcpy(&entry.offset, p + 8, 8);
    std::memcpy(&entry.length, p + 16, 8);
    std::memcpy(&entry.crc, p + 24, 4);
    if (entry.offset + entry.length > file.size()) {
      throw StorageError(cat("snapshot '", path, "': section ", entry.tag, " runs past EOF"));
    }
    if (verify_payloads &&
        crc32(file.substr(entry.offset, entry.length)) != entry.crc) {
      throw StorageError(cat("snapshot '", path, "': section ", entry.tag,
                             " payload checksum mismatch"));
    }
    out.directory.push_back(entry);
  }
  return out;
}

/// Symbol remap: snapshot id -> live id, with the identity fast path.
struct SymbolRemap {
  std::vector<support::Symbol> map;
  /// Interned spelling per SNAPSHOT id, resolved once here: the per-core
  /// decode loop must not take the symbol table's shared lock millions of
  /// times (symbol_name() locks; at 1M cores that lock dominated boot).
  std::vector<const std::string*> spelling;
  bool identity = true;

  support::Symbol operator()(support::Symbol snap) const {
    if (snap == support::kNoSymbol) return support::kNoSymbol;
    if (snap >= map.size()) throw StorageError("snapshot: symbol id out of range");
    return map[snap];
  }

  /// (live symbol, interned spelling) without any lock or hash.
  std::pair<support::Symbol, const std::string*> resolve(support::Symbol snap) const {
    check(snap);
    return {map[snap], spelling[snap]};
  }

  void check(support::Symbol snap) const {
    if (snap >= map.size()) throw StorageError("snapshot: symbol id out of range");
  }
};

SymbolRemap build_remap(std::string_view symbols_section) {
  Decoder d(symbols_section);
  const std::uint64_t count = d.u64();
  SymbolRemap remap;
  remap.map.reserve(count);
  remap.spelling.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const support::Symbol live = support::intern_symbol(d.str());
    remap.identity = remap.identity && live == static_cast<support::Symbol>(i);
    remap.map.push_back(live);
    remap.spelling.push_back(&support::symbol_name(live));
  }
  return remap;
}

/// Decodes one kCores record (the cursor sits at its name) into a Core.
/// The record was validated by walk_cores(), so this does not throw on
/// data the loader accepted.
dsl::Core decode_core(Decoder& d, const SymbolRemap& remap) {
  std::string core_name(d.str());
  const auto [class_symbol, class_path] = remap.resolve(d.u32());
  (void)d.u32();  // indexed cdo id: consumed by the walk
  dsl::Core core = dsl::Core::restored(std::move(core_name), class_symbol, class_path);
  const std::uint32_t bindings = d.u32();
  std::vector<dsl::CoreBinding> adopted_bindings;
  adopted_bindings.reserve(bindings);
  for (std::uint32_t i = 0; i < bindings; ++i) {
    const auto [symbol, name] = remap.resolve(d.u32());
    adopted_bindings.push_back({symbol, name, d.value()});
  }
  const std::uint32_t metrics = d.u32();
  std::vector<dsl::CoreMetric> adopted_metrics;
  adopted_metrics.reserve(metrics);
  for (std::uint32_t i = 0; i < metrics; ++i) {
    const auto [symbol, name] = remap.resolve(d.u32());
    adopted_metrics.push_back({symbol, name, d.f64()});
  }
  core.adopt(std::move(adopted_bindings), std::move(adopted_metrics));
  const std::uint32_t views = d.u32();
  for (std::uint32_t i = 0; i < views; ++i) {
    std::string level(d.str());
    std::string artifact(d.str());
    core.add_view(std::move(level), std::move(artifact));
  }
  return core;
}

/// The restored slots of one library decode from the mapped kCores
/// section; the mapping and remap live as long as any library using them.
class SnapshotCores final : public dsl::CoreSource {
 public:
  SnapshotCores(std::shared_ptr<MappedFile> mapping, std::string_view section,
                std::shared_ptr<const SymbolRemap> remap)
      : mapping_(std::move(mapping)), section_(section), remap_(std::move(remap)) {}

  dsl::Core decode(std::uint64_t record) const override {
    Decoder d(section_.substr(record));
    return decode_core(d, *remap_);
  }

  std::string_view name(std::uint64_t record) const override {
    return Decoder(section_.substr(record)).str();
  }

 private:
  std::shared_ptr<MappedFile> mapping_;
  std::string_view section_;
  std::shared_ptr<const SymbolRemap> remap_;
};

/// One library of the kCores walk: its name and, per core, the record
/// offset (into the section) and indexed cdo id.
struct WalkedLibrary {
  std::string name;
  std::vector<std::uint64_t> records;
  std::vector<std::uint32_t> cdo_ids;
};

/// The one pass over kCores a boot makes: records where each core starts
/// and which CDO it is indexed at, and checks everything decode_core()
/// would otherwise trip on at first read — every length, value-kind tag
/// and symbol id, a non-empty core name, an in-range cdo id — plus
/// distinct library names. Builds no Core.
std::vector<WalkedLibrary> walk_cores(std::string_view section, const SymbolRemap& remap,
                                      std::size_t cdo_count, const std::string& path) {
  Decoder d(section);
  const std::uint32_t library_count = d.u32();
  // Counts are checked against the bytes left before they size anything:
  // a library takes at least 12 bytes, a core record at least 24.
  if (library_count > d.remaining() / 12) {
    throw StorageError(cat("snapshot '", path, "': library count runs past the section"));
  }
  std::vector<WalkedLibrary> libraries;
  libraries.reserve(library_count);
  for (std::uint32_t l = 0; l < library_count; ++l) {
    WalkedLibrary& library = libraries.emplace_back();
    library.name = std::string(d.str());
    for (std::uint32_t prior = 0; prior < l; ++prior) {
      if (libraries[prior].name == library.name) {
        throw StorageError(cat("snapshot '", path, "': library '", library.name,
                               "' appears twice"));
      }
    }
    const std::uint64_t cores = d.u64();
    if (cores > d.remaining() / 24) {
      throw StorageError(cat("snapshot '", path, "': core count runs past the section"));
    }
    library.records.reserve(cores);
    library.cdo_ids.reserve(cores);
    for (std::uint64_t c = 0; c < cores; ++c) {
      library.records.push_back(d.position());
      if (d.str().empty()) throw StorageError(cat("snapshot '", path, "': empty core name"));
      remap.check(d.u32());
      const std::uint32_t cdo_id = d.u32();
      if (cdo_id != kNoCdo && cdo_id >= cdo_count) {
        throw StorageError(cat("snapshot '", path, "': cdo id out of range"));
      }
      library.cdo_ids.push_back(cdo_id);
      for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
        remap.check(d.u32());
        d.skip_value();
      }
      for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
        remap.check(d.u32());
        d.skip(8);
      }
      for (std::uint32_t i = 0, n = d.u32(); i < n; ++i) {
        d.skip(d.u32());
        d.skip(d.u32());
      }
    }
  }
  return libraries;
}

/// A kTables entry decoded and checked, waiting to be installed.
struct PendingTable {
  const dsl::Cdo* cdo = nullptr;
  std::vector<dsl::CoreTable::Column> binding_columns;
  std::vector<dsl::CoreTable::Column> metric_columns;
};

}  // namespace

SnapshotWriteReport write_snapshot(const dsl::DesignSpaceLayer& layer, const std::string& path,
                                   std::uint64_t journal_seq,
                                   const std::vector<CatalogRecord>* constraints) {
  SnapshotWriteReport report;
  std::vector<Section> sections;

  // kConstraints: journaled declarative constraints, as their records.
  if (constraints != nullptr && !constraints->empty()) {
    Encoder e;
    e.u32(static_cast<std::uint32_t>(constraints->size()));
    for (const CatalogRecord& record : *constraints) e.str(encode_record(record));
    report.constraints = constraints->size();
    sections.push_back({kConstraints, e.take()});
  }

  // kSymbols: the whole global table, id order.
  {
    Encoder e;
    const std::vector<std::string_view> names = support::SymbolTable::global().snapshot();
    e.u64(names.size());
    for (const std::string_view name : names) e.str(name);
    sections.push_back({kSymbols, e.take()});
  }

  // kCdoPaths: dense cdo ids in space().all() order.
  std::unordered_map<const dsl::Cdo*, std::uint32_t> cdo_ids;
  const std::vector<const dsl::Cdo*> all_cdos = layer.space().all();
  {
    Encoder e;
    e.u64(all_cdos.size());
    for (std::size_t i = 0; i < all_cdos.size(); ++i) {
      cdo_ids.emplace(all_cdos[i], static_cast<std::uint32_t>(i));
      e.str(all_cdos[i]->path());
    }
    sections.push_back({kCdoPaths, e.take()});
  }

  // kCores: libraries in attach order, cores in add order — exactly the
  // index_cores() visit order restore_index() needs. Each core carries the
  // id of the CDO it is indexed at, read off the layer's cores_at()
  // buckets (the layer keeps no core -> CDO map).
  {
    std::unordered_map<const dsl::Core*, std::uint32_t> core_cdo;
    std::size_t indexed = 0;
    for (const dsl::Cdo* cdo : all_cdos) indexed += layer.cores_at(*cdo).size();
    core_cdo.reserve(indexed);
    for (std::size_t i = 0; i < all_cdos.size(); ++i) {
      for (const dsl::Core* core : layer.cores_at(*all_cdos[i])) {
        core_cdo.emplace(core, static_cast<std::uint32_t>(i));
      }
    }
    Encoder e;
    const std::vector<const dsl::ReuseLibrary*> libraries = layer.libraries();
    e.u32(static_cast<std::uint32_t>(libraries.size()));
    for (const dsl::ReuseLibrary* library : libraries) {
      e.str(library->name());
      const std::vector<const dsl::Core*> cores = library->cores();
      e.u64(cores.size());
      std::optional<dsl::Core> scratch;
      for (const dsl::Core* slot : cores) {
        // peek(): an unfilled slot is encoded from a scratch decode, so a
        // checkpoint leaves the catalog exactly as hydrated as it was.
        const dsl::Core* core = &slot->peek(scratch);
        ++report.cores;
        e.str(core->name());
        e.u32(core->class_symbol());
        const auto it = core_cdo.find(slot);
        e.u32(it == core_cdo.end() ? kNoCdo : it->second);
        e.u32(static_cast<std::uint32_t>(core->bindings().size()));
        for (const dsl::CoreBinding& b : core->bindings()) {
          e.u32(b.symbol);
          e.value(b.value);
        }
        e.u32(static_cast<std::uint32_t>(core->metrics().size()));
        for (const dsl::CoreMetric& m : core->metrics()) {
          e.u32(m.symbol);
          e.f64(m.value);
        }
        e.u32(static_cast<std::uint32_t>(core->views().size()));
        for (const dsl::CoreView& view : core->views()) {
          e.str(view.level);
          e.str(view.artifact);
        }
      }
    }
    sections.push_back({kCores, e.take()});
  }

  // kTables + kTablePayload: every primed, fully-typed filter plan.
  {
    Encoder dir;
    std::string blob;
    std::uint32_t persisted = 0;
    Encoder tables_body;
    for (const dsl::Cdo* cdo : all_cdos) {
      const dsl::CoreFilterPlan* plan = layer.peek_filter_plan(*cdo);
      if (plan == nullptr || !table_is_persistable(plan->table)) continue;
      ++persisted;
      tables_body.u32(cdo_ids.at(cdo));
      tables_body.u64(plan->table.rows());
      tables_body.u32(static_cast<std::uint32_t>(plan->table.binding_column_count()));
      tables_body.u32(static_cast<std::uint32_t>(plan->table.metric_column_count()));
      for (const dsl::CoreTable::Column& c : plan->table.binding_columns()) {
        encode_column(tables_body, blob, c);
      }
      for (const dsl::CoreTable::Column& c : plan->table.metric_columns()) {
        encode_column(tables_body, blob, c);
      }
    }
    report.tables = persisted;
    dir.u32(persisted);
    dir.bytes(tables_body.buffer().data(), tables_body.size());
    sections.push_back({kTables, dir.take()});
    sections.push_back({kTablePayload, std::move(blob)});
  }

  // kLayerInfo (prepended): name, hierarchy fingerprint, core count,
  // absorbed journal sequence.
  {
    Encoder e;
    e.str(layer.name());
    e.u32(hierarchy_fingerprint(layer));
    e.u64(report.cores);
    e.u64(journal_seq);
    sections.insert(sections.begin(), {kLayerInfo, e.take()});
  }

  // Layout & assembly.
  const std::size_t dir_bytes = kHeaderBytes + sections.size() * kDirEntryBytes;
  std::vector<DirEntry> directory(sections.size());
  std::size_t offset = align_up(dir_bytes);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    directory[i].tag = sections[i].tag;
    directory[i].offset = offset;
    directory[i].length = sections[i].payload.size();
    directory[i].crc = crc32(sections[i].payload);
    offset = align_up(offset + sections[i].payload.size());
  }
  // The file ends exactly after the last payload (no trailing pad).
  const std::size_t file_bytes =
      directory.empty() ? dir_bytes
                        : static_cast<std::size_t>(directory.back().offset +
                                                   directory.back().length);

  std::string file;
  file.reserve(file_bytes);
  file.append(kMagic, sizeof(kMagic));
  const auto put32 = [&file](std::uint32_t v) {
    char raw[4];
    std::memcpy(raw, &v, 4);
    file.append(raw, 4);
  };
  const auto put64 = [&file](std::uint64_t v) {
    char raw[8];
    std::memcpy(raw, &v, 8);
    file.append(raw, 8);
  };
  put32(kVersion);
  put32(static_cast<std::uint32_t>(sections.size()));
  put64(file_bytes);
  put32(0);  // header CRC, patched below
  put32(0);  // pad to 32
  for (const DirEntry& entry : directory) {
    put32(entry.tag);
    put32(entry.flags);
    put64(entry.offset);
    put64(entry.length);
    put32(entry.crc);
    put32(0);
  }
  const std::uint32_t header_crc = crc32(file);
  std::memcpy(file.data() + 24, &header_crc, 4);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    file.resize(directory[i].offset, '\0');
    file.append(sections[i].payload);
    sections[i].payload.clear();
    sections[i].payload.shrink_to_fit();
  }

  // Atomic publication.
  const std::string tmp = cat(path, ".tmp");
  DSLAYER_FAILPOINT("storage.snapshot.write");
  File out = File::create_truncate(tmp);
  out.write_all(file);
  DSLAYER_FAILPOINT("storage.snapshot.sync");
  out.sync();
  out.close();
  DSLAYER_FAILPOINT("storage.snapshot.rename");
  rename_into_place(tmp, path);

  report.bytes = file.size();
  counters().snapshot_writes.add();
  counters().snapshot_bytes.set(file.size());
  return report;
}

SnapshotLoadReport load_snapshot(dsl::DesignSpaceLayer& layer, const std::string& path,
                                 const SnapshotLoadOptions& options,
                                 dsl::DesignSpaceLayer::RetiredCatalog* retired) {
  SnapshotLoadReport report;
  auto mark = std::chrono::steady_clock::now();
  const auto lap = [&mark] {
    const auto now = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(now - mark).count();
    mark = now;
    return ms;
  };
  ParsedFile file = parse_file(path, options.verify_payloads);
  report.phases.open_ms = lap();

  // Everything up to the clear_catalog() below only reads the file: a
  // snapshot that fails any check leaves the live catalog untouched.

  // kLayerInfo: refuse to load against a different layer build.
  std::uint64_t expected_cores = 0;
  {
    Decoder d(file.section(kLayerInfo));
    const std::string_view name = d.str();
    if (name != layer.name()) {
      throw StorageError(cat("snapshot '", path, "': layer name '", std::string(name),
                             "' does not match '", layer.name(), "'"));
    }
    const std::uint32_t fingerprint = d.u32();
    const std::uint32_t live = hierarchy_fingerprint(layer);
    if (fingerprint != live) {
      throw StorageError(cat("snapshot '", path,
                             "': hierarchy fingerprint mismatch — the snapshot was taken "
                             "against a different layer build (snapshot ",
                             fingerprint, ", live ", live, ")"));
    }
    expected_cores = d.u64();
    report.journal_seq = d.u64();
  }

  const auto remap = std::make_shared<const SymbolRemap>(build_remap(file.section(kSymbols)));
  report.symbol_identity = remap->identity;

  // kCdoPaths -> live Cdo pointers.
  std::vector<const dsl::Cdo*> cdos;
  {
    Decoder d(file.section(kCdoPaths));
    const std::uint64_t count = d.u64();
    cdos.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::string path_text(d.str());
      const dsl::Cdo* cdo = layer.space().find(path_text);
      if (cdo == nullptr) {
        throw StorageError(cat("snapshot '", path, "': unknown CDO path '", path_text, "'"));
      }
      cdos.push_back(cdo);
    }
  }

  report.phases.symbols_ms = lap();

  // kCores: one validating walk; the cores stay in the file until read.
  const std::string_view cores_section = file.section(kCores);
  std::vector<WalkedLibrary> libraries = walk_cores(cores_section, *remap, cdos.size(), path);
  std::vector<std::uint64_t> indexed_at(cdos.size(), 0);  // cores per cdo id
  for (const WalkedLibrary& library : libraries) {
    report.cores += library.records.size();
    for (const std::uint32_t cdo_id : library.cdo_ids) {
      if (cdo_id != kNoCdo) ++indexed_at[cdo_id];
    }
  }
  if (report.cores != expected_cores) {
    throw StorageError(cat("snapshot '", path, "': core count mismatch (directory says ",
                           expected_cores, ", decoded ", report.cores, ")"));
  }
  // The walk touched every page of the section; first reads fault back in
  // only the records they decode.
  file.mapping->drop_pages(cores_section);
  report.phases.cores_ms = lap();

  // kConstraints: decoded and built here, added after the clear.
  std::vector<dsl::ConsistencyConstraint> constraints;
  {
    const std::string_view section = file.section(kConstraints, /*required=*/false);
    if (!section.empty()) {
      Decoder d(section);
      const std::uint32_t count = d.u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        CatalogRecord record = decode_record(d.str());
        if (record.kind != CatalogRecord::Kind::kAddConstraint) {
          throw StorageError(cat("snapshot '", path, "': non-constraint record in kConstraints"));
        }
        // Idempotent: a reload's layer still carries its constraints
        // (clear_catalog() leaves them alone).
        if (!layer_has_constraint(layer, record.id)) {
          constraints.push_back(constraint_from_record(record));
        }
        report.constraint_records.push_back(std::move(record));
      }
    }
  }

  // kTables: decode the persisted filter plans, aliasing payloads in place.
  std::vector<PendingTable> tables;
  {
    const std::string_view payload = file.section(kTablePayload);
    Decoder d(file.section(kTables));
    const std::uint32_t count = d.u32();
    const auto take_chunk = [&](std::uint64_t off, std::uint64_t bytes) {
      if (off + bytes > payload.size()) {
        throw StorageError(cat("snapshot '", path, "': table payload out of range"));
      }
      return payload.data() + off;
    };
    for (std::uint32_t t = 0; t < count; ++t) {
      const std::uint32_t cdo_id = d.u32();
      if (cdo_id >= cdos.size()) {
        throw StorageError(cat("snapshot '", path, "': table cdo id out of range"));
      }
      PendingTable& table = tables.emplace_back();
      table.cdo = cdos[cdo_id];
      const std::uint64_t rows = d.u64();
      const std::uint64_t words = (rows + 63) / 64;
      const std::uint64_t padded = words * 64;
      const std::uint32_t binding_count = d.u32();
      const std::uint32_t metric_count = d.u32();

      // Row identity: the table was built over cores_under(cdo) at write
      // time, which restore_index() reproduces from the walked cdo ids.
      std::uint64_t under = 0;
      for (std::size_t id = 0; id < cdos.size(); ++id) {
        for (const dsl::Cdo* at = cdos[id]; at != nullptr; at = at->parent()) {
          if (at == table.cdo) {
            under += indexed_at[id];
            break;
          }
        }
      }
      if (under != rows) {
        throw StorageError(cat("snapshot '", path, "': table row count mismatch for '",
                               table.cdo->path(), "' (table ", rows, ", index ", under, ")"));
      }

      const auto decode_columns = [&](std::uint32_t column_count) {
        std::vector<dsl::CoreTable::Column> columns;
        columns.reserve(column_count);
        for (std::uint32_t i = 0; i < column_count; ++i) {
          dsl::CoreTable::Column column;
          column.symbol = (*remap)(d.u32());
          column.kind = static_cast<dsl::CoreTable::ColumnKind>(d.u8());
          const std::uint64_t present_off = d.u64();
          const std::uint64_t present_bytes = d.u64();
          const std::uint64_t data_off = d.u64();
          const std::uint64_t data_bytes = d.u64();
          if (present_bytes != words * sizeof(std::uint64_t)) {
            throw StorageError(cat("snapshot '", path, "': presence bitmap size mismatch"));
          }
          column.present.alias(
              reinterpret_cast<const std::uint64_t*>(take_chunk(present_off, present_bytes)),
              words);
          if (column.kind == dsl::CoreTable::ColumnKind::kNumber) {
            if (data_bytes != padded * sizeof(double)) {
              throw StorageError(cat("snapshot '", path, "': number column size mismatch"));
            }
            column.numbers.alias(
                reinterpret_cast<const double*>(take_chunk(data_off, data_bytes)), padded);
          } else if (column.kind == dsl::CoreTable::ColumnKind::kText) {
            if (data_bytes != padded * sizeof(support::Symbol)) {
              throw StorageError(cat("snapshot '", path, "': text column size mismatch"));
            }
            const auto* raw =
                reinterpret_cast<const support::Symbol*>(take_chunk(data_off, data_bytes));
            if (remap->identity) {
              column.texts.alias(raw, padded);
            } else {
              // A different intern order: rewrite through the remap into
              // an owned buffer (correctness path; the identity alias is
              // the common case).
              std::vector<support::Symbol> rewritten(padded);
              for (std::uint64_t r = 0; r < padded; ++r) rewritten[r] = (*remap)(raw[r]);
              column.texts = std::move(rewritten);
            }
          } else {
            throw StorageError(cat("snapshot '", path, "': unexpected mixed column"));
          }
          report.aliased_bytes += present_bytes;
          if (column.kind != dsl::CoreTable::ColumnKind::kText || remap->identity) {
            report.aliased_bytes += data_bytes;
          }
          columns.push_back(std::move(column));
        }
        return columns;
      };
      table.binding_columns = decode_columns(binding_count);
      table.metric_columns = decode_columns(metric_count);
    }
  }
  double tables_ms = lap();

  // First mutation: swap the catalog for unfilled slots over the walked
  // records, and restore the index they were written with.
  dsl::DesignSpaceLayer::RetiredCatalog replaced = layer.clear_catalog();
  std::vector<std::pair<const dsl::Core*, const dsl::Cdo*>> assignments;
  assignments.reserve(expected_cores);
  for (WalkedLibrary& walked : libraries) {
    dsl::ReuseLibrary& library = layer.add_library(std::move(walked.name));
    const std::span<const dsl::Core> slots = library.restore(
        std::make_shared<SnapshotCores>(file.mapping, cores_section, remap), walked.records);
    for (std::size_t c = 0; c < slots.size(); ++c) {
      if (walked.cdo_ids[c] != kNoCdo) assignments.emplace_back(&slots[c], cdos[walked.cdo_ids[c]]);
    }
  }
  layer.restore_index(assignments);
  report.phases.index_ms = lap();

  // Constraints BEFORE the tables: add_constraint() drops every plan.
  for (dsl::ConsistencyConstraint& cc : constraints) layer.add_constraint(std::move(cc));
  for (PendingTable& table : tables) {
    layer.install_filter_plan(
        *table.cdo, dsl::CoreTable(layer.cores_under(*table.cdo), std::move(table.binding_columns),
                                   std::move(table.metric_columns), file.mapping));
    ++report.tables;
  }
  report.phases.tables_ms = tables_ms + lap();
  counters().snapshot_loads.add();
  if (retired != nullptr) *retired = std::move(replaced);
  return report;
}

}  // namespace dslayer::storage
