#include "storage/catalog_journal.hpp"

#include <algorithm>

#include "storage/codec.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/symbol.hpp"

namespace dslayer::storage {

namespace {

using dslayer::cat;

constexpr std::uint8_t kFormatVersion = 1;

void encode_atom(Encoder& e, const dsl::PredicateAtom& atom) {
  e.str(atom.lhs);
  e.str(atom.lhs_factor);
  e.u8(static_cast<std::uint8_t>(atom.cmp));
  e.str(atom.rhs_property);
  e.value(atom.rhs_const);
}

dsl::PredicateAtom decode_atom(Decoder& d) {
  dsl::PredicateAtom atom;
  atom.lhs = std::string(d.str());
  atom.lhs_factor = std::string(d.str());
  const std::uint8_t cmp = d.u8();
  if (cmp > static_cast<std::uint8_t>(dsl::PredicateAtom::Cmp::kGe)) {
    throw StorageError("journal record: bad predicate comparator");
  }
  atom.cmp = static_cast<dsl::PredicateAtom::Cmp>(cmp);
  atom.rhs_property = std::string(d.str());
  atom.rhs_const = d.value();
  return atom;
}

void encode_core(Encoder& e, const CoreRecord& core) {
  e.str(core.name);
  e.str(core.class_path);
  e.u32(static_cast<std::uint32_t>(core.bindings.size()));
  for (const auto& [name, value] : core.bindings) {
    e.str(name);
    e.value(value);
  }
  e.u32(static_cast<std::uint32_t>(core.metrics.size()));
  for (const auto& [name, value] : core.metrics) {
    e.str(name);
    e.f64(value);
  }
  e.u32(static_cast<std::uint32_t>(core.views.size()));
  for (const dsl::CoreView& view : core.views) {
    e.str(view.level);
    e.str(view.artifact);
  }
}

CoreRecord decode_core(Decoder& d) {
  CoreRecord core;
  core.name = std::string(d.str());
  core.class_path = std::string(d.str());
  const std::uint32_t bindings = d.u32();
  core.bindings.reserve(bindings);
  for (std::uint32_t i = 0; i < bindings; ++i) {
    std::string name(d.str());
    core.bindings.emplace_back(std::move(name), d.value());
  }
  const std::uint32_t metrics = d.u32();
  core.metrics.reserve(metrics);
  for (std::uint32_t i = 0; i < metrics; ++i) {
    std::string name(d.str());
    core.metrics.emplace_back(std::move(name), d.f64());
  }
  const std::uint32_t views = d.u32();
  core.views.reserve(views);
  for (std::uint32_t i = 0; i < views; ++i) {
    std::string level(d.str());
    std::string artifact(d.str());
    core.views.push_back({std::move(level), std::move(artifact)});
  }
  return core;
}

}  // namespace

CoreRecord to_record(const dsl::Core& core) {
  CoreRecord out;
  out.name = core.name();
  out.class_path = core.class_path();
  out.bindings.reserve(core.bindings().size());
  for (const dsl::CoreBinding& b : core.bindings()) out.bindings.emplace_back(*b.name, b.value);
  out.metrics.reserve(core.metrics().size());
  for (const dsl::CoreMetric& m : core.metrics()) out.metrics.emplace_back(*m.name, m.value);
  out.views = core.views();
  return out;
}

CatalogRecord CatalogRecord::add_cores(std::string library, std::vector<CoreRecord> cores) {
  CatalogRecord r;
  r.kind = Kind::kAddCores;
  r.library = std::move(library);
  r.cores = std::move(cores);
  return r;
}

CatalogRecord CatalogRecord::add_constraint(const dsl::ConsistencyConstraint& cc) {
  DSLAYER_REQUIRE(cc.kind() == dsl::RelationKind::kInconsistentOptions ||
                      cc.kind() == dsl::RelationKind::kDominanceElimination,
                  "only predicate constraints are journalable");
  CatalogRecord r;
  r.kind = Kind::kAddConstraint;
  r.id = cc.id();
  r.doc = cc.doc();
  r.dominance = cc.kind() == dsl::RelationKind::kDominanceElimination;
  for (const dsl::PropertyPath& p : cc.independent()) r.independent.push_back(p.to_string());
  for (const dsl::PropertyPath& p : cc.dependent()) r.dependent.push_back(p.to_string());
  r.atoms = cc.atoms();
  return r;
}

CatalogRecord CatalogRecord::index_cores() {
  CatalogRecord r;
  r.kind = Kind::kIndexCores;
  return r;
}

std::string encode_record(const CatalogRecord& record) {
  Encoder e;
  e.u8(kFormatVersion);
  e.u8(static_cast<std::uint8_t>(record.kind));
  switch (record.kind) {
    case CatalogRecord::Kind::kAddCores:
      e.str(record.library);
      e.u32(static_cast<std::uint32_t>(record.cores.size()));
      for (const CoreRecord& core : record.cores) encode_core(e, core);
      break;
    case CatalogRecord::Kind::kAddConstraint:
      e.str(record.id);
      e.str(record.doc);
      e.u8(record.dominance ? 1 : 0);
      e.u32(static_cast<std::uint32_t>(record.independent.size()));
      for (const std::string& p : record.independent) e.str(p);
      e.u32(static_cast<std::uint32_t>(record.dependent.size()));
      for (const std::string& p : record.dependent) e.str(p);
      e.u32(static_cast<std::uint32_t>(record.atoms.size()));
      for (const dsl::PredicateAtom& atom : record.atoms) encode_atom(e, atom);
      break;
    case CatalogRecord::Kind::kIndexCores:
      break;
  }
  return e.take();
}

CatalogRecord decode_record(std::string_view payload) {
  Decoder d(payload);
  const std::uint8_t version = d.u8();
  if (version != kFormatVersion) {
    throw StorageError(cat("journal record: unsupported version ", version));
  }
  CatalogRecord record;
  const std::uint8_t kind = d.u8();
  switch (kind) {
    case static_cast<std::uint8_t>(CatalogRecord::Kind::kAddCores): {
      record.kind = CatalogRecord::Kind::kAddCores;
      record.library = std::string(d.str());
      const std::uint32_t cores = d.u32();
      record.cores.reserve(cores);
      for (std::uint32_t i = 0; i < cores; ++i) record.cores.push_back(decode_core(d));
      break;
    }
    case static_cast<std::uint8_t>(CatalogRecord::Kind::kAddConstraint): {
      record.kind = CatalogRecord::Kind::kAddConstraint;
      record.id = std::string(d.str());
      record.doc = std::string(d.str());
      record.dominance = d.u8() != 0;
      const std::uint32_t independent = d.u32();
      record.independent.reserve(independent);
      for (std::uint32_t i = 0; i < independent; ++i) record.independent.emplace_back(d.str());
      const std::uint32_t dependent = d.u32();
      record.dependent.reserve(dependent);
      for (std::uint32_t i = 0; i < dependent; ++i) record.dependent.emplace_back(d.str());
      const std::uint32_t atoms = d.u32();
      record.atoms.reserve(atoms);
      for (std::uint32_t i = 0; i < atoms; ++i) record.atoms.push_back(decode_atom(d));
      break;
    }
    case static_cast<std::uint8_t>(CatalogRecord::Kind::kIndexCores):
      record.kind = CatalogRecord::Kind::kIndexCores;
      break;
    default:
      throw StorageError(cat("journal record: unknown kind ", kind));
  }
  if (!d.done()) {
    throw StorageError(cat("journal record: ", d.remaining(), " trailing bytes"));
  }
  return record;
}

dsl::ConsistencyConstraint constraint_from_record(const CatalogRecord& record) {
  std::vector<dsl::PropertyPath> independent;
  independent.reserve(record.independent.size());
  for (const std::string& p : record.independent) {
    independent.push_back(dsl::PropertyPath::parse(p));
  }
  std::vector<dsl::PropertyPath> dependent;
  dependent.reserve(record.dependent.size());
  for (const std::string& p : record.dependent) {
    dependent.push_back(dsl::PropertyPath::parse(p));
  }
  return record.dominance
             ? dsl::ConsistencyConstraint::dominance_when(record.id, record.doc,
                                                          std::move(independent),
                                                          std::move(dependent), record.atoms)
             : dsl::ConsistencyConstraint::inconsistent_when(record.id, record.doc,
                                                             std::move(independent),
                                                             std::move(dependent), record.atoms);
}

void apply_record(dsl::DesignSpaceLayer& layer, const CatalogRecord& record) {
  switch (record.kind) {
    case CatalogRecord::Kind::kAddCores: {
      dsl::ReuseLibrary* library = layer.library(record.library);
      if (library == nullptr) library = &layer.add_library(record.library);
      library->reserve(library->size() + record.cores.size());
      for (const CoreRecord& entry : record.cores) {
        dsl::Core core(entry.name, entry.class_path);
        std::vector<dsl::CoreBinding> bindings;
        bindings.reserve(entry.bindings.size());
        for (const auto& [name, value] : entry.bindings) {
          const support::Symbol symbol = support::intern_symbol(name);
          bindings.push_back({symbol, &support::symbol_name(symbol), value});
        }
        std::vector<dsl::CoreMetric> metrics;
        metrics.reserve(entry.metrics.size());
        for (const auto& [name, value] : entry.metrics) {
          const support::Symbol symbol = support::intern_symbol(name);
          metrics.push_back({symbol, &support::symbol_name(symbol), value});
        }
        // Records written from a live Core are already name-sorted; hand-
        // built ones (the CSV importer) may not be — adopt() requires it.
        const auto by_name = [](const auto& a, const auto& b) { return *a.name < *b.name; };
        if (!std::is_sorted(bindings.begin(), bindings.end(), by_name)) {
          std::sort(bindings.begin(), bindings.end(), by_name);
        }
        if (!std::is_sorted(metrics.begin(), metrics.end(), by_name)) {
          std::sort(metrics.begin(), metrics.end(), by_name);
        }
        core.adopt(std::move(bindings), std::move(metrics));
        for (const dsl::CoreView& view : entry.views) core.add_view(view.level, view.artifact);
        library->add(std::move(core));
      }
      break;
    }
    case CatalogRecord::Kind::kAddConstraint:
      layer.add_constraint(constraint_from_record(record));
      break;
    case CatalogRecord::Kind::kIndexCores:
      layer.index_cores();
      break;
  }
}

bool layer_has_constraint(const dsl::DesignSpaceLayer& layer, std::string_view id) {
  for (const dsl::ConsistencyConstraint& cc : layer.constraints()) {
    if (cc.id() == id) return true;
  }
  return false;
}

}  // namespace dslayer::storage
