// Logical journal records for catalog mutations.
//
// Everything that changes the DATA of a design space layer at run time —
// cores arriving from IP providers (singly or as import batches),
// predicate consistency constraints, and re-index requests — is
// expressible as a CatalogRecord: a small struct that encodes to one WAL
// frame and applies deterministically to a layer. Replaying the journal
// against the same code-defined hierarchy reproduces the catalog exactly
// (byte-identical under dsl::export_layer — the chaos test's oracle).
//
// Out of scope, deliberately: formula and estimator constraints,
// behavioral descriptions, custom core filters. They are code, not data,
// and are rebuilt by the layer factory before replay begins. Predicate
// constraints (inconsistent_when / dominance_when) are atom conjunctions,
// pure data, and journal fine.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dsl/constraint.hpp"
#include "dsl/core_library.hpp"
#include "dsl/layer.hpp"

namespace dslayer::storage {

/// One core, as data (no interned pointers — safe to decode before the
/// symbols exist). Bindings/metrics are kept in the core's name-sorted
/// order so replay can use the Core::adopt() bulk path.
struct CoreRecord {
  std::string name;
  std::string class_path;
  std::vector<std::pair<std::string, dsl::Value>> bindings;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<dsl::CoreView> views;
};

/// Snapshot of a live core into record form.
CoreRecord to_record(const dsl::Core& core);

struct CatalogRecord {
  enum class Kind : std::uint8_t {
    kAddCores = 1,       ///< library + one or more cores
    kAddConstraint = 2,  ///< declarative predicate constraint
    kIndexCores = 3,     ///< re-index request (an epoch boundary)
  };

  Kind kind = Kind::kAddCores;

  // kAddCores
  std::string library;
  std::vector<CoreRecord> cores;

  // kAddConstraint
  std::string id;
  std::string doc;
  bool dominance = false;  ///< dominance_when vs inconsistent_when
  std::vector<std::string> independent;  ///< PropertyPath::to_string() forms
  std::vector<std::string> dependent;
  std::vector<dsl::PredicateAtom> atoms;

  static CatalogRecord add_cores(std::string library, std::vector<CoreRecord> cores);
  static CatalogRecord add_constraint(const dsl::ConsistencyConstraint& cc);
  static CatalogRecord index_cores();
};

/// Binary frame payload for a record (storage/codec.hpp framing).
std::string encode_record(const CatalogRecord& record);

/// Inverse of encode_record; throws StorageError on a malformed payload.
CatalogRecord decode_record(std::string_view payload);

/// The declarative constraint a kAddConstraint record describes, built
/// without touching any layer (throws dsl errors on a malformed record).
dsl::ConsistencyConstraint constraint_from_record(const CatalogRecord& record);

/// Applies one record to a layer: kAddCores creates the library on first
/// use and bulk-adopts the cores; kAddConstraint rebuilds the declarative
/// constraint; kIndexCores runs layer.index_cores(). Throws (dsl errors
/// pass through) on semantic conflicts, e.g. a duplicate core name.
void apply_record(dsl::DesignSpaceLayer& layer, const CatalogRecord& record);

/// True if the layer already carries a constraint with this id. Replay
/// paths use it to apply kAddConstraint records idempotently: a journaled
/// constraint id was accepted by add_constraint() once, so an id match on
/// re-replay (reload, snapshot + tail) is the same constraint, and
/// clear_catalog() deliberately leaves constraints in place.
bool layer_has_constraint(const dsl::DesignSpaceLayer& layer, std::string_view id);

}  // namespace dslayer::storage
