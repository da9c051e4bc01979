// The design space layer.
//
// Ties together everything Fig. 1 shows: the CDO hierarchy (the implicit
// design-space representation), any number of reuse libraries indexed
// through it, the consistency constraints governing exploration, the early
// estimation tools CCs may bind, and the domain-specific hooks (core
// compliance filters, estimation context construction).
//
// Core indexing (Section 4): a core enters at the CDO named by its class
// path and descends the generalization hierarchy as far as its bindings
// answer the generalized issues — ending at the most specific family of
// design alternatives it belongs to. Cores whose class path or option
// bindings do not resolve are reported, not silently dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dsl/cdo.hpp"
#include "dsl/constraint.hpp"
#include "dsl/core_library.hpp"
#include "dsl/core_table.hpp"
#include "dsl/query_stats.hpp"
#include "estimation/estimators.hpp"
#include "support/symbol.hpp"

namespace dslayer::dsl {

/// Per-CDO constraint adjacency, built once and reused by every query that
/// used to rescan the full constraint list: the constraints in scope, the
/// predicate subset (InconsistentOptions/DominanceElimination — the only
/// kinds candidates() evaluates), and property-name lookups for both sides
/// of the dependency relation.
struct ConstraintIndex {
  std::vector<const ConsistencyConstraint*> all;
  std::vector<const ConsistencyConstraint*> predicates;
  /// Adjacency keyed by interned property symbol (PropertyPath interns at
  /// construction, so building the index never touches the string table).
  std::map<support::Symbol, std::vector<const ConsistencyConstraint*>> by_dependent;
  std::map<support::Symbol, std::vector<const ConsistencyConstraint*>> by_independent;

  /// Constraints whose dependent set contains `property` (veto side).
  const std::vector<const ConsistencyConstraint*>& constraining(const std::string& property) const;
  const std::vector<const ConsistencyConstraint*>& constraining(support::Symbol property) const;

  /// Constraints whose independent set contains `property` (re-assessment
  /// side).
  const std::vector<const ConsistencyConstraint*>& depending_on(const std::string& property) const;
  const std::vector<const ConsistencyConstraint*>& depending_on(support::Symbol property) const;
};

class DesignSpaceLayer {
 public:
  /// Compliance predicate for one requirement: does `core` satisfy the
  /// requirement given the full session bindings? Registered by domain
  /// layers for rules too rich for the declarative Compliance enum (e.g.
  /// "latency of a composed multiplier at the required EOL").
  using CoreFilter = std::function<bool(const Core&, const Bindings&)>;

  /// Builds the estimation input for a behavioral description from the
  /// session bindings (maps option strings to technology models etc.).
  using ContextBuilder =
      std::function<estimation::EstimateInput(const Bindings&, const behavior::BehavioralDescription&)>;

  explicit DesignSpaceLayer(std::string name);

  const std::string& name() const { return name_; }

  DesignSpace& space() { return space_; }
  const DesignSpace& space() const { return space_; }

  // -- reuse libraries ------------------------------------------------------

  /// Creates and attaches a new (owned) reuse library.
  ReuseLibrary& add_library(std::string name);

  std::vector<const ReuseLibrary*> libraries() const;

  /// Mutable access to an attached library (IP-provider catalog updates:
  /// new cores are added and re-indexed without touching the hierarchy).
  /// nullptr if no library has that name.
  ReuseLibrary* library(const std::string& name);

  /// (Re)indexes every core of every library onto the CDO hierarchy and
  /// rebuilds the cumulative per-CDO subtree core index behind
  /// cores_under(). Returns the number of cores indexed; resolution
  /// problems are appended to index_warnings().
  std::size_t index_cores();

  /// Bulk-restores the core -> CDO assignment recorded by a snapshot
  /// (src/storage/snapshot.cpp) without re-deriving it: fills the forward
  /// and reverse indexes in the given order (which must be the
  /// index_cores() visit order — libraries in attach order, cores in add
  /// order), rebuilds the cumulative subtree index, and drops every cached
  /// filter plan so install_filter_plan() can repopulate them.
  void restore_index(const std::vector<std::pair<const Core*, const Cdo*>>& assignments);

  /// The cached filter plan for a CDO, or nullptr if none is built. Never
  /// builds — safe under the service's shared read lock (the snapshot
  /// writer runs there).
  const CoreFilterPlan* peek_filter_plan(const Cdo& cdo) const;

  /// Installs a snapshot-restored table as the CDO's filter plan (the
  /// predicate programs are compiled here against the current
  /// constraints). Replaces any cached plan.
  void install_filter_plan(const Cdo& cdo, CoreTable table) const;

  /// What clear_catalog() detached: the libraries and every index and
  /// plan built over them. Destroying a hydrated million-core catalog
  /// takes hundreds of milliseconds, so a caller holding a lock keeps
  /// this and lets it die after the lock is released.
  struct RetiredCatalog {
    std::vector<std::unique_ptr<ReuseLibrary>> libraries;
    std::map<const Cdo*, std::vector<const Core*>> index;
    std::map<const Cdo*, std::vector<const Core*>> subtree_index;
    std::map<const Cdo*, std::unique_ptr<CoreFilterPlan>> filter_plans;
  };

  /// Drops every reuse library and all core indexes; the hierarchy,
  /// constraints, estimators, and domain hooks (all code) survive. The
  /// `!restore` path reloads a snapshot into the emptied layer. Returns
  /// what was dropped (see RetiredCatalog).
  RetiredCatalog clear_catalog();

  /// Catalog size gauges: cores attached, and how many of them hold
  /// decoded data (born filled, or restored slots filled on first read).
  struct CatalogCounts {
    std::size_t cores = 0;
    std::size_t hydrated = 0;
  };
  CatalogCounts catalog_counts() const;

  /// Cores indexed exactly at this CDO.
  const std::vector<const Core*>& cores_at(const Cdo& cdo) const;

  /// Cores indexed at this CDO or any descendant (the design-space region
  /// the CDO represents). Served from the cumulative subtree index built by
  /// index_cores(); the returned reference is stable until the next
  /// index_cores() call.
  const std::vector<const Core*>& cores_under(const Cdo& cdo) const;

  const std::vector<std::string>& index_warnings() const { return index_warnings_; }

  // -- consistency constraints -----------------------------------------------

  void add_constraint(ConsistencyConstraint cc);
  const std::vector<ConsistencyConstraint>& constraints() const { return constraints_; }

  /// Constraints in scope at a CDO (the index's `all` list; the reference
  /// is stable until the next add_constraint()).
  const std::vector<const ConsistencyConstraint*>& constraints_at(const Cdo& cdo) const;

  /// Full constraint adjacency for a CDO — applicable constraints plus
  /// property-name lookups. Built lazily per CDO, invalidated by
  /// add_constraint(); new CDOs are indexed on first query.
  const ConstraintIndex& constraint_index(const Cdo& cdo) const;

  /// The columnar filter plan for a CDO: the CoreTable over
  /// cores_under(cdo) plus the compiled predicate programs (DESIGN.md
  /// §10). Built lazily, invalidated by index_cores() and
  /// add_constraint(); SharedLayer primes it before publishing an epoch.
  /// The reference is stable until the next invalidation.
  const CoreFilterPlan& filter_plan(const Cdo& cdo) const;

  /// Bumped whenever cached filter plans are dropped or replaced
  /// (index_cores, restore_index, install_filter_plan, clear_catalog,
  /// add_constraint). A session's memoized survivor mask indexes one
  /// plan's rows; it is only reused while this value is unchanged.
  std::uint64_t plan_generation() const { return plan_generation_; }

  // -- estimation --------------------------------------------------------------

  estimation::EstimatorRegistry& estimators() { return estimators_; }
  const estimation::EstimatorRegistry& estimators() const { return estimators_; }

  void set_context_builder(ContextBuilder builder);

  /// Builds the estimation input via the registered builder, or a generic
  /// default that reads EffectiveOperandLength / Radix / SliceWidth /
  /// FabricationTechnology / LayoutStyle bindings.
  estimation::EstimateInput build_context(const Bindings& bindings,
                                          const behavior::BehavioralDescription& bd) const;

  // -- behavioral decomposition (DI7) ---------------------------------------------

  /// Declares which CDO class implements operators of `kind` — the schema
  /// behind the paper's "FOR ALL Oper := OPERATORS(BD@*.Hardware)": during
  /// behavioral decomposition, each operator instance of a behavioral
  /// description recurses into the registered class (Section 5.1.6, the
  /// Adder/Multiplier CDOs of Fig. 10). Unregistered kinds are skipped.
  void set_operator_class(behavior::OpKind kind, std::string cdo_path);

  /// Registered class path for an operator kind; nullptr if none.
  const std::string* operator_class(behavior::OpKind kind) const;

  // -- requirement filters ------------------------------------------------------

  void set_core_filter(const std::string& requirement, CoreFilter filter);
  const CoreFilter* core_filter(const std::string& requirement) const;

  // -- integrity & documentation --------------------------------------------------

  /// Structural well-formedness checks: unspecialized generalized-issue
  /// options, constraint paths that match no CDO, estimator bindings to
  /// unknown tools. Returns human-readable findings (empty = clean).
  std::vector<std::string> validate() const;

  /// Renders the whole layer (hierarchy, properties, constraints,
  /// libraries) — the paper's "self-documented" claim made executable.
  std::string document() const;

  // -- observability ---------------------------------------------------------------

  /// Counters for the layer-side caches (constraint index, subtree core
  /// index): hits, misses, rebuilds. A view over the telemetry counters.
  QueryStats query_stats() const { return stats_view(telemetry_); }
  void reset_query_stats() const { telemetry_.reset_counters(); }

  /// The layer's telemetry hub: counters plus the index/plan build
  /// latency histograms.
  telemetry::Telemetry& telemetry() const { return telemetry_; }

 private:
  /// Builds (and caches) the cumulative core list of `cdo`'s subtree.
  const std::vector<const Core*>& build_subtree_index(const Cdo& cdo) const;

  std::string name_;
  DesignSpace space_;
  std::vector<std::unique_ptr<ReuseLibrary>> libraries_;
  std::vector<ConsistencyConstraint> constraints_;
  std::set<std::string> constraint_ids_;  // duplicate-id index
  estimation::EstimatorRegistry estimators_ = estimation::EstimatorRegistry::standard();
  std::map<const Cdo*, std::vector<const Core*>> index_;
  std::vector<std::string> index_warnings_;
  std::map<std::string, CoreFilter> core_filters_;
  std::map<behavior::OpKind, std::string> operator_classes_;
  ContextBuilder context_builder_;

  // Lazily filled, invalidation-aware query indexes (mutable: queries are
  // logically const). constraint_index_ is cleared by add_constraint();
  // subtree_index_ is rebuilt by index_cores() and filled on demand for
  // CDOs created after the last indexing pass.
  mutable std::map<const Cdo*, ConstraintIndex> constraint_index_;
  mutable std::map<const Cdo*, std::vector<const Core*>> subtree_index_;
  // unique_ptr: plans must stay address-stable while sessions hold the
  // reference across map growth.
  mutable std::map<const Cdo*, std::unique_ptr<CoreFilterPlan>> filter_plans_;
  mutable std::uint64_t plan_generation_ = 1;
  mutable telemetry::Telemetry telemetry_;
};

}  // namespace dslayer::dsl
