// Consistency constraints (CCs).
//
// "A single modeling construct, called consistency constraint, is used to
// express ordering and consistency relationships among properties. CCs are
// defined by an independent set of properties, a dependent set of
// properties, and a relation. The dependent set can only be addressed by
// the designer after the independent set has been addressed. Moreover,
// when the independent set is modified, the dependent set needs to be
// re-assessed." (Section 4)
//
// The relation kinds cover the four roles of Fig. 13:
//   CC1  InconsistentOptions  — combinations of values that are invalid
//                               (Montgomery requires an odd modulus);
//   CC2  Formula              — quantitative/heuristic trade-off relations
//                               (latency cycles = 2 EOL / R + 1);
//   CC3  EstimatorBinding     — the utilization context of an early
//                               estimation tool (BehaviorDelayEstimator);
//   CC4  DominanceElimination — mechanically like InconsistentOptions, but
//                               records that the eliminated combinations
//                               are merely INFERIOR, not infeasible (for
//                               EOL >= 32, non-carry-save adders in the
//                               Montgomery loop are dominated).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dsl/path.hpp"
#include "dsl/value.hpp"
#include "support/relaxed_counter.hpp"

namespace dslayer::dsl {

class Cdo;

/// Property-name -> value snapshot the relation predicates evaluate over.
using Bindings = std::map<std::string, Value>;

enum class RelationKind {
  kInconsistentOptions,
  kFormula,
  kEstimatorBinding,
  kDominanceElimination,
};

std::string to_string(RelationKind k);

/// One declarative conjunct of a predicate relation: property <cmp>
/// constant, property <cmp> property, or product (lhs * lhs_factor) <cmp>
/// right side. Every predicate constraint (CC1, CC4) is a conjunction of
/// atoms, violated when EVERY atom holds. Being data, it is compiled once
/// per index generation into the columnar filter programs of
/// dsl/core_table (DESIGN.md §10) and written to the catalog journal.
/// Semantics of holds(): numbers compare numerically; texts and flags
/// compare with ==/!= only; a kind mismatch, a missing value, or a
/// non-number in a product never holds.
struct PredicateAtom {
  enum class Cmp { kEq, kNe, kLt, kLe, kGt, kGe };

  std::string lhs;         ///< left-side property name
  std::string lhs_factor;  ///< non-empty: left side is lhs * lhs_factor
  Cmp cmp = Cmp::kEq;
  std::string rhs_property;  ///< non-empty: right side is a property
  Value rhs_const;           ///< otherwise: this constant

  static PredicateAtom equals(std::string property, Value constant);
  static PredicateAtom not_equals(std::string property, Value constant);
  static PredicateAtom compares(std::string property, Cmp cmp, double constant);
  /// (a * b) <cmp> rhs_property — the CC7-style coverage shape.
  static PredicateAtom product(std::string a, std::string b, Cmp cmp, std::string rhs_property);

  bool holds(const Bindings& bindings) const;

  friend bool operator==(const PredicateAtom&, const PredicateAtom&) = default;
};

bool compare_numbers(double lhs, PredicateAtom::Cmp cmp, double rhs);

class ConsistencyConstraint {
 public:
  /// Predicate relation (CC1): the value combinations where EVERY atom
  /// holds are ruled out. Only consulted when every referenced property
  /// has a value. A disjunction is stated as several constraints. Throws
  /// PreconditionError on an empty atom list.
  static ConsistencyConstraint inconsistent_when(std::string id, std::string doc,
                                                 std::vector<PropertyPath> independent,
                                                 std::vector<PropertyPath> dependent,
                                                 std::vector<PredicateAtom> atoms);

  /// Same mechanics, dominance rationale (CC4) — see inconsistent_when().
  static ConsistencyConstraint dominance_when(std::string id, std::string doc,
                                              std::vector<PropertyPath> independent,
                                              std::vector<PropertyPath> dependent,
                                              std::vector<PredicateAtom> atoms);

  /// Formula relation: derives the (single) dependent property's value from
  /// the independent values (CC2).
  static ConsistencyConstraint formula(std::string id, std::string doc,
                                       std::vector<PropertyPath> independent,
                                       PropertyPath dependent,
                                       std::function<Value(const Bindings&)> compute);

  /// Estimator binding: the dependent property is produced by the named
  /// estimation tool applied to the behavioral descriptions in scope (CC3).
  static ConsistencyConstraint estimator(std::string id, std::string doc,
                                         std::vector<PropertyPath> independent,
                                         PropertyPath dependent, std::string estimator_name);

  const std::string& id() const { return id_; }
  const std::string& doc() const { return doc_; }
  RelationKind kind() const { return kind_; }
  const std::vector<PropertyPath>& independent() const { return independent_; }
  const std::vector<PropertyPath>& dependent() const { return dependent_; }
  const std::string& estimator_name() const { return estimator_name_; }

  /// True if this CC is in scope at a CDO: every dependent path matches the
  /// CDO's path or an ancestor's (properties are inherited, so a CC stated
  /// at "*.Hardware" governs every hardware descendant).
  bool applies_at(const Cdo& cdo) const;

  /// True if the property appears in the independent set.
  bool depends_on(const std::string& property) const;

  /// True if the property appears in the dependent set.
  bool constrains(const std::string& property) const;

  /// Predicate evaluation (kInconsistentOptions / kDominanceElimination).
  /// Returns false unless all referenced properties are bound.
  bool violated(const Bindings& bindings) const;

  /// Formula evaluation (kFormula); requires all independents bound.
  Value evaluate(const Bindings& bindings) const;

  /// True if every independent property has a (non-empty) binding.
  bool independents_bound(const Bindings& bindings) const;

  /// The conjunction behind a predicate relation; empty for formulas and
  /// estimator bindings.
  const std::vector<PredicateAtom>& atoms() const { return atoms_; }

  /// How often this constraint's relation has been evaluated (violated()
  /// or evaluate()) since construction — the per-constraint view of
  /// QueryStats::constraint_evaluations, useful for spotting hot CCs.
  /// Atomic: the service evaluates shared-layer constraints from many
  /// reader threads at once.
  std::uint64_t evaluations() const { return evaluations_.get(); }

  /// Bulk-credits `n` columnar evaluations to evaluations() — the compiled
  /// programs never call violated(), so the engine reports the rows it
  /// examined here to keep the per-constraint counter meaningful.
  void note_bulk_evaluations(std::uint64_t n) const { evaluations_.add(n); }

  /// Renders "CC1: <doc>  Indep={...} Dep={...} Relation: <kind>".
  std::string describe() const;

 private:
  ConsistencyConstraint() = default;

  std::string id_;
  std::string doc_;
  RelationKind kind_ = RelationKind::kInconsistentOptions;
  std::vector<PropertyPath> independent_;
  std::vector<PropertyPath> dependent_;
  std::function<Value(const Bindings&)> compute_;
  std::vector<PredicateAtom> atoms_;  // non-empty iff a predicate relation
  std::string estimator_name_;
  mutable RelaxedCounter evaluations_;
};

/// Helper for relation predicates: value of `property`, or an empty Value.
Value get_or_empty(const Bindings& bindings, const std::string& property);

}  // namespace dslayer::dsl
