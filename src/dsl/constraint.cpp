#include "dsl/constraint.hpp"

#include <sstream>

#include "dsl/cdo.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::dsl {

std::string to_string(RelationKind k) {
  switch (k) {
    case RelationKind::kInconsistentOptions: return "InconsistentOptions";
    case RelationKind::kFormula: return "Formula";
    case RelationKind::kEstimatorBinding: return "EstimatorBinding";
    case RelationKind::kDominanceElimination: return "DominanceElimination";
  }
  return "?";
}

Value get_or_empty(const Bindings& bindings, const std::string& property) {
  const auto it = bindings.find(property);
  return it == bindings.end() ? Value{} : it->second;
}

bool compare_numbers(double lhs, PredicateAtom::Cmp cmp, double rhs) {
  switch (cmp) {
    case PredicateAtom::Cmp::kEq: return lhs == rhs;
    case PredicateAtom::Cmp::kNe: return lhs != rhs;
    case PredicateAtom::Cmp::kLt: return lhs < rhs;
    case PredicateAtom::Cmp::kLe: return lhs <= rhs;
    case PredicateAtom::Cmp::kGt: return lhs > rhs;
    case PredicateAtom::Cmp::kGe: return lhs >= rhs;
  }
  return false;
}

PredicateAtom PredicateAtom::equals(std::string property, Value constant) {
  PredicateAtom a;
  a.lhs = std::move(property);
  a.cmp = Cmp::kEq;
  a.rhs_const = std::move(constant);
  return a;
}

PredicateAtom PredicateAtom::not_equals(std::string property, Value constant) {
  PredicateAtom a = equals(std::move(property), std::move(constant));
  a.cmp = Cmp::kNe;
  return a;
}

PredicateAtom PredicateAtom::compares(std::string property, Cmp cmp, double constant) {
  PredicateAtom a;
  a.lhs = std::move(property);
  a.cmp = cmp;
  a.rhs_const = Value::number(constant);
  return a;
}

PredicateAtom PredicateAtom::product(std::string a, std::string b, Cmp cmp,
                                     std::string rhs_property) {
  PredicateAtom atom;
  atom.lhs = std::move(a);
  atom.lhs_factor = std::move(b);
  atom.cmp = cmp;
  atom.rhs_property = std::move(rhs_property);
  return atom;
}

bool PredicateAtom::holds(const Bindings& bindings) const {
  const Value lhs_value = get_or_empty(bindings, lhs);
  const Value rhs_value = rhs_property.empty() ? rhs_const : get_or_empty(bindings, rhs_property);
  if (!lhs_factor.empty()) {
    const Value factor = get_or_empty(bindings, lhs_factor);
    if (lhs_value.kind() != Value::Kind::kNumber || factor.kind() != Value::Kind::kNumber ||
        rhs_value.kind() != Value::Kind::kNumber) {
      return false;
    }
    return compare_numbers(lhs_value.as_number() * factor.as_number(), cmp, rhs_value.as_number());
  }
  if (lhs_value.kind() == Value::Kind::kNumber && rhs_value.kind() == Value::Kind::kNumber) {
    return compare_numbers(lhs_value.as_number(), cmp, rhs_value.as_number());
  }
  if (lhs_value.kind() == Value::Kind::kText && rhs_value.kind() == Value::Kind::kText) {
    if (cmp == Cmp::kEq) return lhs_value.as_text() == rhs_value.as_text();
    if (cmp == Cmp::kNe) return lhs_value.as_text() != rhs_value.as_text();
    return false;
  }
  if (lhs_value.kind() == Value::Kind::kFlag && rhs_value.kind() == Value::Kind::kFlag) {
    if (cmp == Cmp::kEq) return lhs_value.as_flag() == rhs_value.as_flag();
    if (cmp == Cmp::kNe) return lhs_value.as_flag() != rhs_value.as_flag();
    return false;
  }
  return false;  // kind mismatch / missing value / unordered kinds
}

namespace {

void check_common(const std::string& id, const std::vector<PropertyPath>& dependent) {
  if (id.empty()) throw DefinitionError("consistency constraint needs an id");
  if (dependent.empty()) {
    throw DefinitionError(cat("constraint '", id, "' needs a non-empty dependent set"));
  }
}

}  // namespace

ConsistencyConstraint ConsistencyConstraint::inconsistent_when(std::string id, std::string doc,
                                                               std::vector<PropertyPath> independent,
                                                               std::vector<PropertyPath> dependent,
                                                               std::vector<PredicateAtom> atoms) {
  check_common(id, dependent);
  DSLAYER_REQUIRE(!atoms.empty(), "predicate needs at least one atom");
  ConsistencyConstraint cc;
  cc.id_ = std::move(id);
  cc.doc_ = std::move(doc);
  cc.kind_ = RelationKind::kInconsistentOptions;
  cc.independent_ = std::move(independent);
  cc.dependent_ = std::move(dependent);
  cc.atoms_ = std::move(atoms);
  return cc;
}

ConsistencyConstraint ConsistencyConstraint::dominance_when(std::string id, std::string doc,
                                                            std::vector<PropertyPath> independent,
                                                            std::vector<PropertyPath> dependent,
                                                            std::vector<PredicateAtom> atoms) {
  ConsistencyConstraint cc = inconsistent_when(std::move(id), std::move(doc),
                                               std::move(independent), std::move(dependent),
                                               std::move(atoms));
  cc.kind_ = RelationKind::kDominanceElimination;
  return cc;
}

ConsistencyConstraint ConsistencyConstraint::formula(std::string id, std::string doc,
                                                     std::vector<PropertyPath> independent,
                                                     PropertyPath dependent,
                                                     std::function<Value(const Bindings&)> compute) {
  check_common(id, {dependent});
  DSLAYER_REQUIRE(compute != nullptr, "formula must not be null");
  ConsistencyConstraint cc;
  cc.id_ = std::move(id);
  cc.doc_ = std::move(doc);
  cc.kind_ = RelationKind::kFormula;
  cc.independent_ = std::move(independent);
  cc.dependent_ = {std::move(dependent)};
  cc.compute_ = std::move(compute);
  return cc;
}

ConsistencyConstraint ConsistencyConstraint::estimator(std::string id, std::string doc,
                                                       std::vector<PropertyPath> independent,
                                                       PropertyPath dependent,
                                                       std::string estimator_name) {
  check_common(id, {dependent});
  if (estimator_name.empty()) {
    throw DefinitionError(cat("constraint '", id, "' needs an estimator tool name"));
  }
  ConsistencyConstraint cc;
  cc.id_ = std::move(id);
  cc.doc_ = std::move(doc);
  cc.kind_ = RelationKind::kEstimatorBinding;
  cc.independent_ = std::move(independent);
  cc.dependent_ = {std::move(dependent)};
  cc.estimator_name_ = std::move(estimator_name);
  return cc;
}

bool ConsistencyConstraint::applies_at(const Cdo& cdo) const {
  for (const PropertyPath& dep : dependent_) {
    bool matched = false;
    for (const Cdo* c = &cdo; c != nullptr && !matched; c = c->parent()) {
      matched = dep.matches(c->path());
    }
    if (!matched) return false;
  }
  return true;
}

bool ConsistencyConstraint::depends_on(const std::string& property) const {
  for (const PropertyPath& p : independent_) {
    if (p.property() == property) return true;
  }
  return false;
}

bool ConsistencyConstraint::constrains(const std::string& property) const {
  for (const PropertyPath& p : dependent_) {
    if (p.property() == property) return true;
  }
  return false;
}

bool ConsistencyConstraint::independents_bound(const Bindings& bindings) const {
  for (const PropertyPath& p : independent_) {
    if (get_or_empty(bindings, p.property()).empty()) return false;
  }
  return true;
}

bool ConsistencyConstraint::violated(const Bindings& bindings) const {
  DSLAYER_REQUIRE(kind_ == RelationKind::kInconsistentOptions ||
                      kind_ == RelationKind::kDominanceElimination,
                  "violated() is only defined for predicate relations");
  evaluations_.add(1);
  if (!independents_bound(bindings)) return false;
  for (const PropertyPath& p : dependent_) {
    if (get_or_empty(bindings, p.property()).empty()) return false;
  }
  for (const PredicateAtom& atom : atoms_) {
    if (!atom.holds(bindings)) return false;
  }
  return true;
}

Value ConsistencyConstraint::evaluate(const Bindings& bindings) const {
  DSLAYER_REQUIRE(kind_ == RelationKind::kFormula, "evaluate() is only defined for formulas");
  if (!independents_bound(bindings)) {
    throw ExplorationError(cat("constraint ", id_,
                               ": independent set not fully addressed yet"));
  }
  evaluations_.add(1);
  return compute_(bindings);
}

std::string ConsistencyConstraint::describe() const {
  std::ostringstream os;
  os << id_ << ": " << doc_ << "\n  Indep_Set={";
  for (std::size_t i = 0; i < independent_.size(); ++i) {
    os << (i ? ", " : "") << independent_[i].to_string();
  }
  os << "}\n  Dep_Set={";
  for (std::size_t i = 0; i < dependent_.size(); ++i) {
    os << (i ? ", " : "") << dependent_[i].to_string();
  }
  os << "}\n  Relation: " << to_string(kind_);
  if (kind_ == RelationKind::kEstimatorBinding) os << "(" << estimator_name_ << ")";
  os << "\n";
  return os.str();
}

}  // namespace dslayer::dsl
