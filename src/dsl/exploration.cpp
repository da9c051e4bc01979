#include "dsl/exploration.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::dsl {

namespace {

using telemetry::EventKind;

/// Journal encoding of a Value: a kind tag plus a payload that replays to
/// the exact same Value ("num:" uses 17 significant digits so doubles
/// round-trip bit-exactly through strtod).
std::string encode_value(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.as_number());
      return cat("num:", buf);
    }
    case Value::Kind::kText:
      return cat("txt:", v.as_text());
    case Value::Kind::kFlag:
      return v.as_flag() ? "flag:true" : "flag:false";
    case Value::Kind::kEmpty:
      break;
  }
  return "empty";
}

Value decode_value(const std::string& encoded) {
  if (starts_with(encoded, "num:")) {
    const std::string payload = encoded.substr(4);
    char* end = nullptr;
    const double number = std::strtod(payload.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == payload.c_str()) {
      throw ExplorationError(cat("journal value '", encoded, "' is not a number"));
    }
    return Value::number(number);
  }
  if (starts_with(encoded, "txt:")) return Value::text(encoded.substr(4));
  if (encoded == "flag:true") return Value::flag(true);
  if (encoded == "flag:false") return Value::flag(false);
  throw ExplorationError(cat("journal value '", encoded, "' has no known kind tag"));
}

/// The table's metric column for `name`; nullptr when no row reports it.
const CoreTable::Column* metric_column_named(const CoreTable& table, const std::string& name) {
  const auto symbol = support::lookup_symbol(name);
  return symbol.has_value() ? table.metric_column(*symbol) : nullptr;
}

}  // namespace

ExplorationSession::ExplorationSession(const DesignSpaceLayer& layer,
                                       const std::string& class_path)
    : layer_(&layer) {
  const Cdo* cdo = layer.space().find(class_path);
  if (cdo == nullptr) {
    throw DefinitionError(cat("no CDO at path '", class_path, "'"));
  }
  root_ = cdo;
  current_ = cdo;
  // Record the generalized options already implied by the class path as
  // structural decisions (they were "made" by choosing this class).
  for (const Cdo* c = cdo; c->parent() != nullptr; c = c->parent()) {
    const Property* issue = c->parent()->generalized_issue();
    if (issue != nullptr && !c->specializing_option().empty()) {
      Entry e;
      e.value = Value::text(c->specializing_option());
      e.state = State::kSet;
      e.is_structural = true;
      entries_[issue->name] = std::move(e);
    }
  }
  log(cat("session opened at '", class_path, "'"));
  record(EventKind::kSessionOpened, root_->path());
}

const Property& ExplorationSession::require_property(const std::string& name,
                                                     PropertyKind kind) const {
  const Property* p = current_->find_property(name);
  if (p == nullptr) {
    throw ExplorationError(
        cat("no property '", name, "' visible at CDO '", current_->path(), "'"));
  }
  if (p->kind != kind) {
    throw ExplorationError(cat("property '", name, "' is a ", to_string(p->kind), ", not a ",
                               to_string(kind)));
  }
  return *p;
}

const Bindings& ExplorationSession::bindings() const {
  if (bindings_generation_ == generation_) {
    telemetry_.count(EventKind::kCacheHit);
    return bindings_cache_;
  }
  telemetry_.count(EventKind::kCacheMiss);
  telemetry::ScopedTimer timer(&telemetry_, "bindings");
  bindings_cache_ = compute_bindings();
  bindings_generation_ = generation_;
  return bindings_cache_;
}

Bindings ExplorationSession::compute_bindings() const {
  Bindings out;
  for (const auto& [name, entry] : entries_) {
    if (!entry.value.empty()) out[name] = entry.value;
  }
  // Defaults for visible properties the designer has not addressed (the
  // paper shows defaults for Radix, Number of Slices, Algorithm).
  for (const Property* p : current_->visible_properties()) {
    if (p->default_value.has_value() && !out.contains(p->name)) {
      out[p->name] = *p->default_value;
    }
  }
  return out;
}

void ExplorationSession::check_ordering(const std::string& name) const {
  const Bindings& bound = bindings();
  for (const ConsistencyConstraint* cc : layer_->constraint_index(*current_).constraining(name)) {
    for (const PropertyPath& indep : cc->independent()) {
      // Ordering is enforced between DESIGN ISSUES: a dependent issue may
      // only be decided after its independent issues. Requirement
      // independents are problem givens — when absent they simply leave
      // the relation unevaluable (unconstrained) rather than blocking the
      // decision. References that are not properties in this scope
      // (behavioral descriptions etc.) are structural context.
      const Property* ip = current_->find_property(indep.property());
      if (ip == nullptr || ip->kind != PropertyKind::kDesignIssue) continue;
      if (get_or_empty(bound, indep.property()).empty()) {
        throw ExplorationError(cat("constraint ", cc->id(), " orders '", name, "' after '",
                                   indep.property(), "' — address the independent set first (",
                                   cc->doc(), ")"));
      }
    }
  }
}

void ExplorationSession::check_consistency(const std::string& name, const Value& value) const {
  // Veto only applies when the property being set is a DEPENDENT of the
  // constraint. Changing an independent that invalidates already-made
  // decisions is allowed — the paper's model flags those decisions for
  // re-assessment instead (handled by invalidate_dependents / the conflict
  // scan in the callers).
  Bindings tentative = bindings();
  tentative[name] = value;
  for (const ConsistencyConstraint* cc : layer_->constraint_index(*current_).constraining(name)) {
    if (cc->kind() != RelationKind::kInconsistentOptions &&
        cc->kind() != RelationKind::kDominanceElimination) {
      continue;
    }
    telemetry_.count(EventKind::kConstraintEvaluated);
    if (cc->violated(tentative)) {
      const char* why = cc->kind() == RelationKind::kDominanceElimination
                            ? "eliminated as inferior"
                            : "inconsistent";
      telemetry_.count(EventKind::kOptionEliminated);
      throw ExplorationError(
          cat("constraint ", cc->id(), ": '", name, "' = ", value.to_string(), " is ", why,
              " with the current values (", cc->doc(), ")"));
    }
  }
}

void ExplorationSession::scan_conflicts(const std::string& name) {
  // After an independent changed, record which constraints are now violated
  // (their dependents have just been flagged for re-assessment).
  const Bindings& bound = bindings();
  for (const ConsistencyConstraint* cc : layer_->constraint_index(*current_).depending_on(name)) {
    if (cc->kind() != RelationKind::kInconsistentOptions &&
        cc->kind() != RelationKind::kDominanceElimination) {
      continue;
    }
    telemetry_.count(EventKind::kConstraintEvaluated);
    if (cc->violated(bound)) {
      log(cat("CONFLICT ", cc->id(), ": current values violate '", cc->doc(),
              "' — re-assess the flagged properties"));
    }
  }
}

void ExplorationSession::invalidate_dependents(const std::string& name) {
  // Transitive closure over the constraint graph: any set property whose
  // constraint depends on `name` needs re-assessment.
  std::vector<std::string> frontier{name};
  while (!frontier.empty()) {
    const std::string changed = std::move(frontier.back());
    frontier.pop_back();
    for (const ConsistencyConstraint* cc :
         layer_->constraint_index(*current_).depending_on(changed)) {
      for (const PropertyPath& dep : cc->dependent()) {
        const auto it = entries_.find(dep.property());
        if (it == entries_.end() || it->second.state != State::kSet ||
            it->second.is_structural || dep.property() == name) {
          continue;
        }
        it->second.state = State::kNeedsReassessment;
        log(cat("'", dep.property(), "' flagged for re-assessment (", cc->id(),
                ": independent '", changed, "' changed)"));
        telemetry_.count(EventKind::kReassessmentFlagged);
        frontier.push_back(dep.property());
      }
    }
  }
}

void ExplorationSession::set_requirement(const std::string& name, Value value) {
  const Property& p = require_property(name, PropertyKind::kRequirement);
  if (!p.domain.contains(value)) {
    throw ExplorationError(cat("value ", value.to_string(), " is outside the SetOfValues ",
                               p.domain.describe(), " of requirement '", name, "'"));
  }
  check_ordering(name);
  check_consistency(name, value);
  Entry& e = entries_[name];
  const bool revision = !e.value.empty();
  e.value = std::move(value);
  e.state = State::kSet;
  e.is_requirement = true;
  touch();
  log(cat(revision ? "requirement revised: " : "requirement set: ", name, " = ",
          e.value.to_string()));
  record(EventKind::kRequirementSet, name, encode_value(e.value));
  invalidate_dependents(name);
  scan_conflicts(name);
}

void ExplorationSession::decide(const std::string& name, Value value) {
  const Property& p = require_property(name, PropertyKind::kDesignIssue);
  if (!p.domain.contains(value)) {
    throw ExplorationError(cat("value ", value.to_string(), " is outside the SetOfValues ",
                               p.domain.describe(), " of design issue '", name, "'"));
  }

  if (p.generalized) {
    const Cdo* owner = current_->property_owner(name);
    if (owner != current_) {
      throw ExplorationError(cat("generalized issue '", name,
                                 "' belongs to '", owner->path(),
                                 "' and is already fixed by the session scope"));
    }
  }

  check_ordering(name);
  check_consistency(name, value);

  Entry& e = entries_[name];
  const bool revision = !e.value.empty();
  e.value = value;
  e.state = State::kSet;
  e.is_requirement = false;
  touch();
  log(cat(revision ? "decision revised: " : "decision: ", name, " = ", value.to_string()));
  record(EventKind::kDecision, name, encode_value(value));
  invalidate_dependents(name);
  scan_conflicts(name);

  if (p.generalized) {
    const Cdo* child = current_->child_for_option(value.as_text());
    if (child == nullptr) {
      throw DefinitionError(cat("option '", value.as_text(), "' of '", current_->path(),
                                "' has no specialized CDO — layer is incomplete"));
    }
    current_ = child;
    touch();
    log(cat("descended to '", current_->path(), "' (design space pruned)"));
  }
}

void ExplorationSession::retract(const std::string& name) {
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.value.empty()) {
    throw ExplorationError(cat("'", name, "' has no value to retract"));
  }
  if (it->second.is_structural) {
    throw ExplorationError(cat("'", name, "' is fixed by the session's class path"));
  }

  // If this was a generalized decision below the session root, ascend.
  const Property* p = current_->find_property(name);
  if (p != nullptr && p->generalized) {
    const Cdo* owner = current_->property_owner(name);
    if (owner != nullptr && owner->depth() < current_->depth()) {
      current_ = owner;
      log(cat("ascended to '", current_->path(), "'"));
    }
  }

  entries_.erase(it);
  log(cat("retracted: ", name));

  // Drop values for properties no longer visible from the new scope.
  for (auto iter = entries_.begin(); iter != entries_.end();) {
    if (!iter->second.is_structural && current_->find_property(iter->first) == nullptr) {
      log(cat("dropped out-of-scope value: ", iter->first));
      iter = entries_.erase(iter);
    } else {
      ++iter;
    }
  }
  touch();
  record(EventKind::kRetract, name);
  invalidate_dependents(name);
}

void ExplorationSession::reaffirm(const std::string& name) {
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.state != State::kNeedsReassessment) {
    throw ExplorationError(cat("'", name, "' is not awaiting re-assessment"));
  }
  // Re-check the kept value against the current context.
  check_consistency(name, it->second.value);
  it->second.state = State::kSet;
  touch();
  log(cat("re-affirmed: ", name, " = ", it->second.value.to_string()));
  record(EventKind::kReaffirm, name);
}

ExplorationSession::State ExplorationSession::state_of(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? State::kUnset : it->second.state;
}

std::optional<Value> ExplorationSession::value_of(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.value.empty()) return std::nullopt;
  return it->second.value;
}

std::vector<std::string> ExplorationSession::pending_reassessment() const {
  std::vector<std::string> out;
  for (const auto& [name, entry] : entries_) {
    if (entry.state == State::kNeedsReassessment) out.push_back(name);
  }
  return out;
}

std::vector<std::string> ExplorationSession::available_options(const std::string& issue) const {
  const Property& p = require_property(issue, PropertyKind::kDesignIssue);
  DSLAYER_REQUIRE(p.domain.kind() == ValueDomain::Kind::kOptions,
                  "available_options needs an enumerated design issue");
  std::vector<std::string> out;
  const auto eliminated = eliminated_options(issue);
  for (const std::string& option : p.domain.option_list()) {
    const bool gone = std::any_of(eliminated.begin(), eliminated.end(),
                                  [&option](const auto& pr) { return pr.first == option; });
    if (!gone) out.push_back(option);
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> ExplorationSession::eliminated_options(
    const std::string& issue) const {
  const Property& p = require_property(issue, PropertyKind::kDesignIssue);
  DSLAYER_REQUIRE(p.domain.kind() == ValueDomain::Kind::kOptions,
                  "eliminated_options needs an enumerated design issue");
  std::vector<std::pair<std::string, std::string>> out;
  // Mirror decide()'s veto exactly: a constraint eliminates an option only
  // when `issue` is in its DEPENDENT set. Constraints that merely depend on
  // `issue` (independent side) do not veto — decide() accepts the option and
  // flags the constraint's dependents for re-assessment instead (see
  // reassessment_flags()). Matching the independent side here used to report
  // options as eliminated that decide() would happily accept.
  telemetry::ScopedTimer timer(&telemetry_, "eliminated_options");
  Bindings tentative = bindings();
  for (const std::string& option : p.domain.option_list()) {
    tentative[issue] = Value::text(option);
    for (const ConsistencyConstraint* cc :
         layer_->constraint_index(*current_).constraining(issue)) {
      if (cc->kind() != RelationKind::kInconsistentOptions &&
          cc->kind() != RelationKind::kDominanceElimination) {
        continue;
      }
      telemetry_.count(EventKind::kConstraintEvaluated);
      if (cc->violated(tentative)) {
        telemetry_.count(EventKind::kOptionEliminated);
        out.emplace_back(option, cc->id());
        break;
      }
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> ExplorationSession::reassessment_flags(
    const std::string& issue) const {
  const Property& p = require_property(issue, PropertyKind::kDesignIssue);
  DSLAYER_REQUIRE(p.domain.kind() == ValueDomain::Kind::kOptions,
                  "reassessment_flags needs an enumerated design issue");
  std::vector<std::pair<std::string, std::string>> out;
  Bindings tentative = bindings();
  for (const std::string& option : p.domain.option_list()) {
    tentative[issue] = Value::text(option);
    for (const ConsistencyConstraint* cc :
         layer_->constraint_index(*current_).depending_on(issue)) {
      if (cc->kind() != RelationKind::kInconsistentOptions &&
          cc->kind() != RelationKind::kDominanceElimination) {
        continue;
      }
      // The dependent side already vetoes through eliminated_options();
      // only a pure independent role flags re-assessment.
      if (cc->constrains(issue)) continue;
      telemetry_.count(EventKind::kConstraintEvaluated);
      if (cc->violated(tentative)) {
        out.emplace_back(option, cc->id());
        break;
      }
    }
  }
  return out;
}

const SurvivorMask& ExplorationSession::survivors() const {
  if (sweep_.generation == generation_ && sweep_.plan_generation == layer_->plan_generation()) {
    telemetry_.count(EventKind::kCacheHit);
    return sweep_.mask;
  }
  telemetry_.count(EventKind::kCacheMiss);
  telemetry::ScopedTimer timer(&telemetry_, "candidates");
  sweep_.generation = 0;  // a throwing sweep leaves no half-updated memo
  sweep_.plan = &layer_->filter_plan(*current_);
  sweep_.mask = compute_survivors();
  sweep_.rows = {};
  sweep_.generation = generation_;
  sweep_.plan_generation = layer_->plan_generation();
  return sweep_.mask;
}

SurvivorMask ExplorationSession::compute_survivors() const {
  const Bindings& bound = bindings();

  // Translate the session state into a FilterQuery entry by entry:
  // core-filtering decisions, then requirements (a registered custom filter
  // wins over declarative compliance). entries_ iterates in name order, so
  // value-conversion errors surface in a fixed order.
  FilterQuery query;
  query.bound = &bound;
  for (const auto& [name, entry] : entries_) {
    if (entry.value.empty()) continue;
    if (!entry.is_requirement && !entry.is_structural) {
      const Property* p = current_->find_property(name);
      if (p == nullptr || p->kind != PropertyKind::kDesignIssue || !p->filters_cores) continue;
      FilterQuery::Equality eq;
      eq.symbol = support::lookup_symbol(name).value_or(support::kNoSymbol);
      eq.value = entry.value;
      query.decided.push_back(std::move(eq));
    } else if (entry.is_requirement) {
      if (const auto* filter = layer_->core_filter(name)) {
        query.custom.push_back(filter);
        continue;
      }
      const Property* p = current_->find_property(name);
      if (p == nullptr || p->compliance == Compliance::kNone) continue;
      const std::string& key = p->compliance_key.empty() ? name : p->compliance_key;
      if (p->compliance == Compliance::kCoreEquals) {
        FilterQuery::Equality eq;
        eq.symbol = support::lookup_symbol(key).value_or(support::kNoSymbol);
        eq.value = entry.value;
        query.require_equal.push_back(std::move(eq));
      } else {
        FilterQuery::MetricBound mb;
        mb.symbol = support::lookup_symbol(key).value_or(support::kNoSymbol);
        mb.at_most = p->compliance == Compliance::kCoreAtMost;
        mb.bound = entry.value.as_number();
        query.require_metric.push_back(mb);
      }
    }
  }
  return run_core_filter(*sweep_.plan, query, telemetry_);
}

const std::vector<const Core*>& ExplorationSession::candidates() const {
  const SurvivorMask& mask = survivors();
  if (sweep_.rows.size() != mask.count) {  // the view is built at most once per sweep
    const std::vector<const Core*>& cores = sweep_.plan->table.cores();
    sweep_.rows.reserve(mask.count);
    for (std::size_t w = 0; w < mask.words.size(); ++w) {
      for (std::uint64_t bits = mask.words[w]; bits != 0; bits &= bits - 1) {
        sweep_.rows.push_back(cores[(w << 6) + static_cast<std::size_t>(std::countr_zero(bits))]);
      }
    }
  }
  return sweep_.rows;
}

std::size_t ExplorationSession::candidate_count() const { return survivors().count; }

std::optional<ExplorationSession::MetricRange> ExplorationSession::metric_range(
    const std::string& metric) const {
  telemetry::ScopedTimer timer(&telemetry_, "metric_range");
  const SurvivorMask& mask = survivors();
  const CoreTable& table = sweep_.plan->table;
  const CoreTable::Column* column = metric_column_named(table, metric);
  if (column == nullptr) return std::nullopt;
  const MetricRange range = fold_metric(*column, mask, 0, table.rows());
  if (range.count == 0) return std::nullopt;
  return range;
}

std::map<std::string, ExplorationSession::MetricRange> ExplorationSession::option_ranges(
    const std::string& issue, const std::string& metric) const {
  const Property& p = require_property(issue, PropertyKind::kDesignIssue);
  DSLAYER_REQUIRE(p.domain.kind() == ValueDomain::Kind::kOptions,
                  "option_ranges needs an enumerated design issue");
  telemetry::ScopedTimer timer(&telemetry_, "option_ranges");

  const SurvivorMask& mask = survivors();
  const std::vector<std::string> options = available_options(issue);
  const CoreTable& table = sweep_.plan->table;
  const CoreTable::Column* column = metric_column_named(table, metric);

  std::map<std::string, MetricRange> result;
  if (column == nullptr) return result;  // no candidate can report it
  const auto is_open = [&options](const std::string& option) {
    return !option.empty() && std::find(options.begin(), options.end(), option) != options.end();
  };

  if (!p.generalized && !p.filters_cores) {
    // Integration parameters do not filter: every option keeps the full
    // candidate set, so one shared range serves all of them.
    const MetricRange shared = fold_metric(*column, mask, 0, table.rows());
    if (shared.count > 0) {
      for (const std::string& option : options) result[option] = shared;
    }
    return result;
  }

  if (p.generalized) {
    // Deciding a generalized option descends into the owner's child for
    // it (one child per option). The plan's rows are cores_under(current_):
    // when the owner is in scope, its own cores come first and then each
    // child's subtree as one contiguous run; when the owner is an
    // ancestor, every row lies under the one child that contains current_.
    const Cdo* owner = current_->property_owner(issue);
    if (owner != current_) {
      const Cdo* child = current_;
      while (child->parent() != owner) child = child->parent();
      if (!is_open(child->specializing_option())) return result;
      const MetricRange range = fold_metric(*column, mask, 0, table.rows());
      if (range.count > 0) result[child->specializing_option()] = range;
      return result;
    }
    std::size_t begin = layer_->cores_at(*owner).size();
    for (const Cdo* child : owner->children()) {
      const std::size_t end = begin + layer_->cores_under(*child).size();
      if (is_open(child->specializing_option())) {
        const MetricRange range = fold_metric(*column, mask, begin, end);
        if (range.count > 0) result[child->specializing_option()] = range;
      }
      begin = end;
    }
    DSLAYER_REQUIRE(begin == table.rows(), "subtree row ranges must tile the filter plan");
    return result;
  }

  // A regular filtering issue: one grouped pass over its binding column.
  const auto issue_symbol = support::lookup_symbol(issue);
  const CoreTable::Column* key = issue_symbol.has_value() ? table.binding_column(*issue_symbol)
                                                          : nullptr;
  if (key == nullptr) return result;  // no core binds the issue
  std::vector<support::Symbol> keys;
  std::vector<const std::string*> names;
  for (const std::string& option : options) {
    const auto symbol = support::lookup_symbol(option);
    if (option.empty() || !symbol.has_value()) continue;  // no core binds that text
    keys.push_back(*symbol);
    names.push_back(&option);
  }
  std::vector<MetricRange> groups;
  fold_metric_by_key(*column, *key, mask, keys, groups);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].count > 0) result[*names[i]] = groups[i];
  }
  return result;
}

std::optional<Value> ExplorationSession::derived(const std::string& property) const {
  const Bindings bound = bindings();
  for (const ConsistencyConstraint* cc : layer_->constraints_at(*current_)) {
    if (cc->kind() != RelationKind::kFormula || !cc->constrains(property)) continue;
    if (!cc->independents_bound(bound)) continue;
    return cc->evaluate(bound);
  }
  return std::nullopt;
}

std::vector<ExplorationSession::BehaviorRank> ExplorationSession::rank_behaviors(
    const std::string& dependent_property) const {
  const ConsistencyConstraint* binding_cc = nullptr;
  for (const ConsistencyConstraint* cc : layer_->constraints_at(*current_)) {
    if (cc->kind() == RelationKind::kEstimatorBinding && cc->constrains(dependent_property)) {
      binding_cc = cc;
      break;
    }
  }
  if (binding_cc == nullptr) {
    throw ExplorationError(
        cat("no estimator constraint binds '", dependent_property, "' at '", current_->path(),
            "'"));
  }
  const estimation::Estimator* tool = layer_->estimators().find(binding_cc->estimator_name());
  if (tool == nullptr) {
    throw ExplorationError(cat("estimator '", binding_cc->estimator_name(),
                               "' referenced by ", binding_cc->id(), " is not registered"));
  }
  const Bindings bound = bindings();
  std::vector<BehaviorRank> ranks;
  for (const behavior::BehavioralDescription* bd : current_->visible_behaviors()) {
    const estimation::EstimateInput input = layer_->build_context(bound, *bd);
    ranks.push_back(BehaviorRank{bd->name(), tool->estimate(input)});
  }
  std::sort(ranks.begin(), ranks.end(),
            [](const BehaviorRank& a, const BehaviorRank& b) { return a.value < b.value; });
  return ranks;
}

std::vector<ExplorationSession::OperatorSite> ExplorationSession::behavioral_decomposition()
    const {
  const auto bds = current_->visible_behaviors();
  if (bds.empty()) {
    throw ExplorationError(
        cat("no behavioral description visible at '", current_->path(), "'"));
  }
  const behavior::BehavioralDescription& bd = *bds.front();
  std::vector<OperatorSite> sites;
  for (const auto& op : bd.ops()) {
    OperatorSite site;
    site.bd_name = bd.name();
    site.op_id = op.id;
    site.kind = op.kind;
    site.line = op.line;
    site.width_bits = op.width_bits;
    if (const std::string* path = layer_->operator_class(op.kind)) site.cdo_path = *path;
    sites.push_back(std::move(site));
  }
  return sites;
}

ExplorationSession ExplorationSession::open_operator_session(const OperatorSite& site) const {
  if (site.cdo_path.empty()) {
    throw ExplorationError(cat("operator '", behavior::to_string(site.kind), "' at line ",
                               site.line, " has no registered operator class"));
  }
  ExplorationSession sub(*layer_, site.cdo_path);
  // "The expression forces the consideration of Hardware realizations for
  // those operators" — here: carry the operator's datapath width into the
  // sub-problem when the class asks for one.
  const Property* word_size = sub.current().find_property("WordSize");
  if (word_size != nullptr && word_size->kind == PropertyKind::kRequirement &&
      site.width_bits > 0) {
    sub.set_requirement("WordSize", static_cast<double>(site.width_bits));
  }
  sub.log(cat("opened by behavioral decomposition of '", site.bd_name, "' (",
              behavior::to_string(site.kind), " at line ", site.line, ")"));
  return sub;
}

void ExplorationSession::log(std::string message) { trace_.push_back(std::move(message)); }

void ExplorationSession::record(EventKind kind, std::string subject, std::string detail) {
  journal_.push_back({journal_.size() + 1, kind, std::move(subject), std::move(detail)});
  telemetry_.count(kind);
}

void ExplorationSession::export_journal(std::ostream& out) const {
  for (const telemetry::Event& event : journal()) {
    out << telemetry::to_jsonl(event) << '\n';
  }
}

std::string ExplorationSession::export_journal() const {
  std::ostringstream os;
  export_journal(os);
  return os.str();
}

ExplorationSession ExplorationSession::replay(const DesignSpaceLayer& layer,
                                              const std::string& jsonl) {
  std::optional<ExplorationSession> session;
  std::istringstream in(jsonl);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (trim(line).empty()) continue;
    const auto event = telemetry::parse_event_jsonl(line);
    if (!event.has_value()) {
      throw ExplorationError(cat("journal line ", line_no, " is not a telemetry event: ", line));
    }
    if (event->kind == EventKind::kSessionOpened) {
      if (session.has_value()) {
        throw ExplorationError(cat("journal line ", line_no,
                                   ": second SessionOpened — one journal holds one session"));
      }
      session.emplace(layer, event->subject);
      continue;
    }
    const bool mutating =
        event->kind == EventKind::kRequirementSet || event->kind == EventKind::kDecision ||
        event->kind == EventKind::kRetract || event->kind == EventKind::kReaffirm;
    if (!mutating) continue;  // observational events carry no state
    if (!session.has_value()) {
      throw ExplorationError(
          cat("journal line ", line_no, ": ", telemetry::to_string(event->kind),
              " precedes SessionOpened (journal truncated?)"));
    }
    switch (event->kind) {
      case EventKind::kRequirementSet:
        session->set_requirement(event->subject, decode_value(event->detail));
        break;
      case EventKind::kDecision:
        session->decide(event->subject, decode_value(event->detail));
        break;
      case EventKind::kRetract:
        session->retract(event->subject);
        break;
      case EventKind::kReaffirm:
        session->reaffirm(event->subject);
        break;
      default:
        break;
    }
  }
  if (!session.has_value()) {
    throw ExplorationError("journal contains no SessionOpened event");
  }
  return std::move(*session);
}

std::string ExplorationSession::report() const {
  std::ostringstream os;
  os << "Exploration of '" << root_->path() << "' (currently at '" << current_->path() << "')\n";
  os << "Values:\n";
  for (const auto& [name, entry] : entries_) {
    os << "  " << name << " = " << entry.value.to_string();
    if (entry.is_structural) os << "  [structural]";
    if (entry.is_requirement) os << "  [requirement]";
    if (entry.state == State::kNeedsReassessment) os << "  [NEEDS RE-ASSESSMENT]";
    os << "\n";
  }
  const auto& cores = candidates();
  os << "Candidate cores: " << cores.size() << "\n";
  for (const Core* core : cores) os << "  " << core->describe() << "\n";
  return os.str();
}

}  // namespace dslayer::dsl
