#include "dsl/layer.hpp"

#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "tech/technology.hpp"

namespace dslayer::dsl {

namespace {
const std::vector<const Core*> kNoCores;
const std::vector<const ConsistencyConstraint*> kNoConstraints;
}  // namespace

const std::vector<const ConsistencyConstraint*>& ConstraintIndex::constraining(
    const std::string& property) const {
  const auto symbol = support::lookup_symbol(property);
  return symbol.has_value() ? constraining(*symbol) : kNoConstraints;
}

const std::vector<const ConsistencyConstraint*>& ConstraintIndex::constraining(
    support::Symbol property) const {
  const auto it = by_dependent.find(property);
  return it == by_dependent.end() ? kNoConstraints : it->second;
}

const std::vector<const ConsistencyConstraint*>& ConstraintIndex::depending_on(
    const std::string& property) const {
  const auto symbol = support::lookup_symbol(property);
  return symbol.has_value() ? depending_on(*symbol) : kNoConstraints;
}

const std::vector<const ConsistencyConstraint*>& ConstraintIndex::depending_on(
    support::Symbol property) const {
  const auto it = by_independent.find(property);
  return it == by_independent.end() ? kNoConstraints : it->second;
}

DesignSpaceLayer::DesignSpaceLayer(std::string name) : name_(std::move(name)) {
  if (name_.empty()) throw DefinitionError("design space layer needs a name");
}

ReuseLibrary& DesignSpaceLayer::add_library(std::string name) {
  for (const auto& lib : libraries_) {
    if (lib->name() == name) throw DefinitionError(cat("library '", name, "' already attached"));
  }
  libraries_.push_back(std::make_unique<ReuseLibrary>(std::move(name)));
  return *libraries_.back();
}

std::vector<const ReuseLibrary*> DesignSpaceLayer::libraries() const {
  std::vector<const ReuseLibrary*> out;
  for (const auto& lib : libraries_) out.push_back(lib.get());
  return out;
}

ReuseLibrary* DesignSpaceLayer::library(const std::string& name) {
  for (const auto& lib : libraries_) {
    if (lib->name() == name) return lib.get();
  }
  return nullptr;
}

std::size_t DesignSpaceLayer::index_cores() {
  index_.clear();
  subtree_index_.clear();
  filter_plans_.clear();  // plans snapshot the subtree core lists
  ++plan_generation_;
  index_warnings_.clear();
  std::size_t indexed = 0;
  for (const auto& lib : libraries_) {
    for (const Core* core : lib->cores()) {
      Cdo* cdo = space_.find(core->class_path());
      if (cdo == nullptr) {
        index_warnings_.push_back(cat("core '", core->name(), "' [", lib->name(),
                                      "]: class path '", core->class_path(),
                                      "' matches no CDO"));
        continue;
      }
      // Descend the generalization hierarchy as far as the core's bindings
      // answer the generalized issues.
      while (true) {
        const Property* issue = cdo->generalized_issue();
        if (issue == nullptr) break;
        const auto binding = core->binding(issue->name);
        if (!binding.has_value()) break;  // stays at this (more general) family
        if (binding->kind() != Value::Kind::kText ||
            !issue->domain.has_option(binding->as_text())) {
          index_warnings_.push_back(cat("core '", core->name(), "': binding ", issue->name, "=",
                                        binding->to_string(),
                                        " is not an option of the generalized issue"));
          break;
        }
        Cdo* child = cdo->child_for_option(binding->as_text());
        if (child == nullptr) {
          index_warnings_.push_back(cat("core '", core->name(), "': option '",
                                        binding->as_text(), "' of '", cdo->path(),
                                        "' has no specialized CDO"));
          break;
        }
        cdo = child;
      }
      index_[cdo].push_back(core);
      ++indexed;
    }
  }
  // Cumulative subtree index: one pre-order pass per root accumulates the
  // cores of every descendant, replacing the per-call subtree() walk that
  // cores_under() used to do.
  telemetry::ScopedTimer timer(&telemetry_, "index_cores");
  telemetry_.count(telemetry::EventKind::kIndexRebuild);
  for (const Cdo* root : space_.roots()) build_subtree_index(*root);
  return indexed;
}

void DesignSpaceLayer::restore_index(
    const std::vector<std::pair<const Core*, const Cdo*>>& assignments) {
  index_.clear();
  subtree_index_.clear();
  filter_plans_.clear();
  ++plan_generation_;
  index_warnings_.clear();
  // Assignments arrive in library/core order, so runs of the same CDO are
  // long (a bulk-loaded library usually indexes under one class); caching
  // the bucket skips a map walk per core.
  const Cdo* last_cdo = nullptr;
  std::vector<const Core*>* bucket = nullptr;
  for (const auto& [core, cdo] : assignments) {
    if (cdo != last_cdo) {
      bucket = &index_[cdo];
      last_cdo = cdo;
    }
    bucket->push_back(core);
  }
  for (const Cdo* root : space_.roots()) build_subtree_index(*root);
}

const CoreFilterPlan* DesignSpaceLayer::peek_filter_plan(const Cdo& cdo) const {
  const auto it = filter_plans_.find(&cdo);
  return it == filter_plans_.end() ? nullptr : it->second.get();
}

void DesignSpaceLayer::install_filter_plan(const Cdo& cdo, CoreTable table) const {
  filter_plans_[&cdo] =
      std::make_unique<CoreFilterPlan>(std::move(table), constraint_index(cdo).predicates);
  ++plan_generation_;
}

DesignSpaceLayer::RetiredCatalog DesignSpaceLayer::clear_catalog() {
  RetiredCatalog retired{std::move(libraries_), std::move(index_), std::move(subtree_index_),
                         std::move(filter_plans_)};
  libraries_.clear();
  index_.clear();
  subtree_index_.clear();
  filter_plans_.clear();
  ++plan_generation_;
  index_warnings_.clear();
  return retired;
}

DesignSpaceLayer::CatalogCounts DesignSpaceLayer::catalog_counts() const {
  CatalogCounts counts;
  for (const auto& lib : libraries_) {
    counts.cores += lib->size();
    counts.hydrated += lib->hydrated();
  }
  return counts;
}

const std::vector<const Core*>& DesignSpaceLayer::build_subtree_index(const Cdo& cdo) const {
  std::vector<const Core*> out;
  if (const auto it = index_.find(&cdo); it != index_.end()) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  for (const Cdo* child : cdo.children()) {
    const auto& sub = build_subtree_index(*child);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return subtree_index_[&cdo] = std::move(out);
}

const std::vector<const Core*>& DesignSpaceLayer::cores_at(const Cdo& cdo) const {
  const auto it = index_.find(&cdo);
  return it == index_.end() ? kNoCores : it->second;
}

const std::vector<const Core*>& DesignSpaceLayer::cores_under(const Cdo& cdo) const {
  const auto it = subtree_index_.find(&cdo);
  if (it != subtree_index_.end()) {
    telemetry_.count(telemetry::EventKind::kCacheHit);
    return it->second;
  }
  // CDO created (or queried) after the last index_cores() pass: index its
  // subtree on demand.
  telemetry_.count(telemetry::EventKind::kCacheMiss);
  telemetry_.count(telemetry::EventKind::kIndexRebuild);
  return build_subtree_index(cdo);
}

void DesignSpaceLayer::add_constraint(ConsistencyConstraint cc) {
  if (!constraint_ids_.insert(cc.id()).second) {
    throw DefinitionError(cat("constraint '", cc.id(), "' already defined"));
  }
  constraints_.push_back(std::move(cc));
  // The adjacency lists hold pointers into constraints_, so any growth
  // (reallocation) invalidates every cached index — and every filter
  // plan, whose compiled programs point at the same constraints.
  constraint_index_.clear();
  filter_plans_.clear();
  ++plan_generation_;
}

const CoreFilterPlan& DesignSpaceLayer::filter_plan(const Cdo& cdo) const {
  if (const auto it = filter_plans_.find(&cdo); it != filter_plans_.end()) {
    telemetry_.count(telemetry::EventKind::kCacheHit);
    return *it->second;
  }
  telemetry_.count(telemetry::EventKind::kCacheMiss);
  telemetry_.count(telemetry::EventKind::kIndexRebuild);
  telemetry::ScopedTimer timer(&telemetry_, "filter_plan");
  auto plan = std::make_unique<CoreFilterPlan>(cores_under(cdo), constraint_index(cdo).predicates);
  return *(filter_plans_[&cdo] = std::move(plan));
}

const std::vector<const ConsistencyConstraint*>& DesignSpaceLayer::constraints_at(
    const Cdo& cdo) const {
  return constraint_index(cdo).all;
}

const ConstraintIndex& DesignSpaceLayer::constraint_index(const Cdo& cdo) const {
  if (const auto it = constraint_index_.find(&cdo); it != constraint_index_.end()) {
    telemetry_.count(telemetry::EventKind::kCacheHit);
    return it->second;
  }
  telemetry_.count(telemetry::EventKind::kCacheMiss);
  telemetry_.count(telemetry::EventKind::kIndexRebuild);
  telemetry::ScopedTimer timer(&telemetry_, "constraint_index");
  ConstraintIndex index;
  for (const auto& cc : constraints_) {
    if (!cc.applies_at(cdo)) continue;
    index.all.push_back(&cc);
    if (cc.kind() == RelationKind::kInconsistentOptions ||
        cc.kind() == RelationKind::kDominanceElimination) {
      index.predicates.push_back(&cc);
    }
    for (const PropertyPath& dep : cc.dependent()) {
      index.by_dependent[dep.property_symbol()].push_back(&cc);
    }
    for (const PropertyPath& indep : cc.independent()) {
      index.by_independent[indep.property_symbol()].push_back(&cc);
    }
  }
  return constraint_index_[&cdo] = std::move(index);
}

void DesignSpaceLayer::set_context_builder(ContextBuilder builder) {
  context_builder_ = std::move(builder);
}

estimation::EstimateInput DesignSpaceLayer::build_context(
    const Bindings& bindings, const behavior::BehavioralDescription& bd) const {
  if (context_builder_) return context_builder_(bindings, bd);

  // Generic default: read the conventional property names.
  estimation::EstimateInput input;
  input.bd = &bd;
  const auto number_of = [&bindings](const std::string& name, double fallback) {
    const Value v = get_or_empty(bindings, name);
    return v.kind() == Value::Kind::kNumber ? v.as_number() : fallback;
  };
  input.eol_bits = static_cast<unsigned>(number_of("EffectiveOperandLength", 32.0));
  input.radix = static_cast<unsigned>(number_of("Radix", 2.0));
  input.datapath_bits =
      static_cast<unsigned>(number_of("SliceWidth", std::min(input.eol_bits, 64u)));

  tech::Process process = tech::Process::k035um;
  tech::LayoutStyle layout = tech::LayoutStyle::kStandardCell;
  const Value fab = get_or_empty(bindings, "FabricationTechnology");
  if (fab.kind() == Value::Kind::kText && fab.as_text() == to_string(tech::Process::k070um)) {
    process = tech::Process::k070um;
  }
  const Value ls = get_or_empty(bindings, "LayoutStyle");
  if (ls.kind() == Value::Kind::kText && ls.as_text() == to_string(tech::LayoutStyle::kGateArray)) {
    layout = tech::LayoutStyle::kGateArray;
  }
  input.technology = tech::technology(process, layout);
  return input;
}

void DesignSpaceLayer::set_operator_class(behavior::OpKind kind, std::string cdo_path) {
  DSLAYER_REQUIRE(!cdo_path.empty(), "operator class needs a CDO path");
  if (space_.find(cdo_path) == nullptr) {
    throw DefinitionError(cat("operator class for '", behavior::to_string(kind),
                              "' references unknown CDO '", cdo_path, "'"));
  }
  operator_classes_[kind] = std::move(cdo_path);
}

const std::string* DesignSpaceLayer::operator_class(behavior::OpKind kind) const {
  const auto it = operator_classes_.find(kind);
  return it == operator_classes_.end() ? nullptr : &it->second;
}

void DesignSpaceLayer::set_core_filter(const std::string& requirement, CoreFilter filter) {
  DSLAYER_REQUIRE(filter != nullptr, "core filter must not be null");
  core_filters_[requirement] = std::move(filter);
}

const DesignSpaceLayer::CoreFilter* DesignSpaceLayer::core_filter(
    const std::string& requirement) const {
  const auto it = core_filters_.find(requirement);
  return it == core_filters_.end() ? nullptr : &it->second;
}

std::vector<std::string> DesignSpaceLayer::validate() const {
  std::vector<std::string> findings;

  for (const Cdo* cdo : space_.all()) {
    const Property* issue = cdo->generalized_issue();
    if (issue == nullptr) continue;
    for (const std::string& option : issue->domain.option_list()) {
      if (cdo->child_for_option(option) == nullptr) {
        findings.push_back(cat("CDO '", cdo->path(), "': option '", option,
                               "' of generalized issue '", issue->name,
                               "' has no specialized CDO"));
      }
    }
  }

  for (const auto& cc : constraints_) {
    bool applies_somewhere = false;
    for (const Cdo* cdo : space_.all()) {
      if (cc.applies_at(*cdo)) {
        applies_somewhere = true;
        break;
      }
    }
    if (!applies_somewhere) {
      findings.push_back(cat("constraint '", cc.id(), "': dependent set matches no CDO"));
    }
    if (cc.kind() == RelationKind::kEstimatorBinding &&
        estimators_.find(cc.estimator_name()) == nullptr) {
      findings.push_back(cat("constraint '", cc.id(), "': estimator '", cc.estimator_name(),
                             "' is not registered"));
    }
  }

  for (const std::string& warning : index_warnings_) findings.push_back(warning);
  return findings;
}

std::string DesignSpaceLayer::document() const {
  std::ostringstream os;
  os << "Design Space Layer: " << name_ << "\n";
  os << "=== CDO hierarchy ===\n";
  for (const Cdo* root : space_.roots()) os << root->document(true);
  os << "=== Consistency constraints ===\n";
  for (const auto& cc : constraints_) os << cc.describe();
  os << "=== Estimation tools ===\n";
  for (const std::string& name : estimators_.names()) os << "  " << name << "\n";
  os << "=== Reuse libraries ===\n";
  for (const auto& lib : libraries_) {
    os << "  " << lib->name() << " (" << lib->size() << " cores)\n";
  }
  return os.str();
}

}  // namespace dslayer::dsl
