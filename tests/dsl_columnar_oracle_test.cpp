// Oracle for the candidates() engine (DESIGN.md Section 10): every query
// below runs on a session (the columnar CoreFilterPlan sweep) and is
// recomputed by a reference scan written in this file from the session's
// public state — a plain per-core loop over merged bindings, no
// telemetry. The two must agree on
//   * the candidate set, element for element (same Core pointers, same order);
//   * metric_range() and option_ranges() built on top of it, bit for bit
//     (NaN included: the columnar folds read the survivor mask and the
//     metric columns, the reference folds Core::metric() per survivor);
//   * the deterministic work counters of every cold sweep (compliance
//     checks, constraint evaluations) — the columnar sweep replays the
//     per-core early-exit totals;
//   * which queries throw, with identical error messages.
// Coverage deliberately spans every engine path: interned-text equality
// columns, numeric columns, mixed-kind (boxed) columns, missing bindings and
// metrics, declarative compliance (at-least / at-most / equals), custom
// per-core filters, compiled predicate programs (word kernels and the
// scalar patch path over mixed-kind columns), session-only property
// resolution, plan invalidation after
// index_cores() / add_constraint(), and the what-if shapes: NaN and absent
// metric cells, signed-zero ties, generalized issues at their owner and
// after descending, and integration parameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "domains/crypto.hpp"
#include "dsl/exploration.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace dslayer {
namespace {

using dsl::Bindings;
using dsl::Cdo;
using dsl::Compliance;
using dsl::ConsistencyConstraint;
using dsl::Core;
using dsl::DesignSpaceLayer;
using dsl::ExplorationSession;
using dsl::PredicateAtom;
using dsl::Property;
using dsl::PropertyPath;
using dsl::ReuseLibrary;
using dsl::Value;
using dsl::ValueDomain;
using Cmp = PredicateAtom::Cmp;

/// What the reference scan found: survivors in cores_under() order, and the
/// work a per-core scan with early exit performs.
struct Reference {
  std::vector<const Core*> survivors;
  std::uint64_t compliance_checks = 0;       ///< one per core in scope
  std::uint64_t constraint_evaluations = 0;  ///< one per predicate reached
};

/// True if `p` is a generalized issue answered by the class the session was
/// opened at: that value selects the region, it does not filter cores.
bool fixed_by_class_path(const Cdo& root, const Property& p) {
  for (const Cdo* c = &root; c->parent() != nullptr; c = c->parent()) {
    const Property* issue = c->parent()->generalized_issue();
    if (issue != nullptr && issue->name == p.name) return true;
  }
  return false;
}

/// The specification of candidates(), written as plainly as possible. For
/// every core in scope: each decided core-filtering issue must match the
/// core's binding; each requirement must pass its registered custom filter,
/// else its declarative compliance rule; then, with the core's bindings
/// written over a copy of the session's, no predicate constraint may be
/// violated. Values are visited in name order, as the session stores them,
/// so the first error comes from the same property.
Reference reference_scan(const ExplorationSession& s, const Cdo& root) {
  const DesignSpaceLayer& layer = s.layer();
  const Cdo& scope = s.current();
  const Bindings& bound = s.bindings();
  std::map<std::string, Value> values;
  for (const Property* p : scope.visible_properties()) {
    if (const auto value = s.value_of(p->name)) values.emplace(p->name, *value);
  }

  const auto complies = [&](const Core& core, Reference& r) {
    for (const auto& [name, value] : values) {
      const Property& p = *scope.find_property(name);
      if (p.kind != dsl::PropertyKind::kDesignIssue || !p.filters_cores ||
          fixed_by_class_path(root, p)) {
        continue;
      }
      if (core.binding(name) != value) return false;
    }
    for (const auto& [name, value] : values) {
      const Property& p = *scope.find_property(name);
      if (p.kind != dsl::PropertyKind::kRequirement) continue;
      if (const auto* filter = layer.core_filter(name)) {
        if (!(*filter)(core, bound)) return false;
        continue;
      }
      const std::string& key = p.compliance_key.empty() ? name : p.compliance_key;
      const auto metric = core.metric(key);
      switch (p.compliance) {
        case Compliance::kNone:
          break;
        case Compliance::kCoreEquals:
          if (core.binding(key) != value) return false;
          break;
        case Compliance::kCoreAtMost:
          if (!metric.has_value() || *metric > value.as_number()) return false;
          break;
        case Compliance::kCoreAtLeast:
          if (!metric.has_value() || *metric < value.as_number()) return false;
          break;
      }
    }
    Bindings merged = bound;
    for (const dsl::CoreBinding& b : core.bindings()) merged[*b.name] = b.value;
    for (const ConsistencyConstraint* cc : layer.constraint_index(scope).predicates) {
      ++r.constraint_evaluations;
      if (cc->violated(merged)) return false;
    }
    return true;
  };

  Reference r;
  for (const Core* core : layer.cores_under(scope)) {
    ++r.compliance_checks;
    if (complies(*core, r)) r.survivors.push_back(core);
  }
  return r;
}

using MetricRange = ExplorationSession::MetricRange;

/// The range fold, written as plainly as possible: the first value seeds
/// both ends, later ones go through std::min / std::max in survivor order.
void reference_fold(MetricRange& range, double v) {
  range.min = range.count == 0 ? v : std::min(range.min, v);
  range.max = range.count == 0 ? v : std::max(range.max, v);
  ++range.count;
}

/// metric_range() over the reference survivors: every survivor reporting
/// the metric, nullopt when none does.
std::optional<MetricRange> reference_metric_range(const std::vector<const Core*>& survivors,
                                                  const std::string& metric) {
  MetricRange range;
  for (const Core* core : survivors) {
    if (const auto v = core->metric(metric)) reference_fold(range, *v);
  }
  if (range.count == 0) return std::nullopt;
  return range;
}

/// The Section 5.1.5 what-if answer over the reference survivors: for each
/// open option of `issue`, the range of `metric` over the survivors deciding
/// that option keeps (a generalized option keeps the cores under its child
/// CDO; a non-filtering issue keeps them all). Empty ranges are omitted.
std::map<std::string, MetricRange> reference_ranges(const ExplorationSession& s,
                                                    const std::vector<const Core*>& survivors,
                                                    const std::string& issue,
                                                    const std::string& metric) {
  const Property& p = *s.current().find_property(issue);
  std::map<std::string, MetricRange> out;
  for (const std::string& option : s.available_options(issue)) {
    std::set<const Core*> region;
    if (p.generalized) {
      const Cdo* child = s.current().property_owner(issue)->child_for_option(option);
      if (child != nullptr) {
        const auto& cores = s.layer().cores_under(*child);
        region.insert(cores.begin(), cores.end());
      }
    }
    MetricRange range;
    for (const Core* core : survivors) {
      const bool kept = p.generalized      ? region.contains(core)
                        : !p.filters_cores ? true
                                           : core->binding(issue) == Value::text(option);
      const auto v = core->metric(metric);
      if (kept && v.has_value()) reference_fold(range, *v);
    }
    if (range.count > 0) out[option] = range;
  }
  return out;
}

/// Bit-for-bit equality: NaN equals the same NaN, +0 differs from -0
/// (EXPECT_DOUBLE_EQ is false on NaN and blind to the sign of zero).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_range(const MetricRange& got, const MetricRange& want, const std::string& what) {
  EXPECT_TRUE(same_bits(got.min, want.min)) << what << ": min " << got.min << " vs " << want.min;
  EXPECT_TRUE(same_bits(got.max, want.max)) << what << ": max " << got.max << " vs " << want.max;
  EXPECT_EQ(got.count, want.count) << what;
}

/// A session and the class it was opened at. Every check recomputes the
/// session's answer with the reference scan and compares.
struct Oracle {
  ExplorationSession session;
  const Cdo* root;
  std::uint64_t cold_sweeps = 0;  ///< checks whose counters were compared

  Oracle(const DesignSpaceLayer& layer, const std::string& path)
      : session(layer, path), root(&session.current()) {}

  /// Applies one action; a rejected action (ExplorationError) leaves the
  /// session as it was, and the next check compares that state.
  template <typename Fn>
  void apply(Fn&& fn) {
    try {
      fn(session);
    } catch (const ExplorationError&) {
    }
  }

  /// Sweeps the session has run (memo hits record no timing).
  std::uint64_t sweeps() const {
    const auto timings = session.telemetry().timings();
    const auto it = timings.find("candidates");
    return it == timings.end() ? 0 : it->second.count;
  }

  /// The core oracle: identical candidate vectors (pointer-for-pointer) or
  /// identical errors, and on a cold sweep identical work counters.
  void expect_candidates_agree() {
    const dsl::QueryStats before = session.query_stats();
    const std::uint64_t sweeps_before = sweeps();
    std::vector<const Core*> got;
    std::string got_error;
    bool got_threw = false;
    try {
      got = session.candidates();
    } catch (const Error& e) {
      got_threw = true;
      got_error = e.what();
    }
    const dsl::QueryStats after = session.query_stats();
    const bool cold = sweeps() != sweeps_before;

    Reference want;
    std::string want_error;
    bool want_threw = false;
    try {
      want = reference_scan(session, *root);
    } catch (const Error& e) {
      want_threw = true;
      want_error = e.what();
    }
    EXPECT_EQ(got_threw, want_threw) << got_error << want_error;
    EXPECT_EQ(got_error, want_error);
    if (got_threw || want_threw) return;
    ASSERT_EQ(got.size(), want.survivors.size());
    EXPECT_EQ(got, want.survivors);  // element-wise Core* equality
    if (!cold) return;
    ++cold_sweeps;
    EXPECT_EQ(after.compliance_checks - before.compliance_checks, want.compliance_checks);
    EXPECT_EQ(after.constraint_evaluations - before.constraint_evaluations,
              want.constraint_evaluations);
  }

  void expect_ranges_agree(const std::string& issue, const std::string& metric) {
    const auto got = session.option_ranges(issue, metric);
    const auto want =
        reference_ranges(session, reference_scan(session, *root).survivors, issue, metric);
    ASSERT_EQ(got.size(), want.size()) << issue << "/" << metric;
    for (const auto& [option, range] : got) {
      ASSERT_TRUE(want.contains(option)) << option;
      expect_same_range(range, want.at(option), issue + "=" + option + "/" + metric);
    }
  }

  void expect_range_agrees(const std::string& metric) {
    const auto got = session.metric_range(metric);
    const auto want = reference_metric_range(reference_scan(session, *root).survivors, metric);
    ASSERT_EQ(got.has_value(), want.has_value()) << metric;
    if (got.has_value()) expect_same_range(*got, *want, metric);
  }
};

// ---------------------------------------------------------------------------
// Randomized abstract library: every column kind and filter path at once.
// ---------------------------------------------------------------------------

/// A layer whose cores randomly mix kinds, drop bindings, and skip metrics —
/// the shapes the columnar presence bitmaps and kMixed columns exist for.
/// Filtering exercises declarative compliance (>=, <=, ==), a custom core
/// filter (Cert), and compiled predicates over text / number columns (D1,
/// D2) and over the mixed-kind Grade column (O1).
std::unique_ptr<DesignSpaceLayer> oracle_layer(unsigned seed, std::size_t core_count) {
  auto layer = std::make_unique<DesignSpaceLayer>("oracle");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(Property::requirement("MinScore", ValueDomain::real_range(0.0, 100.0), "")
                        .with_compliance(Compliance::kCoreAtLeast, "score"));
  node.add_property(Property::requirement("MaxCost", ValueDomain::real_range(0.0, 100.0), "")
                        .with_compliance(Compliance::kCoreAtMost, "cost"));
  node.add_property(
      Property::requirement("Coding", ValueDomain::options({"sign", "carry", "redundant"}), "")
          .with_compliance(Compliance::kCoreEquals));
  node.add_property(Property::requirement("Cert", ValueDomain::options({"gold", "silver"}), ""));
  node.add_property(Property::requirement("Mode", ValueDomain::options({"strict", "lax"}), ""));
  node.add_property(Property::design_issue("Tech", ValueDomain::options({"t1", "t2", "t3"}), ""));
  node.add_property(Property::design_issue("Width", ValueDomain::powers_of_two(), ""));
  node.add_property(Property::design_issue("Grade", ValueDomain::any(), ""));
  node.add_property(Property::design_issue("Phantom", ValueDomain::options({"on", "off"}), ""));

  // D1/D2: word-kernel ops over text and number columns.
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "D1", "t3 cannot drive wide datapaths", {PropertyPath::parse("Tech@Node")},
      {PropertyPath::parse("Width@Node")},
      {PredicateAtom::equals("Tech", Value::text("t3")),
       PredicateAtom::compares("Width", Cmp::kGe, 32.0)}));
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "D2", "strict mode rejects t1", {PropertyPath::parse("Mode@Node")},
      {PropertyPath::parse("Tech@Node")},
      {PredicateAtom::equals("Mode", Value::text("strict")),
       PredicateAtom::equals("Tech", Value::text("t1"))}));
  // O1: Grade is a mixed-kind column, so its op runs the scalar patch
  // path on every row; a text grade never compares with a number.
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "O1", "numeric grades above 5 need t2", {PropertyPath::parse("Tech@Node")},
      {PropertyPath::parse("Grade@Node")},
      {PredicateAtom::compares("Grade", Cmp::kGt, 5.0),
       PredicateAtom::not_equals("Tech", Value::text("t2"))}));
  // Custom per-core filter: gold certification demands a score of 50+.
  layer->set_core_filter("Cert", [](const Core& core, const Bindings& bindings) {
    const double floor = dsl::get_or_empty(bindings, "Cert").as_text() == "gold" ? 50.0 : 10.0;
    const auto score = core.metric("score");
    return score.has_value() && *score >= floor;
  });

  Rng rng(seed);
  ReuseLibrary& lib = layer->add_library("cores");
  const char* techs[] = {"t1", "t2", "t3"};
  const char* codings[] = {"sign", "carry", "redundant"};
  const double widths[] = {8, 16, 32, 64};
  for (std::size_t i = 0; i < core_count; ++i) {
    Core c("c" + std::to_string(i), "Node");
    if (rng.next_bool(0.9)) c.bind("Tech", Value::text(techs[rng.next_below(3)]));
    if (rng.next_bool(0.9)) c.bind("Width", Value::number(widths[rng.next_below(4)]));
    // Grade is a mixed-kind column: numbers, texts, and gaps.
    switch (rng.next_below(3)) {
      case 0: c.bind("Grade", Value::number(static_cast<double>(rng.next_below(10)))); break;
      case 1: c.bind("Grade", Value::text("g" + std::to_string(rng.next_below(4)))); break;
      default: break;  // missing
    }
    // Coding is usually text, occasionally a number (kind mismatch vs the
    // kCoreEquals requirement) and occasionally absent.
    if (rng.next_bool(0.8)) {
      c.bind("Coding", Value::text(codings[rng.next_below(3)]));
    } else if (rng.next_bool(0.4)) {
      c.bind("Coding", Value::number(1.0));
    }
    if (rng.next_bool(0.85)) c.set_metric("score", static_cast<double>(rng.next_below(100)));
    if (rng.next_bool(0.85)) c.set_metric("cost", static_cast<double>(rng.next_below(100)));
    lib.add(std::move(c));
  }
  layer->index_cores();
  return layer;
}

class ColumnarOracleFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ColumnarOracleFuzz, RandomAbstractWalkAgrees) {
  auto layer = oracle_layer(GetParam() * 104729 + 1, 400);
  Oracle oracle(*layer, "Node");
  Rng rng(GetParam() * 31 + 7);

  const char* requirements[] = {"MinScore", "MaxCost", "Coding", "Cert", "Mode"};
  const char* issues[] = {"Tech", "Width", "Grade", "Phantom"};
  for (int step = 0; step < 40; ++step) {
    switch (rng.next_below(6)) {
      case 0: {  // numeric requirement
        const char* name = rng.next_bool() ? "MinScore" : "MaxCost";
        const double value = static_cast<double>(rng.next_below(101));
        oracle.apply([&](ExplorationSession& s) { s.set_requirement(name, value); });
        break;
      }
      case 1: {  // option requirement
        const char* name = requirements[2 + rng.next_below(3)];
        const char* codings[] = {"sign", "carry", "redundant"};
        const char* certs[] = {"gold", "silver"};
        const char* modes[] = {"strict", "lax"};
        const char* value = name == std::string("Coding") ? codings[rng.next_below(3)]
                            : name == std::string("Cert") ? certs[rng.next_below(2)]
                                                          : modes[rng.next_below(2)];
        oracle.apply([&](ExplorationSession& s) { s.set_requirement(name, value); });
        break;
      }
      case 2: {  // decide an issue
        const char* name = issues[rng.next_below(4)];
        Value value = Value::text("");
        if (name == std::string("Tech")) {
          const char* techs[] = {"t1", "t2", "t3"};
          value = Value::text(techs[rng.next_below(3)]);
        } else if (name == std::string("Width")) {
          const double widths[] = {8, 16, 32, 64};
          value = Value::number(widths[rng.next_below(4)]);
        } else if (name == std::string("Grade")) {
          // any() domain: mixed kinds from the session side too
          value = rng.next_bool() ? Value::number(static_cast<double>(rng.next_below(10)))
                                  : Value::text("g" + std::to_string(rng.next_below(4)));
        } else {
          value = Value::text(rng.next_bool() ? "on" : "off");  // no core binds Phantom
        }
        oracle.apply([&](ExplorationSession& s) { s.decide(name, value); });
        break;
      }
      case 3: {  // retract something (requirement or issue)
        const char* name =
            rng.next_bool() ? requirements[rng.next_below(5)] : issues[rng.next_below(4)];
        oracle.apply([&](ExplorationSession& s) {
          if (s.value_of(name).has_value()) s.retract(name);
        });
        break;
      }
      case 4:
        oracle.expect_ranges_agree("Tech", "score");
        break;
      default: {  // only enumerated issues have option lists
        const char* issue = rng.next_bool() ? "Tech" : "Phantom";
        oracle.expect_ranges_agree(issue, "cost");
        break;
      }
    }
    oracle.expect_candidates_agree();
  }
  EXPECT_GT(oracle.cold_sweeps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Walks, ColumnarOracleFuzz, ::testing::Range(1u, 13u));

// ---------------------------------------------------------------------------
// Randomized crypto walk: the real domain layer, decide/retract chains.
// ---------------------------------------------------------------------------

class ColumnarCryptoOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(ColumnarCryptoOracle, RandomCryptoWalkAgrees) {
  auto layer = domains::build_crypto_layer();
  Rng rng(GetParam() * 7919 + 3);
  const char* roots[] = {domains::kPathOMM, domains::kPathOMMH, domains::kPathOMMHM};
  Oracle oracle(*layer, roots[rng.next_below(3)]);

  for (int step = 0; step < 50; ++step) {
    // Enumerate actions from the session's current scope.
    std::vector<const Property*> requirements;
    std::vector<const Property*> issues;
    for (const Property* p : oracle.session.current().visible_properties()) {
      if (p->kind == dsl::PropertyKind::kRequirement) requirements.push_back(p);
      if (p->kind == dsl::PropertyKind::kDesignIssue) issues.push_back(p);
    }
    const auto action = rng.next_below(10);
    if (action < 3 && !requirements.empty()) {
      const Property* p = requirements[rng.next_below(requirements.size())];
      Value value = Value::number(768.0);
      if (p->domain.kind() == ValueDomain::Kind::kOptions) {
        const auto& options = p->domain.option_list();
        value = Value::text(options[rng.next_below(options.size())]);
      } else if (p->domain.kind() == ValueDomain::Kind::kRealRange) {
        const double choices[] = {0.5, 2.0, 8.0, 100.0, 5000.0};
        value = Value::number(choices[rng.next_below(5)]);
      }
      oracle.apply([&](ExplorationSession& s) { s.set_requirement(p->name, value); });
    } else if (action < 8 && !issues.empty()) {
      const Property* p = issues[rng.next_below(issues.size())];
      if (p->domain.kind() == ValueDomain::Kind::kOptions) {
        const auto options = oracle.session.available_options(p->name);
        if (options.empty()) continue;
        const std::string option = options[rng.next_below(options.size())];
        oracle.apply([&](ExplorationSession& s) { s.decide(p->name, option); });
      } else {
        const double widths[] = {2, 4, 8, 16, 32, 64, 128};
        const double value = widths[rng.next_below(7)];
        oracle.apply([&](ExplorationSession& s) { s.decide(p->name, Value::number(value)); });
      }
    } else if (action == 8) {
      oracle.apply([](ExplorationSession& s) {
        const auto pending = s.pending_reassessment();
        if (!pending.empty()) s.reaffirm(pending.front());
      });
    } else if (!issues.empty()) {
      const Property* p = issues[rng.next_below(issues.size())];
      oracle.apply([&](ExplorationSession& s) {
        if (s.value_of(p->name).has_value()) s.retract(p->name);
      });
    }
    oracle.expect_candidates_agree();
    if (step % 10 == 0) {
      bool algorithm_visible = false;
      for (const Property* p : oracle.session.current().visible_properties()) {
        algorithm_visible |= p->name == domains::kAlgorithm;
      }
      if (algorithm_visible) {
        oracle.expect_ranges_agree(domains::kAlgorithm, domains::kMetricClockNs);
      }
    }
  }
  EXPECT_GT(oracle.cold_sweeps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Walks, ColumnarCryptoOracle, ::testing::Range(1u, 9u));

// ---------------------------------------------------------------------------
// Deterministic edge cases: kinds, gaps, session-only properties.
// ---------------------------------------------------------------------------

TEST(ColumnarOracle, MixedKindAndMissingBindingEdgeCases) {
  auto layer = std::make_unique<DesignSpaceLayer>("edges");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(Property::requirement("W", ValueDomain::any(), "")
                        .with_compliance(Compliance::kCoreEquals));
  node.add_property(Property::requirement("MinScore", ValueDomain::real_range(0.0, 100.0), "")
                        .with_compliance(Compliance::kCoreAtLeast, "score"));
  node.add_property(Property::design_issue("Phantom", ValueDomain::options({"x"}), ""));
  ReuseLibrary& lib = layer->add_library("cores");
  Core number_core("number", "Node");
  number_core.bind("W", Value::number(16.0)).set_metric("score", 80.0);
  lib.add(std::move(number_core));
  Core text_core("text", "Node");  // same column, different kind -> kMixed
  text_core.bind("W", Value::text("16")).set_metric("score", 80.0);
  lib.add(std::move(text_core));
  Core gap_core("gap", "Node");  // no W binding, no score metric
  lib.add(std::move(gap_core));
  layer->index_cores();

  {
    Oracle oracle(*layer, "Node");  // W == number(16): only the number core
    oracle.apply([](ExplorationSession& s) { s.set_requirement("W", Value::number(16.0)); });
    oracle.expect_candidates_agree();
    ASSERT_EQ(oracle.session.candidates().size(), 1u);
    EXPECT_EQ(oracle.session.candidates()[0]->name(), "number");
  }
  {
    Oracle oracle(*layer, "Node");  // W == text("16"): only the text core
    oracle.apply([](ExplorationSession& s) { s.set_requirement("W", Value::text("16")); });
    oracle.expect_candidates_agree();
    ASSERT_EQ(oracle.session.candidates().size(), 1u);
    EXPECT_EQ(oracle.session.candidates()[0]->name(), "text");
  }
  {
    Oracle oracle(*layer, "Node");  // a text no core interned: empty, not a throw
    oracle.apply([](ExplorationSession& s) {
      s.set_requirement("W", Value::text("never-bound-anywhere"));
    });
    oracle.expect_candidates_agree();
    EXPECT_TRUE(oracle.session.candidates().empty());
  }
  {
    Oracle oracle(*layer, "Node");  // missing metric fails kCoreAtLeast
    oracle.apply([](ExplorationSession& s) { s.set_requirement("MinScore", 50.0); });
    oracle.expect_candidates_agree();
    EXPECT_EQ(oracle.session.candidates().size(), 2u);
  }
  {
    Oracle oracle(*layer, "Node");  // deciding a property no core binds: empty
    oracle.apply([](ExplorationSession& s) { s.decide("Phantom", "x"); });
    oracle.expect_candidates_agree();
    EXPECT_TRUE(oracle.session.candidates().empty());
  }
}

TEST(ColumnarOracle, SessionOnlyIndependentResolvesAgainstBindings) {
  // D's independent (Mode) is a session requirement with no compliance and
  // no core binding: the compiled program must resolve it from the session
  // bindings, exactly like the reference scan's merged-bindings map.
  auto layer = std::make_unique<DesignSpaceLayer>("session-ref");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(Property::requirement("Mode", ValueDomain::options({"strict", "lax"}), ""));
  node.add_property(Property::design_issue("Tech", ValueDomain::options({"new", "old"}), ""));
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "D", "strict mode forbids old tech", {PropertyPath::parse("Mode@Node")},
      {PropertyPath::parse("Tech@Node")},
      {PredicateAtom::equals("Mode", Value::text("strict")),
       PredicateAtom::equals("Tech", Value::text("old"))}));
  ReuseLibrary& lib = layer->add_library("cores");
  for (const char* tech : {"new", "old"}) {
    Core c(std::string("core_") + tech, "Node");
    c.bind("Tech", Value::text(tech));
    lib.add(std::move(c));
  }
  layer->index_cores();

  Oracle relaxed(*layer, "Node");
  relaxed.apply([](ExplorationSession& s) { s.set_requirement("Mode", "lax"); });
  relaxed.expect_candidates_agree();
  EXPECT_EQ(relaxed.session.candidates().size(), 2u);

  Oracle strict(*layer, "Node");
  strict.apply([](ExplorationSession& s) { s.set_requirement("Mode", "strict"); });
  strict.expect_candidates_agree();
  ASSERT_EQ(strict.session.candidates().size(), 1u);
  EXPECT_EQ(strict.session.candidates()[0]->name(), "core_new");
}

// ---------------------------------------------------------------------------
// Plan invalidation: the cached CoreFilterPlan must follow the layer.
// ---------------------------------------------------------------------------

TEST(ColumnarOracle, PlanRebuiltAfterReindexAndAddConstraint) {
  auto layer = oracle_layer(7, 200);
  Oracle oracle(*layer, "Node");
  oracle.apply([](ExplorationSession& s) { s.set_requirement("MinScore", 40.0); });
  oracle.expect_candidates_agree();
  const std::size_t before = oracle.session.candidates().size();

  // A new always-compliant core enters the library; index_cores() must
  // invalidate the columnar plan so the sweep sees it.
  ReuseLibrary* lib = layer->library("cores");
  ASSERT_NE(lib, nullptr);
  Core fresh("fresh", "Node");
  fresh.bind("Tech", Value::text("t2")).bind("Width", Value::number(8.0));
  fresh.set_metric("score", 99.0).set_metric("cost", 1.0);
  lib->add(std::move(fresh));
  layer->index_cores();
  oracle.apply([](ExplorationSession& s) { s.set_requirement("MaxCost", 90.0); });
  oracle.expect_candidates_agree();
  bool found = false;
  for (const Core* core : oracle.session.candidates()) found |= core->name() == "fresh";
  EXPECT_TRUE(found);
  EXPECT_GE(oracle.session.candidates().size(), 1u);
  (void)before;

  // A constraint added later must recompile into the plan.
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "D3", "t2 banned outright", {PropertyPath::parse("Tech@Node")},
      {PropertyPath::parse("Tech@Node")}, {PredicateAtom::equals("Tech", Value::text("t2"))}));
  oracle.apply([](ExplorationSession& s) { s.set_requirement("MinScore", 41.0); });
  oracle.expect_candidates_agree();
  for (const Core* core : oracle.session.candidates()) {
    EXPECT_NE(core->binding("Tech"), Value::text("t2")) << core->name();
  }
}

// ---------------------------------------------------------------------------
// Forced-kernel parity: the same walks must agree bit for bit whether the
// word kernels run scalar or on the widest ISA the CPU supports. Shapes are
// adversarial for 64-lane blocks: row counts 0/1/63/64/65, non-lane-multiple
// tails, NaN metric and binding values, sparse presence bitmaps, and
// mixed-kind columns.
// ---------------------------------------------------------------------------

namespace simd = support::simd;

/// Param: (0 = scalar, 1 = widest supported ISA) x fuzz seed.
class ForcedKernelOracle : public ::testing::TestWithParam<std::tuple<int, unsigned>> {
 protected:
  void SetUp() override {
    const int which = std::get<0>(GetParam());
    simd::set_kernel(which == 0 ? simd::Kernel::kScalar : simd::widest_supported());
  }
  void TearDown() override { simd::reset_kernel_choice(); }
};

TEST_P(ForcedKernelOracle, AdversarialRowCountsAgree) {
  const unsigned seed = std::get<1>(GetParam());
  // 0 rows (no sweep), 1 (single-lane word), 63/64/65 (word boundary), and
  // two non-lane-multiple tails.
  for (const std::size_t count : {0u, 1u, 63u, 64u, 65u, 130u, 257u}) {
    auto layer = oracle_layer(seed * 131 + static_cast<unsigned>(count), count);
    Oracle oracle(*layer, "Node");
    oracle.apply([](ExplorationSession& s) { s.set_requirement("MinScore", 30.0); });
    oracle.expect_candidates_agree();
    oracle.apply([](ExplorationSession& s) { s.set_requirement("MaxCost", 80.0); });
    oracle.expect_candidates_agree();
    oracle.apply([](ExplorationSession& s) { s.set_requirement("Coding", "carry"); });
    oracle.expect_candidates_agree();
    oracle.apply([](ExplorationSession& s) { s.set_requirement("Mode", "strict"); });
    oracle.apply([](ExplorationSession& s) { s.set_requirement("Cert", "gold"); });
    oracle.expect_candidates_agree();
    oracle.apply([](ExplorationSession& s) { s.decide("Width", Value::number(32.0)); });
    oracle.expect_candidates_agree();
    EXPECT_GT(oracle.cold_sweeps, 0u);
  }
}

TEST_P(ForcedKernelOracle, RandomWalkAgrees) {
  const unsigned seed = std::get<1>(GetParam());
  auto layer = oracle_layer(seed * 104729 + 17, 321);  // non-multiple-of-64 rows
  Oracle oracle(*layer, "Node");
  Rng rng(seed * 59 + 11);
  for (int step = 0; step < 25; ++step) {
    switch (rng.next_below(4)) {
      case 0: {
        const char* name = rng.next_bool() ? "MinScore" : "MaxCost";
        const double value = static_cast<double>(rng.next_below(101));
        oracle.apply([&](ExplorationSession& s) { s.set_requirement(name, value); });
        break;
      }
      case 1: {
        const char* techs[] = {"t1", "t2", "t3"};
        const char* tech = techs[rng.next_below(3)];
        oracle.apply([&](ExplorationSession& s) { s.decide("Tech", tech); });
        break;
      }
      case 2: {
        const double widths[] = {8, 16, 32, 64};
        const double width = widths[rng.next_below(4)];
        oracle.apply([&](ExplorationSession& s) { s.decide("Width", Value::number(width)); });
        break;
      }
      default: {
        const char* names[] = {"MinScore", "MaxCost", "Tech", "Width"};
        const char* name = names[rng.next_below(4)];
        oracle.apply([&](ExplorationSession& s) {
          if (s.value_of(name).has_value()) s.retract(name);
        });
        break;
      }
    }
    oracle.expect_candidates_agree();
  }
  EXPECT_GT(oracle.cold_sweeps, 0u);
}

/// NaN metrics / NaN numeric bindings / near-empty presence bitmaps: the
/// shapes where vectorized compares and the scalar operators could diverge.
std::unique_ptr<DesignSpaceLayer> nan_sparse_layer(std::size_t core_count) {
  auto layer = std::make_unique<DesignSpaceLayer>("nan-sparse");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(Property::requirement("MinScore", ValueDomain::real_range(0.0, 100.0), "")
                        .with_compliance(Compliance::kCoreAtLeast, "score"));
  node.add_property(Property::requirement("MaxCost", ValueDomain::real_range(0.0, 100.0), "")
                        .with_compliance(Compliance::kCoreAtMost, "cost"));
  node.add_property(Property::design_issue("Tech", ValueDomain::options({"t1", "t2", "t3"}), ""));
  node.add_property(Property::design_issue("Width", ValueDomain::powers_of_two(), ""));
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "D1", "t3 cannot drive wide datapaths", {PropertyPath::parse("Tech@Node")},
      {PropertyPath::parse("Width@Node")},
      {PredicateAtom::equals("Tech", Value::text("t3")),
       PredicateAtom::compares("Width", Cmp::kGe, 32.0)}));
  ReuseLibrary& lib = layer->add_library("cores");
  const double nan = std::nan("");
  for (std::size_t i = 0; i < core_count; ++i) {
    Core c("c" + std::to_string(i), "Node");
    // Sparse presence: only every 9th core binds Tech, every 7th Width.
    if (i % 9 == 0) c.bind("Tech", Value::text(i % 2 == 0 ? "t3" : "t1"));
    if (i % 7 == 0) c.bind("Width", Value::number(i % 14 == 0 ? nan : 64.0));
    if (i % 5 != 0) c.set_metric("score", i % 11 == 1 ? nan : static_cast<double>(i % 100));
    if (i % 3 != 0) c.set_metric("cost", i % 13 == 2 ? nan : static_cast<double>(i % 90));
    lib.add(std::move(c));
  }
  layer->index_cores();
  return layer;
}

TEST_P(ForcedKernelOracle, NaNAndSparsePresenceAgree) {
  auto layer = nan_sparse_layer(450);
  Oracle oracle(*layer, "Node");
  // The reference scan keeps NaN metrics through both bound directions (NaN
  // compares false); the sweep must reproduce that, not "NaN fails the bound".
  oracle.apply([](ExplorationSession& s) { s.set_requirement("MinScore", 50.0); });
  oracle.expect_candidates_agree();
  bool nan_survivor = false;
  for (const Core* core : oracle.session.candidates()) {
    const auto score = core->metric("score");
    nan_survivor |= score.has_value() && std::isnan(*score);
  }
  EXPECT_TRUE(nan_survivor) << "NaN metric rows must pass bounds like the scalar operators";
  oracle.apply([](ExplorationSession& s) { s.set_requirement("MaxCost", 40.0); });
  oracle.expect_candidates_agree();
  // NaN Width bindings flow into the compiled D1 program (NaN >= 32 never
  // holds => never violated).
  oracle.apply([](ExplorationSession& s) { s.decide("Tech", "t3"); });
  oracle.expect_candidates_agree();
  EXPECT_GT(oracle.cold_sweeps, 0u);
}

/// The what-if shapes. Unit's generalized issue Style partitions the rows
/// by subtree (hw has its own generalized issue Arch; no core reaches fpga;
/// cores binding no Style stay at Unit itself). Tech is
/// a text column with gaps, Grade a kMixed column (texts, numbers, gaps),
/// Slices an integration parameter. The area metric is NaN or absent on
/// some cores, and the first core of every CDO reports NaN, so each scope
/// and each partition starts on a NaN row; clock is 0 or -0 on a third of
/// the cores, so ties decide which zero a range reports.
std::unique_ptr<DesignSpaceLayer> what_if_layer(unsigned seed, std::size_t core_count) {
  auto layer = std::make_unique<DesignSpaceLayer>("what-if");
  Cdo& unit = layer->space().add_root("Unit");
  unit.add_property(Property::generalized_issue("Style", {"hw", "sw", "fpga"}, ""));
  unit.add_property(Property::design_issue("Tech", ValueDomain::options({"t1", "t2", "t3"}), ""));
  unit.add_property(
      Property::design_issue("Grade", ValueDomain::options({"g0", "g1", "g2"}), ""));
  unit.add_property(Property::design_issue("Slices", ValueDomain::options({"s1", "s2"}), "")
                        .without_core_filtering());
  unit.add_property(Property::requirement("MaxArea", ValueDomain::real_range(0.0, 100.0), "")
                        .with_compliance(Compliance::kCoreAtMost, "area"));
  Cdo& hw = unit.specialize("hw");
  hw.add_property(Property::generalized_issue("Arch", {"a", "b"}, ""));
  hw.specialize("a");
  hw.specialize("b");
  unit.specialize("sw");
  unit.specialize("fpga");  // a subtree no core reaches: an empty row range

  Rng rng(seed);
  ReuseLibrary& lib = layer->add_library("cores");
  const char* styles[] = {"hw", "sw"};
  const char* archs[] = {"a", "b"};
  const char* techs[] = {"t1", "t2", "t3"};
  const char* grades[] = {"g0", "g1", "g2"};
  const double nan = std::nan("");
  std::set<std::string> seen_class;  // "first core of a CDO" reports NaN
  for (std::size_t i = 0; i < core_count; ++i) {
    Core c("c" + std::to_string(i), "Unit");
    std::string where = "Unit";
    if (rng.next_below(5) != 0) {
      const char* style = styles[rng.next_below(2)];
      c.bind("Style", Value::text(style));
      where = style;
      if (where == "hw" && rng.next_below(4) != 0) {
        const char* arch = archs[rng.next_below(2)];
        c.bind("Arch", Value::text(arch));
        where += arch;
      }
    }
    if (rng.next_below(6) != 0) c.bind("Tech", Value::text(techs[rng.next_below(3)]));
    switch (rng.next_below(4)) {
      case 0: c.bind("Grade", Value::number(1.0)); break;
      case 1: break;  // no Grade binding
      default: c.bind("Grade", Value::text(grades[rng.next_below(3)])); break;
    }
    if (seen_class.insert(where).second) {
      c.set_metric("area", nan);
    } else if (rng.next_below(8) == 0) {
      c.set_metric("area", nan);
    } else if (rng.next_below(8) != 0) {
      c.set_metric("area", static_cast<double>(rng.next_below(100)));
    }  // else: no area metric
    switch (rng.next_below(3)) {
      case 0: c.set_metric("clock", rng.next_bool() ? 0.0 : -0.0); break;
      case 1: c.set_metric("clock", static_cast<double>(rng.next_below(50)) + 1.0); break;
      default: break;
    }
    lib.add(std::move(c));
  }
  layer->index_cores();
  return layer;
}

/// Every what-if answer the session's scope allows, against the reference.
void expect_what_if_agrees(Oracle& oracle) {
  oracle.expect_candidates_agree();
  for (const char* metric : {"area", "clock", "no_such_metric"}) {
    oracle.expect_range_agrees(metric);
    for (const Property* p : oracle.session.current().visible_properties()) {
      if (p->kind == dsl::PropertyKind::kDesignIssue) oracle.expect_ranges_agree(p->name, metric);
    }
  }
}

TEST_P(ForcedKernelOracle, WhatIfAggregatesAgree) {
  const unsigned seed = std::get<1>(GetParam());
  for (const std::size_t count : {0u, 1u, 65u, 300u}) {
    auto layer = what_if_layer(seed * 7703 + static_cast<unsigned>(count), count);
    Oracle oracle(*layer, "Unit");
    Rng rng(seed * 37 + count);
    expect_what_if_agrees(oracle);
    for (int step = 0; step < 24; ++step) {
      switch (rng.next_below(6)) {
        case 0: {
          const char* techs[] = {"t1", "t2", "t3"};
          const char* tech = techs[rng.next_below(3)];
          oracle.apply([&](ExplorationSession& s) { s.decide("Tech", tech); });
          break;
        }
        case 1: {
          const char* grades[] = {"g0", "g1", "g2"};
          const char* grade = grades[rng.next_below(3)];
          oracle.apply([&](ExplorationSession& s) { s.decide("Grade", grade); });
          break;
        }
        case 2: {  // descend: Style at Unit, then Arch at hw
          const char* issue = oracle.session.current().generalized_issue() != nullptr
                                  ? oracle.session.current().generalized_issue()->name.c_str()
                                  : "Style";
          const auto options = oracle.session.available_options(issue);
          if (options.empty()) break;
          const std::string option = options[rng.next_below(options.size())];
          oracle.apply([&](ExplorationSession& s) { s.decide(issue, option); });
          break;
        }
        case 3: {
          const char* slices = rng.next_bool() ? "s1" : "s2";
          oracle.apply([&](ExplorationSession& s) { s.decide("Slices", slices); });
          break;
        }
        case 4: {
          const double bound = static_cast<double>(rng.next_below(101));
          oracle.apply([&](ExplorationSession& s) { s.set_requirement("MaxArea", bound); });
          break;
        }
        default: {
          const char* names[] = {"Style", "Arch", "Tech", "Grade", "Slices", "MaxArea"};
          const char* name = names[rng.next_below(6)];
          oracle.apply([&](ExplorationSession& s) {
            if (s.value_of(name).has_value()) s.retract(name);
          });
          break;
        }
      }
      expect_what_if_agrees(oracle);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, ForcedKernelOracle,
                         ::testing::Combine(::testing::Values(0, 1), ::testing::Range(1u, 4u)));

// ---------------------------------------------------------------------------
// The NaN fold rule, spelled out on a hand-built layer.
// ---------------------------------------------------------------------------

TEST(ColumnarOracle, RangeFoldRuleOnNaNAndSignedZero) {
  auto layer = std::make_unique<DesignSpaceLayer>("fold-rule");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(Property::design_issue("Tech", ValueDomain::options({"t1", "t2"}), ""));
  ReuseLibrary& lib = layer->add_library("cores");
  const double nan = std::nan("");
  // t1 rows: NaN first, then 3, 1 -> min and max stay NaN.
  // t2 rows: -0, 5, NaN, +0 -> NaN never moves an end; -0 (earlier) wins
  // the tie with +0.
  const std::vector<std::pair<const char*, std::optional<double>>> rows = {
      {"t1", nan}, {"t2", -0.0}, {"t1", 3.0}, {"t2", 5.0}, {"t2", nan},
      {"t1", std::nullopt}, {"t2", 0.0}, {"t1", 1.0}};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    Core c("c" + std::to_string(i), "Node");
    c.bind("Tech", Value::text(rows[i].first));
    if (rows[i].second.has_value()) c.set_metric("area", *rows[i].second);
    lib.add(std::move(c));
  }
  layer->index_cores();

  Oracle oracle(*layer, "Node");
  oracle.expect_range_agrees("area");
  oracle.expect_ranges_agree("Tech", "area");
  const auto all = oracle.session.metric_range("area");
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(std::isnan(all->min) && std::isnan(all->max));  // the first row is NaN
  EXPECT_EQ(all->count, 7u);                                   // NaN cells count
  const auto by_tech = oracle.session.option_ranges("Tech", "area");
  ASSERT_EQ(by_tech.size(), 2u);
  EXPECT_TRUE(std::isnan(by_tech.at("t1").min) && std::isnan(by_tech.at("t1").max));
  EXPECT_EQ(by_tech.at("t1").count, 3u);
  EXPECT_TRUE(same_bits(by_tech.at("t2").min, -0.0));
  EXPECT_TRUE(same_bits(by_tech.at("t2").max, 5.0));
  EXPECT_EQ(by_tech.at("t2").count, 4u);

  // The same rule through metric_range's masked pass once t2 is decided.
  oracle.apply([](ExplorationSession& s) { s.decide("Tech", "t2"); });
  oracle.expect_range_agrees("area");
  const auto t2 = oracle.session.metric_range("area");
  ASSERT_TRUE(t2.has_value());
  EXPECT_TRUE(same_bits(t2->min, -0.0));
  EXPECT_TRUE(same_bits(t2->max, 5.0));
  EXPECT_EQ(t2->count, 4u);
}

}  // namespace
}  // namespace dslayer
