#include <gtest/gtest.h>

#include "dsl/exploration.hpp"
#include "support/error.hpp"

namespace dslayer::dsl {
namespace {

/// A self-contained layer exercising every exploration mechanism:
///   Block (req Size, req Budget) -> Style {HW, SW}
///   HW: issues Tech {new, old}, Width (powers of two), derived "Cycles",
///       estimator-bound "DelayRank"; generalized Scheme {P, Q} -> leaves
/// Constraints:
///   O1: Width decidable only after Tech           (ordering)
///   V1: Scheme=Q inconsistent with Size >= 100    (veto / reassessment)
///   D1: Tech=old dominated when Budget <= 10      (dominance)
///   F1: Cycles = Size / Width                     (formula)
///   E1: DelayRank by BehaviorDelayEstimator       (estimator binding)
std::unique_ptr<DesignSpaceLayer> rich_layer() {
  auto layer = std::make_unique<DesignSpaceLayer>("rich");
  Cdo& block = layer->space().add_root("Block");
  block.add_property(Property::requirement("Size", ValueDomain::positive_integers(), ""));
  block.add_property(Property::requirement("Budget", ValueDomain::real_range(0, 1e9), "")
                         .with_compliance(Compliance::kCoreAtMost, "cost"));
  block.add_property(Property::generalized_issue("Style", {"HW", "SW"}, ""));

  Cdo& hw = block.specialize("HW");
  hw.add_property(Property::design_issue("Tech", ValueDomain::options({"new", "old"}), ""));
  hw.add_property(Property::design_issue("Width", ValueDomain::powers_of_two(), ""));
  hw.add_property(Property::figure_of_merit("Cycles", Unit::kNone, ""));
  hw.add_property(Property::figure_of_merit("DelayRank", Unit::kNanoseconds, ""));
  hw.add_property(Property::generalized_issue("Scheme", {"P", "Q"}, ""));
  Cdo& p = hw.specialize("P");
  p.add_behavior(behavior::montgomery_bd(2, 32));
  p.add_behavior(behavior::montgomery_bd(4, 32));
  hw.specialize("Q");
  block.specialize("SW");

  // O1 orders only: no power of two is negative, so it never vetoes.
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "O1", "width follows tech", {PropertyPath::parse("Tech@*.HW")},
      {PropertyPath::parse("Width@*.HW")},
      {PredicateAtom::compares("Width", PredicateAtom::Cmp::kLt, 0.0)}));
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "V1", "scheme Q only for small blocks", {PropertyPath::parse("Size@Block")},
      {PropertyPath::parse("Scheme@*.HW")},
      {PredicateAtom::compares("Size", PredicateAtom::Cmp::kGe, 100),
       PredicateAtom::equals("Scheme", Value::text("Q"))}));
  layer->add_constraint(ConsistencyConstraint::dominance_when(
      "D1", "old tech dominated on tight budgets", {PropertyPath::parse("Budget@Block")},
      {PropertyPath::parse("Tech@*.HW")},
      {PredicateAtom::compares("Budget", PredicateAtom::Cmp::kLe, 10),
       PredicateAtom::equals("Tech", Value::text("old"))}));
  layer->add_constraint(ConsistencyConstraint::formula(
      "F1", "cycles = size / width",
      {PropertyPath::parse("Size@Block"), PropertyPath::parse("Width@*.HW")},
      PropertyPath::parse("Cycles@*.HW"), [](const Bindings& b) {
        return Value::number(get_or_empty(b, "Size").as_number() /
                             get_or_empty(b, "Width").as_number());
      }));
  layer->add_constraint(ConsistencyConstraint::estimator(
      "E1", "rank behaviors", {}, PropertyPath::parse("DelayRank@*.HW"),
      "BehaviorDelayEstimator"));

  ReuseLibrary& lib = layer->add_library("cores");
  const auto add = [&lib](const char* name, const char* style, const char* scheme,
                          const char* tech, double width, double cost, double area) {
    Core c(name, "Block");
    c.bind("Style", Value::text(style));
    if (scheme != nullptr) c.bind("Scheme", Value::text(scheme));
    if (tech != nullptr) c.bind("Tech", Value::text(tech));
    if (width > 0) c.bind("Width", Value::number(width));
    c.set_metric("cost", cost).set_metric("area", area);
    lib.add(std::move(c));
  };
  add("hw_p_new_16", "HW", "P", "new", 16, 8, 100);
  add("hw_p_new_32", "HW", "P", "new", 32, 9, 180);
  add("hw_p_old_16", "HW", "P", "old", 16, 4, 320);
  add("hw_q_new_16", "HW", "Q", "new", 16, 7, 90);
  add("sw_generic", "SW", nullptr, nullptr, 0, 1, 0);
  layer->index_cores();
  return layer;
}

TEST(Session, UnknownClassPathThrows) {
  auto layer = rich_layer();
  EXPECT_THROW(ExplorationSession(*layer, "No.Such"), DefinitionError);
}

TEST(Session, StructuralDecisionsFromClassPath) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  EXPECT_EQ(s.value_of("Style"), Value::text("HW"));
  EXPECT_EQ(s.candidates().size(), 4u);  // SW core out of scope
  // Structural values cannot be retracted or re-decided.
  EXPECT_THROW(s.retract("Style"), ExplorationError);
  EXPECT_THROW(s.decide("Style", "SW"), ExplorationError);
}

TEST(Session, RequirementDomainEnforced) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block");
  EXPECT_THROW(s.set_requirement("Size", -5.0), ExplorationError);
  EXPECT_THROW(s.set_requirement("Size", Value::text("big")), ExplorationError);
  EXPECT_THROW(s.set_requirement("NoSuch", 1.0), ExplorationError);
  // Design issues cannot be entered as requirements and vice versa.
  EXPECT_THROW(s.set_requirement("Style", "HW"), ExplorationError);
  EXPECT_THROW(s.decide("Size", 5.0), ExplorationError);
}

TEST(Session, GeneralizedDecisionDescends) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block");
  EXPECT_EQ(s.current().path(), "Block");
  s.decide("Style", "HW");
  EXPECT_EQ(s.current().path(), "Block.HW");
  s.decide("Scheme", "P");
  EXPECT_EQ(s.current().path(), "Block.HW.P");
  EXPECT_EQ(s.candidates().size(), 3u);  // P cores only
}

TEST(Session, RegularDecisionFiltersCoresProperly) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  s.decide("Tech", "new");
  ASSERT_EQ(s.candidates().size(), 3u);
  s.decide("Width", 16.0);
  EXPECT_EQ(s.candidates().size(), 2u);  // hw_p_new_16, hw_q_new_16
}

TEST(Session, OrderingEnforcedBetweenDesignIssues) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  // O1: Width only after the Tech design issue has been decided.
  EXPECT_THROW(s.decide("Width", 16.0), ExplorationError);
  s.decide("Tech", "new");
  EXPECT_NO_THROW(s.decide("Width", 16.0));
}

TEST(Session, RequirementIndependentsDoNotBlockDecisions) {
  // V1 depends on the Size REQUIREMENT; an unset requirement is a problem
  // given that leaves the relation unevaluable, not an ordering barrier.
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  EXPECT_NO_THROW(s.decide("Scheme", "Q"));
}

TEST(Session, VetoOnDependentDecision) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  s.set_requirement("Size", 128.0);
  EXPECT_THROW(s.decide("Scheme", "Q"), ExplorationError);  // V1
  EXPECT_NO_THROW(s.decide("Scheme", "P"));
}

TEST(Session, DominanceVetoReportsInferior) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  s.set_requirement("Budget", 5.0);
  try {
    s.decide("Tech", "old");
    FAIL() << "expected veto";
  } catch (const ExplorationError& e) {
    EXPECT_NE(std::string(e.what()).find("inferior"), std::string::npos);
  }
}

TEST(Session, AvailableAndEliminatedOptions) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  s.set_requirement("Size", 128.0);
  EXPECT_EQ(s.available_options("Scheme"), std::vector<std::string>{"P"});
  const auto eliminated = s.eliminated_options("Scheme");
  ASSERT_EQ(eliminated.size(), 1u);
  EXPECT_EQ(eliminated[0].first, "Q");
  EXPECT_EQ(eliminated[0].second, "V1");
  // With a small size both remain.
  s.set_requirement("Size", 10.0);
  EXPECT_EQ(s.available_options("Scheme").size(), 2u);
}

TEST(Session, ReassessmentFlowOnIndependentChange) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  s.set_requirement("Size", 10.0);
  s.decide("Scheme", "Q");
  EXPECT_EQ(s.state_of("Scheme"), ExplorationSession::State::kSet);

  // Revising the independent does NOT throw; it flags Scheme.
  s.set_requirement("Size", 200.0);
  EXPECT_EQ(s.state_of("Scheme"), ExplorationSession::State::kNeedsReassessment);
  EXPECT_EQ(s.pending_reassessment(), std::vector<std::string>{"Scheme"});

  // Re-affirming the now-inconsistent value fails...
  EXPECT_THROW(s.reaffirm("Scheme"), ExplorationError);
  // ...but after shrinking Size again it succeeds.
  s.set_requirement("Size", 10.0);
  EXPECT_NO_THROW(s.reaffirm("Scheme"));
  EXPECT_EQ(s.state_of("Scheme"), ExplorationSession::State::kSet);
}

TEST(Session, ReaffirmOnlyWhenFlagged) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  EXPECT_THROW(s.reaffirm("Tech"), ExplorationError);
}

TEST(Session, RetractAscendsAndDropsScope) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block");
  s.decide("Style", "HW");
  s.decide("Tech", "new");
  s.decide("Scheme", "P");
  EXPECT_EQ(s.current().path(), "Block.HW.P");

  s.retract("Scheme");
  EXPECT_EQ(s.current().path(), "Block.HW");
  EXPECT_EQ(s.state_of("Scheme"), ExplorationSession::State::kUnset);
  EXPECT_EQ(s.value_of("Tech"), Value::text("new"));  // still in scope

  s.retract("Style");
  EXPECT_EQ(s.current().path(), "Block");
  // Tech was declared below Block: dropped with the scope.
  EXPECT_EQ(s.state_of("Tech"), ExplorationSession::State::kUnset);
}

TEST(Session, RetractUnsetThrows) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block");
  EXPECT_THROW(s.retract("Style"), ExplorationError);
}

TEST(Session, CandidatesRespectComplianceRules) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  s.set_requirement("Budget", 8.0);  // kCoreAtMost on metric "cost"
  // hw_p_new_32 (9) is out; old-tech core (4) is cheap but D1 eliminates it.
  const auto names = [&s] {
    std::vector<std::string> out;
    for (const Core* c : s.candidates()) out.push_back(c->name());
    return out;
  }();
  EXPECT_EQ(names, (std::vector<std::string>{"hw_p_new_16", "hw_q_new_16"}));
}

TEST(Session, MetricRangeOverCandidates) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  const auto range = s.metric_range("area");
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->count, 4u);
  EXPECT_DOUBLE_EQ(range->min, 90.0);
  EXPECT_DOUBLE_EQ(range->max, 320.0);
  EXPECT_FALSE(s.metric_range("nonexistent").has_value());
}

TEST(Session, DerivedFormulaValue) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  EXPECT_FALSE(s.derived("Cycles").has_value());  // Width unbound
  s.set_requirement("Size", 64.0);
  s.decide("Tech", "new");  // O1 orders Width after Tech
  s.decide("Width", 16.0);
  EXPECT_EQ(s.derived("Cycles"), Value::number(4.0));
  s.decide("Width", 32.0);  // revision recomputes
  EXPECT_EQ(s.derived("Cycles"), Value::number(2.0));
}

TEST(Session, RankBehaviorsThroughEstimatorConstraint) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW.P");
  const auto ranks = s.rank_behaviors("DelayRank");
  ASSERT_EQ(ranks.size(), 2u);
  EXPECT_EQ(ranks[0].bd_name, "Montgomery_r2");  // gated PPs beat digit muls
  EXPECT_LT(ranks[0].value, ranks[1].value);
  EXPECT_THROW(s.rank_behaviors("NoSuchProperty"), ExplorationError);
}

TEST(Session, OptionRangesForRegularIssue) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  const auto ranges = s.option_ranges("Tech", "area");
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges.at("new").count, 3u);
  EXPECT_DOUBLE_EQ(ranges.at("new").min, 90.0);
  EXPECT_DOUBLE_EQ(ranges.at("new").max, 180.0);
  EXPECT_EQ(ranges.at("old").count, 1u);
  EXPECT_DOUBLE_EQ(ranges.at("old").min, 320.0);
}

TEST(Session, OptionRangesForGeneralizedIssue) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  const auto ranges = s.option_ranges("Scheme", "area");
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges.at("P").count, 3u);
  EXPECT_EQ(ranges.at("Q").count, 1u);
  EXPECT_DOUBLE_EQ(ranges.at("Q").min, 90.0);
}

TEST(Session, OptionRangesRespectEliminations) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block.HW");
  s.set_requirement("Size", 200.0);  // V1 eliminates Scheme=Q
  const auto ranges = s.option_ranges("Scheme", "area");
  EXPECT_EQ(ranges.size(), 1u);
  EXPECT_TRUE(ranges.contains("P"));
}

TEST(Session, OptionRangesIgnoreNonFilteringIssues) {
  auto layer = std::make_unique<DesignSpaceLayer>("n");
  Cdo& root = layer->space().add_root("R");
  root.add_property(Property::design_issue("Count", ValueDomain::options({"1", "2"}), "")
                        .without_core_filtering());
  Core c("c1", "R");
  c.set_metric("area", 5);
  layer->add_library("l").add(std::move(c));
  layer->index_cores();
  ExplorationSession s(*layer, "R");
  const auto ranges = s.option_ranges("Count", "area");
  EXPECT_EQ(ranges.at("1").count, 1u);  // integration parameter: full base set
  EXPECT_EQ(ranges.at("2").count, 1u);
}

TEST(Session, TraceRecordsNarrative) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block");
  s.set_requirement("Size", 64.0);
  s.decide("Style", "HW");
  bool saw_descend = false;
  for (const auto& line : s.trace()) {
    if (line.find("descended to 'Block.HW'") != std::string::npos) saw_descend = true;
  }
  EXPECT_TRUE(saw_descend);
  const std::string report = s.report();
  EXPECT_NE(report.find("Style = HW"), std::string::npos);
  EXPECT_NE(report.find("Candidate cores"), std::string::npos);
}

TEST(Session, CopiedSessionKeepsItsOwnJournal) {
  auto layer = rich_layer();
  ExplorationSession base(*layer, "Block");
  base.set_requirement("Size", 64.0);
  ExplorationSession trial = base;
  trial.decide("Style", "HW");
  EXPECT_EQ(base.journal().size(), 2u);
  EXPECT_EQ(trial.journal().size(), 3u);
  // Replaying the original lands where the original is, not where the
  // copy went.
  const ExplorationSession replayed = ExplorationSession::replay(*layer, base.export_journal());
  EXPECT_EQ(replayed.current().path(), "Block");
  EXPECT_EQ(replayed.export_journal(), base.export_journal());
}

TEST(Session, JournalReplaysNumbersBitExactly) {
  auto layer = rich_layer();
  ExplorationSession s(*layer, "Block");
  const double budget = 0.1 + 0.2;  // classic non-representable sum
  s.set_requirement("Budget", budget);
  const ExplorationSession replayed = ExplorationSession::replay(*layer, s.export_journal());
  ASSERT_TRUE(replayed.value_of("Budget").has_value());
  EXPECT_EQ(replayed.value_of("Budget")->as_number(), budget);  // bit-exact, not near
}

TEST(Session, BindingsIncludeDefaults) {
  auto layer = std::make_unique<DesignSpaceLayer>("d");
  Cdo& root = layer->space().add_root("R");
  root.add_property(Property::design_issue("Radix", ValueDomain::powers_of_two(), "")
                        .with_default(Value::number(2)));
  ExplorationSession s(*layer, "R");
  EXPECT_EQ(get_or_empty(s.bindings(), "Radix"), Value::number(2));
  s.decide("Radix", 4.0);
  EXPECT_EQ(get_or_empty(s.bindings(), "Radix"), Value::number(4));
}

}  // namespace
}  // namespace dslayer::dsl
