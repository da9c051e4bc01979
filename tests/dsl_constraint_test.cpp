#include <gtest/gtest.h>

#include "dsl/cdo.hpp"
#include "dsl/constraint.hpp"
#include "support/error.hpp"

namespace dslayer::dsl {
namespace {

Bindings bind(std::initializer_list<std::pair<std::string, Value>> items) {
  Bindings b;
  for (auto& [k, v] : items) b[k] = v;
  return b;
}

ConsistencyConstraint odd_modulo_cc() {
  return ConsistencyConstraint::inconsistent_when(
      "CC1", "Montgomery requires odd modulo", {PropertyPath::parse("Odd@Multiplier")},
      {PropertyPath::parse("Algorithm@*.Hardware")},
      {PredicateAtom::equals("Odd", Value::text("No")),
       PredicateAtom::equals("Algorithm", Value::text("Montgomery"))});
}

TEST(Constraint, BuilderValidations) {
  const std::vector<PredicateAtom> atoms = {PredicateAtom::equals("X", Value::text("x"))};
  EXPECT_THROW(
      ConsistencyConstraint::inconsistent_when("", "d", {}, {PropertyPath::parse("X")}, atoms),
      DefinitionError);
  EXPECT_THROW(ConsistencyConstraint::inconsistent_when("id", "d", {}, {}, atoms),
               DefinitionError);
  EXPECT_THROW(
      ConsistencyConstraint::inconsistent_when("id", "d", {}, {PropertyPath::parse("X")}, {}),
      PreconditionError);
  EXPECT_THROW(ConsistencyConstraint::dominance_when("id", "d", {}, {PropertyPath::parse("X")}, {}),
               PreconditionError);
  EXPECT_THROW(ConsistencyConstraint::estimator("id", "d", {}, PropertyPath::parse("X"), ""),
               DefinitionError);
}

TEST(Constraint, DependsOnAndConstrains) {
  const ConsistencyConstraint cc = odd_modulo_cc();
  EXPECT_TRUE(cc.depends_on("Odd"));
  EXPECT_FALSE(cc.depends_on("Algorithm"));
  EXPECT_TRUE(cc.constrains("Algorithm"));
  EXPECT_FALSE(cc.constrains("Odd"));
}

TEST(Constraint, ViolatedOnlyWhenAllBound) {
  const ConsistencyConstraint cc = odd_modulo_cc();
  EXPECT_FALSE(cc.violated(bind({})));
  EXPECT_FALSE(cc.violated(bind({{"Odd", Value::text("No")}})));  // dep unbound
  EXPECT_FALSE(cc.violated(bind({{"Algorithm", Value::text("Montgomery")}})));
  EXPECT_TRUE(cc.violated(
      bind({{"Odd", Value::text("No")}, {"Algorithm", Value::text("Montgomery")}})));
  EXPECT_FALSE(cc.violated(
      bind({{"Odd", Value::text("Yes")}, {"Algorithm", Value::text("Montgomery")}})));
}

TEST(Constraint, DominanceSharesMechanicsDistinctKind) {
  const ConsistencyConstraint cc = ConsistencyConstraint::dominance_when(
      "CC4", "CSA dominates", {PropertyPath::parse("EOL")}, {PropertyPath::parse("Adder")},
      {PredicateAtom::compares("EOL", PredicateAtom::Cmp::kGe, 32),
       PredicateAtom::not_equals("Adder", Value::text("CSA"))});
  EXPECT_EQ(cc.kind(), RelationKind::kDominanceElimination);
  EXPECT_TRUE(
      cc.violated(bind({{"EOL", Value::number(64)}, {"Adder", Value::text("CLA")}})));
  EXPECT_FALSE(
      cc.violated(bind({{"EOL", Value::number(16)}, {"Adder", Value::text("CLA")}})));
}

TEST(Constraint, FormulaEvaluates) {
  const ConsistencyConstraint cc = ConsistencyConstraint::formula(
      "CC2", "L = 2*EOL/R + 1",
      {PropertyPath::parse("EOL"), PropertyPath::parse("Radix")},
      PropertyPath::parse("LatencyCycles"), [](const Bindings& b) {
        return Value::number(2.0 * get_or_empty(b, "EOL").as_number() /
                                 get_or_empty(b, "Radix").as_number() +
                             1.0);
      });
  EXPECT_EQ(cc.evaluate(bind({{"EOL", Value::number(768)}, {"Radix", Value::number(2)}})),
            Value::number(769));
  EXPECT_EQ(cc.evaluate(bind({{"EOL", Value::number(768)}, {"Radix", Value::number(4)}})),
            Value::number(385));
}

TEST(Constraint, FormulaNeedsIndependentsBound) {
  const ConsistencyConstraint cc = ConsistencyConstraint::formula(
      "F", "", {PropertyPath::parse("X")}, PropertyPath::parse("Y"),
      [](const Bindings&) { return Value::number(1); });
  EXPECT_THROW(cc.evaluate(bind({})), ExplorationError);
  EXPECT_FALSE(cc.independents_bound(bind({})));
  EXPECT_TRUE(cc.independents_bound(bind({{"X", Value::number(1)}})));
}

TEST(Constraint, ViolatedOnWrongKindThrows) {
  const ConsistencyConstraint formula = ConsistencyConstraint::formula(
      "F", "", {}, PropertyPath::parse("Y"), [](const Bindings&) { return Value::number(1); });
  EXPECT_THROW(formula.violated(bind({})), PreconditionError);
  const ConsistencyConstraint cc = odd_modulo_cc();
  EXPECT_THROW(cc.evaluate(bind({})), PreconditionError);
}

TEST(Constraint, EstimatorBindingCarriesName) {
  const ConsistencyConstraint cc = ConsistencyConstraint::estimator(
      "CC3", "delay rank", {PropertyPath::parse("BD@*.Hardware")},
      PropertyPath::parse("MaxCombDelay@*.Hardware"), "BehaviorDelayEstimator");
  EXPECT_EQ(cc.kind(), RelationKind::kEstimatorBinding);
  EXPECT_EQ(cc.estimator_name(), "BehaviorDelayEstimator");
}

TEST(Constraint, AppliesAtWalksAncestors) {
  DesignSpace space;
  Cdo& root = space.add_root("Operator");
  root.add_property(Property::generalized_issue("Class", {"Multiplier"}, ""));
  Cdo& mult = root.specialize("Multiplier");
  mult.add_property(Property::generalized_issue("Style", {"Hardware"}, ""));
  Cdo& hw = mult.specialize("Hardware");

  const ConsistencyConstraint cc = odd_modulo_cc();  // dep pattern "*.Hardware"
  EXPECT_TRUE(cc.applies_at(hw));
  EXPECT_FALSE(cc.applies_at(mult));
  EXPECT_FALSE(cc.applies_at(root));

  // A CC stated at *.Hardware also governs Hardware's descendants.
  hw.add_property(Property::generalized_issue("Alg", {"M"}, ""));
  Cdo& m = hw.specialize("M");
  EXPECT_TRUE(cc.applies_at(m));
}

TEST(Constraint, DescribeRendersFigure13Style) {
  const std::string text = odd_modulo_cc().describe();
  EXPECT_NE(text.find("CC1"), std::string::npos);
  EXPECT_NE(text.find("Indep_Set={Odd@Multiplier}"), std::string::npos);
  EXPECT_NE(text.find("Dep_Set={Algorithm@*.Hardware}"), std::string::npos);
  EXPECT_NE(text.find("InconsistentOptions"), std::string::npos);
}

TEST(Constraint, GetOrEmpty) {
  const Bindings b = bind({{"X", Value::number(1)}});
  EXPECT_EQ(get_or_empty(b, "X"), Value::number(1));
  EXPECT_TRUE(get_or_empty(b, "Y").empty());
}

}  // namespace
}  // namespace dslayer::dsl
