#include <gtest/gtest.h>

#include <limits>

#include "dsl/layer.hpp"
#include "support/error.hpp"

namespace dslayer::dsl {
namespace {

/// Layer with hierarchy Block -> {Fast, Slow}, Fast -> {X, Y}.
std::unique_ptr<DesignSpaceLayer> make_layer() {
  auto layer = std::make_unique<DesignSpaceLayer>("test");
  Cdo& root = layer->space().add_root("Block");
  root.add_property(Property::generalized_issue("Speed", {"Fast", "Slow"}, ""));
  Cdo& fast = root.specialize("Fast");
  fast.add_property(Property::generalized_issue("Flavor", {"X", "Y"}, ""));
  fast.specialize("X");
  fast.specialize("Y");
  root.specialize("Slow");
  return layer;
}

Core core_with(std::string name, std::initializer_list<std::pair<std::string, Value>> bindings) {
  Core c(std::move(name), "Block");
  for (auto& [k, v] : bindings) c.bind(k, v);
  return c;
}

/// An atom no binding satisfies: nothing is below -infinity, and a
/// non-number never compares.
PredicateAtom never_holds(std::string property) {
  return PredicateAtom::compares(std::move(property), PredicateAtom::Cmp::kLt,
                                 -std::numeric_limits<double>::infinity());
}

TEST(Core, BindingAndMetricAccess) {
  Core c("c1", "Block");
  c.bind("Speed", Value::text("Fast")).set_metric("area", 100.0);
  EXPECT_EQ(c.binding("Speed"), Value::text("Fast"));
  EXPECT_FALSE(c.binding("Missing").has_value());
  EXPECT_EQ(c.metric("area"), 100.0);
  EXPECT_FALSE(c.metric("power").has_value());
  c.add_view("rt", "ip://x/rtl.v");
  ASSERT_EQ(c.views().size(), 1u);
  EXPECT_EQ(c.views()[0].level, "rt");
}

TEST(Core, Validations) {
  EXPECT_THROW(Core("", "Block"), DefinitionError);
  EXPECT_THROW(Core("x", ""), DefinitionError);
  Core c("x", "Block");
  EXPECT_THROW(c.bind("", Value::number(1)), PreconditionError);
  EXPECT_THROW(c.bind("k", Value{}), PreconditionError);
}

TEST(Library, DuplicateCoreNameThrows) {
  ReuseLibrary lib("vendor");
  lib.add(Core("c1", "Block"));
  EXPECT_THROW(lib.add(Core("c1", "Block")), DefinitionError);
  EXPECT_EQ(lib.size(), 1u);
}

TEST(Library, StampsLibraryName) {
  ReuseLibrary lib("vendor");
  const Core& c = lib.add(Core("c1", "Block"));
  EXPECT_EQ(c.library(), "vendor");
}

TEST(Layer, DuplicateLibraryThrows) {
  auto layer = make_layer();
  layer->add_library("a");
  EXPECT_THROW(layer->add_library("a"), DefinitionError);
}

TEST(Layer, IndexDescendsGeneralizedIssues) {
  auto layer = make_layer();
  ReuseLibrary& lib = layer->add_library("v");
  lib.add(core_with("deep", {{"Speed", Value::text("Fast")}, {"Flavor", Value::text("X")}}));
  lib.add(core_with("mid", {{"Speed", Value::text("Fast")}}));
  lib.add(core_with("top", {}));
  EXPECT_EQ(layer->index_cores(), 3u);
  EXPECT_TRUE(layer->index_warnings().empty());

  const Cdo* root = layer->space().find("Block");
  const Cdo* fast = layer->space().find("Block.Fast");
  const Cdo* x = layer->space().find("Block.Fast.X");
  EXPECT_EQ(layer->cores_at(*x).size(), 1u);     // "deep"
  EXPECT_EQ(layer->cores_at(*fast).size(), 1u);  // "mid" stays at the family
  EXPECT_EQ(layer->cores_at(*root).size(), 1u);  // "top" undiscriminated
  EXPECT_EQ(layer->cores_under(*fast).size(), 2u);
  EXPECT_EQ(layer->cores_under(*root).size(), 3u);
}

TEST(Layer, IndexMultipleLibraries) {
  // Fig. 1: one layer spanning several reuse libraries.
  auto layer = make_layer();
  layer->add_library("a").add(core_with("a1", {{"Speed", Value::text("Fast")}}));
  layer->add_library("b").add(core_with("b1", {{"Speed", Value::text("Slow")}}));
  EXPECT_EQ(layer->index_cores(), 2u);
  EXPECT_EQ(layer->libraries().size(), 2u);
  const Cdo* root = layer->space().find("Block");
  EXPECT_EQ(layer->cores_under(*root).size(), 2u);
}

TEST(Layer, IndexWarnsOnBadClassPath) {
  auto layer = make_layer();
  layer->add_library("v").add(Core("lost", "NoSuchClass"));
  EXPECT_EQ(layer->index_cores(), 0u);
  ASSERT_EQ(layer->index_warnings().size(), 1u);
  EXPECT_NE(layer->index_warnings()[0].find("NoSuchClass"), std::string::npos);
}

TEST(Layer, IndexWarnsOnBadOptionButKeepsCore) {
  auto layer = make_layer();
  layer->add_library("v").add(core_with("odd", {{"Speed", Value::text("Warp")}}));
  EXPECT_EQ(layer->index_cores(), 1u);  // indexed at Block, with a warning
  EXPECT_EQ(layer->index_warnings().size(), 1u);
  EXPECT_EQ(layer->cores_at(*layer->space().find("Block")).size(), 1u);
}

TEST(Layer, ReindexIsIdempotent) {
  auto layer = make_layer();
  layer->add_library("v").add(core_with("c", {{"Speed", Value::text("Slow")}}));
  layer->index_cores();
  layer->index_cores();
  EXPECT_EQ(layer->cores_under(*layer->space().find("Block")).size(), 1u);
}

TEST(Layer, ConstraintManagement) {
  auto layer = make_layer();
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "T1", "", {}, {PropertyPath::parse("Flavor@*.Fast")}, {never_holds("Flavor")}));
  EXPECT_THROW(layer->add_constraint(ConsistencyConstraint::inconsistent_when(
                   "T1", "", {}, {PropertyPath::parse("X")}, {never_holds("X")})),
               DefinitionError);
  EXPECT_EQ(layer->constraints_at(*layer->space().find("Block.Fast")).size(), 1u);
  EXPECT_TRUE(layer->constraints_at(*layer->space().find("Block.Slow")).empty());
}

TEST(Layer, ValidateFindsUnspecializedOptions) {
  auto layer = std::make_unique<DesignSpaceLayer>("broken");
  Cdo& root = layer->space().add_root("Block");
  root.add_property(Property::generalized_issue("Speed", {"Fast", "Slow"}, ""));
  root.specialize("Fast");  // "Slow" left dangling
  const auto findings = layer->validate();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("Slow"), std::string::npos);
}

TEST(Layer, ValidateFindsDanglingConstraintAndEstimator) {
  auto layer = make_layer();
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "T1", "", {}, {PropertyPath::parse("X@No.Such.Cdo")}, {never_holds("X")}));
  layer->add_constraint(ConsistencyConstraint::estimator(
      "T2", "", {}, PropertyPath::parse("Y@Block"), "NoSuchTool"));
  const auto findings = layer->validate();
  EXPECT_EQ(findings.size(), 2u);
}

TEST(Layer, ValidateCleanOnWellFormed) {
  EXPECT_TRUE(make_layer()->validate().empty());
}

TEST(Layer, CoreFilterRegistry) {
  auto layer = make_layer();
  EXPECT_EQ(layer->core_filter("Latency"), nullptr);
  layer->set_core_filter("Latency", [](const Core&, const Bindings&) { return true; });
  ASSERT_NE(layer->core_filter("Latency"), nullptr);
}

TEST(Layer, DefaultContextBuilderReadsConventionalNames) {
  auto layer = make_layer();
  const auto bd = behavior::montgomery_bd(2, 64);
  Bindings b;
  b["EffectiveOperandLength"] = Value::number(768);
  b["Radix"] = Value::number(4);
  b["SliceWidth"] = Value::number(32);
  b["FabricationTechnology"] = Value::text("0.70um");
  const auto input = layer->build_context(b, bd);
  EXPECT_EQ(input.eol_bits, 768u);
  EXPECT_EQ(input.radix, 4u);
  EXPECT_EQ(input.datapath_bits, 32u);
  EXPECT_EQ(input.technology.process, tech::Process::k070um);
  EXPECT_EQ(input.bd, &bd);
}

TEST(Layer, CustomContextBuilderWins) {
  auto layer = make_layer();
  layer->set_context_builder([](const Bindings&, const behavior::BehavioralDescription& bd) {
    estimation::EstimateInput in;
    in.bd = &bd;
    in.eol_bits = 42;
    return in;
  });
  const auto bd = behavior::montgomery_bd(2, 64);
  EXPECT_EQ(layer->build_context({}, bd).eol_bits, 42u);
}

TEST(Layer, DocumentListsEverything) {
  auto layer = make_layer();
  layer->add_library("vendor-a");
  const std::string doc = layer->document();
  EXPECT_NE(doc.find("Design Space Layer: test"), std::string::npos);
  EXPECT_NE(doc.find("CDO Block"), std::string::npos);
  EXPECT_NE(doc.find("vendor-a"), std::string::npos);
  EXPECT_NE(doc.find("BehaviorDelayEstimator"), std::string::npos);
}

}  // namespace
}  // namespace dslayer::dsl
