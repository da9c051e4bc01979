// The indexed + cached query layer, and the eliminated-options/decide
// agreement it must preserve:
//  * eliminated_options() mirrors decide()'s veto exactly (dependent-side
//    only); independent-side conflicts surface via reassessment_flags();
//  * option_ranges() partitions the cached candidate set and never returns
//    empty (count == 0) ranges;
//  * bindings()/candidates() memoize behind the generation counter, with
//    QueryStats evidencing hits, misses, and invalidation;
//  * the per-CDO constraint index agrees with a linear applies_at scan and
//    survives add_constraint() invalidation;
//  * retract() of a generalized decision ascends, drops out-of-scope
//    values, and flags dependents deterministically.

#include <gtest/gtest.h>

#include <algorithm>

#include "dsl/exploration.hpp"
#include "support/error.hpp"

namespace dslayer::dsl {
namespace {

/// Node with two chained constraints:
///   X1: Width (dependent) inconsistent with Tech=old when Width=w16
///   X2: Tech (dependent) inconsistent with Mode=strict when Tech=old
/// Tech is therefore INDEPENDENT in X1 and DEPENDENT in X2 — the exact
/// split the eliminated-options bug conflated.
std::unique_ptr<DesignSpaceLayer> chained_layer() {
  auto layer = std::make_unique<DesignSpaceLayer>("chained");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(
      Property::requirement("Mode", ValueDomain::options({"strict", "lax"}), ""));
  node.add_property(Property::design_issue("Tech", ValueDomain::options({"new", "old"}), ""));
  node.add_property(Property::design_issue("Width", ValueDomain::options({"w16", "w32"}), ""));

  layer->add_constraint(ConsistencyConstraint::inconsistent_options(
      "X1", "old tech cannot drive w16", {PropertyPath::parse("Tech@Node")},
      {PropertyPath::parse("Width@Node")}, [](const Bindings& b) {
        return get_or_empty(b, "Tech").as_text() == "old" &&
               get_or_empty(b, "Width").as_text() == "w16";
      }));
  layer->add_constraint(ConsistencyConstraint::inconsistent_options(
      "X2", "strict mode forbids old tech", {PropertyPath::parse("Mode@Node")},
      {PropertyPath::parse("Tech@Node")}, [](const Bindings& b) {
        return get_or_empty(b, "Mode").as_text() == "strict" &&
               get_or_empty(b, "Tech").as_text() == "old";
      }));

  ReuseLibrary& lib = layer->add_library("cores");
  const auto add = [&lib](const char* name, const char* tech, const char* width, double area) {
    Core c(name, "Node");
    c.bind("Tech", Value::text(tech)).bind("Width", Value::text(width));
    if (area > 0) c.set_metric("area", area);
    lib.add(std::move(c));
  };
  add("new_16", "new", "w16", 100);
  add("new_32", "new", "w32", 180);
  add("old_32", "old", "w32", 60);
  add("old_16_nometric", "old", "w16", 0);  // reports no area
  layer->index_cores();
  return layer;
}

// ---------------------------------------------------------------------------
// The headline regression: available_options()/eliminated_options() must
// agree with what decide() actually accepts.
// ---------------------------------------------------------------------------

TEST(EliminatedOptions, IndependentSideConflictDoesNotEliminate) {
  auto layer = chained_layer();
  ExplorationSession s(*layer, "Node");
  s.decide("Tech", "new");
  s.decide("Width", "w16");

  // Tech=old violates X1 — but only through X1's INDEPENDENT side, so
  // decide() accepts it (and flags Width). It must not be reported as
  // eliminated.
  EXPECT_TRUE(s.eliminated_options("Tech").empty());
  const auto available = s.available_options("Tech");
  EXPECT_EQ(available, (std::vector<std::string>{"new", "old"}));

  // The conflict is surfaced as a re-assessment flag instead.
  const auto flags = s.reassessment_flags("Tech");
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_EQ(flags[0].first, "old");
  EXPECT_EQ(flags[0].second, "X1");

  // And decide() indeed accepts the option, flagging the dependent.
  s.decide("Tech", "old");
  EXPECT_EQ(s.state_of("Width"), ExplorationSession::State::kNeedsReassessment);
}

TEST(EliminatedOptions, AvailableOptionsAgreeWithDecide) {
  auto layer = chained_layer();
  ExplorationSession base(*layer, "Node");
  base.set_requirement("Mode", "strict");
  base.decide("Tech", "new");
  base.decide("Width", "w16");

  for (const std::string& issue : {std::string("Tech"), std::string("Width")}) {
    for (const auto& option : base.available_options(issue)) {
      ExplorationSession trial = base;
      EXPECT_NO_THROW(trial.decide(issue, option))
          << issue << "=" << option << " was listed available but decide() vetoed it";
    }
    for (const auto& [option, cc] : base.eliminated_options(issue)) {
      ExplorationSession trial = base;
      EXPECT_THROW(trial.decide(issue, option), ExplorationError)
          << issue << "=" << option << " was listed eliminated (by " << cc
          << ") but decide() accepted it";
    }
  }
}

TEST(EliminatedOptions, DependentSideStillVetoes) {
  auto layer = chained_layer();
  ExplorationSession s(*layer, "Node");
  s.set_requirement("Mode", "strict");
  const auto eliminated = s.eliminated_options("Tech");
  ASSERT_EQ(eliminated.size(), 1u);
  EXPECT_EQ(eliminated[0].first, "old");
  EXPECT_EQ(eliminated[0].second, "X2");
  EXPECT_EQ(s.available_options("Tech"), (std::vector<std::string>{"new"}));
  EXPECT_THROW(s.decide("Tech", "old"), ExplorationError);
}

// ---------------------------------------------------------------------------
// option_ranges: empty ranges are omitted.
// ---------------------------------------------------------------------------

TEST(OptionRanges, SkipsOptionsWithoutMetricReports) {
  auto layer = chained_layer();
  ExplorationSession s(*layer, "Node");
  s.decide("Tech", "old");
  // Candidates: old_32 (area 60) and old_16_nometric (no area). w32 has a
  // range; w16's only core reports no area — it must be absent, not a
  // default-constructed {0, 0, count 0}.
  const auto ranges = s.option_ranges("Width", "area");
  ASSERT_EQ(ranges.size(), 1u);
  ASSERT_TRUE(ranges.contains("w32"));
  EXPECT_EQ(ranges.at("w32").count, 1u);
  EXPECT_DOUBLE_EQ(ranges.at("w32").min, 60.0);
  EXPECT_DOUBLE_EQ(ranges.at("w32").max, 60.0);
  for (const auto& [option, range] : ranges) EXPECT_GT(range.count, 0u) << option;
}

TEST(OptionRanges, UnknownMetricYieldsEmptyMap) {
  auto layer = chained_layer();
  ExplorationSession s(*layer, "Node");
  EXPECT_TRUE(s.option_ranges("Width", "no_such_metric").empty());
}

// ---------------------------------------------------------------------------
// Memoization: generation-counter caching of bindings() and candidates().
// ---------------------------------------------------------------------------

TEST(QueryCache, RepeatedQueriesHitTheCache) {
  auto layer = chained_layer();
  ExplorationSession s(*layer, "Node");
  s.reset_query_stats();

  const std::size_t n1 = s.candidates().size();
  const auto after_first = s.query_stats();
  EXPECT_GT(after_first.cache_misses, 0u);
  const std::uint64_t misses = after_first.cache_misses;

  const std::size_t n2 = s.candidates().size();
  (void)s.bindings();
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(s.query_stats().cache_misses, misses);  // no recompute
  EXPECT_GT(s.query_stats().cache_hits, after_first.cache_hits);
}

TEST(QueryCache, MutationsInvalidate) {
  auto layer = chained_layer();
  ExplorationSession s(*layer, "Node");
  // old_16_nometric is already removed by X1 (its own bindings violate it).
  EXPECT_EQ(s.candidates().size(), 3u);
  s.decide("Tech", "new");
  EXPECT_EQ(s.candidates().size(), 2u);  // fresh result, not the stale cache
  s.decide("Width", "w32");
  EXPECT_EQ(s.candidates().size(), 1u);
  s.retract("Width");
  EXPECT_EQ(s.candidates().size(), 2u);
}

TEST(QueryCache, ReplayedSessionStartsColdAndAgrees) {
  auto layer = chained_layer();
  ExplorationSession s(*layer, "Node");
  s.decide("Tech", "new");
  const std::vector<const Core*> warm = s.candidates();

  // A rebuilt session shares no memo with its source: its first query
  // recomputes, and lands on the same candidates.
  ExplorationSession rebuilt = ExplorationSession::replay(*layer, s.export_journal());
  rebuilt.reset_query_stats();
  EXPECT_EQ(rebuilt.candidates(), warm);
  const QueryStats cold = rebuilt.query_stats();
  EXPECT_GE(cold.cache_misses, 1u);
  EXPECT_GT(cold.compliance_checks, 0u);  // a full sweep ran

  // The second query is served by the rebuilt session's own memo.
  EXPECT_EQ(rebuilt.candidates(), warm);
  EXPECT_GT(rebuilt.query_stats().cache_hits, cold.cache_hits);
  EXPECT_EQ(rebuilt.query_stats().compliance_checks, cold.compliance_checks);
}

// ---------------------------------------------------------------------------
// The layer-side indexes.
// ---------------------------------------------------------------------------

TEST(ConstraintIndex, MatchesLinearApplicabilityScan) {
  auto layer = chained_layer();
  for (const Cdo* cdo : layer->space().all()) {
    const ConstraintIndex& idx = layer->constraint_index(*cdo);
    std::vector<const ConsistencyConstraint*> expected;
    for (const auto& cc : layer->constraints()) {
      if (cc.applies_at(*cdo)) expected.push_back(&cc);
    }
    EXPECT_EQ(idx.all, expected) << cdo->path();
    for (const ConsistencyConstraint* cc : idx.all) {
      for (const PropertyPath& dep : cc->dependent()) {
        const auto& list = idx.constraining(dep.property());
        EXPECT_NE(std::find(list.begin(), list.end(), cc), list.end());
      }
      for (const PropertyPath& indep : cc->independent()) {
        const auto& list = idx.depending_on(indep.property());
        EXPECT_NE(std::find(list.begin(), list.end(), cc), list.end());
      }
    }
  }
  EXPECT_TRUE(layer->constraint_index(*layer->space().roots()[0])
                  .constraining("NoSuchProperty")
                  .empty());
}

TEST(ConstraintIndex, AddConstraintInvalidates) {
  auto layer = chained_layer();
  const Cdo& node = *layer->space().roots()[0];
  EXPECT_EQ(layer->constraints_at(node).size(), 2u);
  layer->add_constraint(ConsistencyConstraint::inconsistent_options(
      "X3", "later rule", {PropertyPath::parse("Mode@Node")},
      {PropertyPath::parse("Width@Node")}, [](const Bindings&) { return false; }));
  // The rebuilt index sees the new constraint and the old pointers are gone.
  const auto& all = layer->constraints_at(node);
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(all.back()->id(), "X3");
  EXPECT_EQ(layer->constraint_index(node).constraining("Width").size(), 2u);
}

TEST(SubtreeIndex, CoresUnderServedFromIndex) {
  auto layer = chained_layer();
  const Cdo& node = *layer->space().roots()[0];
  layer->reset_query_stats();
  EXPECT_EQ(layer->cores_under(node).size(), 4u);
  EXPECT_EQ(layer->cores_under(node).size(), 4u);
  EXPECT_EQ(layer->query_stats().cache_hits, 2u);  // built by index_cores()
  EXPECT_EQ(layer->query_stats().index_rebuilds, 0u);

  // A CDO created after index_cores() is indexed on first query.
  Cdo& late = layer->space().add_root("Late");
  EXPECT_TRUE(layer->cores_under(late).empty());
  EXPECT_EQ(layer->query_stats().cache_misses, 1u);
  EXPECT_EQ(layer->query_stats().index_rebuilds, 1u);
}

TEST(DuplicateNames, StillRejectedByTheNameSets) {
  auto layer = chained_layer();
  ReuseLibrary* lib = layer->library("cores");
  ASSERT_NE(lib, nullptr);
  EXPECT_THROW(lib->add(Core("new_16", "Node")), DefinitionError);
  EXPECT_THROW(layer->add_constraint(ConsistencyConstraint::inconsistent_options(
                   "X1", "dup", {PropertyPath::parse("Mode@Node")},
                   {PropertyPath::parse("Tech@Node")}, [](const Bindings&) { return false; })),
               DefinitionError);
}

// ---------------------------------------------------------------------------
// Deterministic retract chain: ascend + drop out-of-scope + re-assessment.
// ---------------------------------------------------------------------------

TEST(RetractChain, AscendDropsScopeAndFlagsDependents) {
  auto layer = std::make_unique<DesignSpaceLayer>("retract");
  Cdo& root = layer->space().add_root("R");
  root.add_property(Property::generalized_issue("Mode", {"A", "B"}, ""));
  root.add_property(Property::design_issue("Qual", ValueDomain::options({"hi", "lo"}), ""));
  Cdo& a = root.specialize("A");
  a.add_property(Property::design_issue("Depth", ValueDomain::options({"d1", "d2"}), ""));
  root.specialize("B");
  layer->add_constraint(ConsistencyConstraint::inconsistent_options(
      "C1", "quality follows the mode", {PropertyPath::parse("Mode@R")},
      {PropertyPath::parse("Qual@R")}, [](const Bindings& b) {
        return get_or_empty(b, "Mode").as_text() == "B" &&
               get_or_empty(b, "Qual").as_text() == "hi";
      }));

  ExplorationSession s(*layer, "R");
  s.decide("Mode", "A");
  ASSERT_EQ(s.current().path(), "R.A");
  s.decide("Depth", "d1");
  s.decide("Qual", "hi");

  s.retract("Mode");
  // Ascended back to the root; Depth (declared on A) is out of scope and
  // dropped; Qual (declared on R) survives but needs re-assessment because
  // its independent Mode changed.
  EXPECT_EQ(s.current().path(), "R");
  EXPECT_EQ(s.value_of("Mode"), std::nullopt);
  EXPECT_EQ(s.value_of("Depth"), std::nullopt);
  EXPECT_EQ(s.state_of("Depth"), ExplorationSession::State::kUnset);
  ASSERT_EQ(s.value_of("Qual"), Value::text("hi"));
  EXPECT_EQ(s.state_of("Qual"), ExplorationSession::State::kNeedsReassessment);
  EXPECT_EQ(s.pending_reassessment(), (std::vector<std::string>{"Qual"}));

  // The kept value is still consistent (Mode is unset), so it re-affirms.
  s.reaffirm("Qual");
  EXPECT_EQ(s.state_of("Qual"), ExplorationSession::State::kSet);

  // Going down the other branch now vetoes the re-decided Qual=hi.
  s.decide("Mode", "B");
  EXPECT_EQ(s.state_of("Qual"), ExplorationSession::State::kNeedsReassessment);
  EXPECT_THROW(s.reaffirm("Qual"), ExplorationError);
}

}  // namespace
}  // namespace dslayer::dsl
