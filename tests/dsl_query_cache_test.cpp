// The indexed + cached query layer, and the eliminated-options/decide
// agreement it must preserve:
//  * eliminated_options() mirrors decide()'s veto exactly (dependent-side
//    only); independent-side conflicts surface via reassessment_flags();
//  * option_ranges() partitions the cached candidate set and never returns
//    empty (count == 0) ranges;
//  * bindings()/candidates() memoize behind the generation counter, with
//    QueryStats evidencing hits, misses, and invalidation;
//  * the sweep memo is a survivor mask: one cold sweep per generation
//    serves candidate_count(), metric_range(), option_ranges() and
//    candidates(); a replaced filter plan (re-index, SharedLayer write
//    epoch) is never answered from a stale mask; sessions on reader
//    threads fold one shared plan concurrently (run under TSan in CI); a
//    deadline that passes mid-sweep unwinds it and leaves the session
//    answering exactly like an untouched twin;
//  * the per-CDO constraint index agrees with a linear applies_at scan and
//    survives add_constraint() invalidation;
//  * retract() of a generalized decision ascends, drops out-of-scope
//    values, and flags dependents deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "dsl/exploration.hpp"
#include "service/shared_layer.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

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

  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "X1", "old tech cannot drive w16", {PropertyPath::parse("Tech@Node")},
      {PropertyPath::parse("Width@Node")},
      {PredicateAtom::equals("Tech", Value::text("old")),
       PredicateAtom::equals("Width", Value::text("w16"))}));
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "X2", "strict mode forbids old tech", {PropertyPath::parse("Mode@Node")},
      {PropertyPath::parse("Tech@Node")},
      {PredicateAtom::equals("Mode", Value::text("strict")),
       PredicateAtom::equals("Tech", Value::text("old"))}));

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
// The survivor-mask memo behind candidates() and the what-if aggregates.
// ---------------------------------------------------------------------------

/// R partitions on the generalized issue Mode (A | B, A with its own
/// generalized Depth); Tech and Width filter; area/clock are metrics.
std::unique_ptr<DesignSpaceLayer> walk_layer(std::size_t core_count) {
  auto layer = std::make_unique<DesignSpaceLayer>("walk");
  Cdo& root = layer->space().add_root("R");
  root.add_property(Property::generalized_issue("Mode", {"A", "B"}, ""));
  root.add_property(Property::design_issue("Tech", ValueDomain::options({"new", "old"}), ""));
  root.add_property(Property::design_issue("Width", ValueDomain::options({"w16", "w32"}), ""));
  Cdo& a = root.specialize("A");
  a.add_property(Property::generalized_issue("Depth", {"d1", "d2"}, ""));
  a.specialize("d1");
  a.specialize("d2");
  root.specialize("B");
  Rng rng(17);
  ReuseLibrary& lib = layer->add_library("cores");
  for (std::size_t i = 0; i < core_count; ++i) {
    Core c(cat("c", i), "R");
    if (rng.next_below(4) != 0) {
      const bool is_a = rng.next_bool();
      c.bind("Mode", Value::text(is_a ? "A" : "B"));
      if (is_a && rng.next_bool()) c.bind("Depth", Value::text(rng.next_bool() ? "d1" : "d2"));
    }
    if (rng.next_below(5) != 0) c.bind("Tech", Value::text(rng.next_bool() ? "new" : "old"));
    if (rng.next_below(5) != 0) c.bind("Width", Value::text(rng.next_bool() ? "w16" : "w32"));
    if (rng.next_below(6) != 0) c.set_metric("area", static_cast<double>(rng.next_below(1000)));
    if (rng.next_below(3) != 0) c.set_metric("clock", static_cast<double>(rng.next_below(50)));
    lib.add(std::move(c));
  }
  layer->index_cores();
  return layer;
}

/// One random step of a walk over walk_layer(); rejected steps are no-ops.
void random_step(ExplorationSession& s, Rng& rng) {
  const char* issues[] = {"Mode", "Depth", "Tech", "Width"};
  const char* name = issues[rng.next_below(4)];
  try {
    if (rng.next_below(3) == 0) {
      if (s.value_of(name).has_value()) s.retract(name);
      return;
    }
    const auto options = s.available_options(name);
    if (!options.empty()) s.decide(name, options[rng.next_below(options.size())]);
  } catch (const Error&) {
  }
}

/// Sweeps the session has run (memo hits record no timing).
std::uint64_t sweeps_of(const ExplorationSession& s) {
  const auto timings = s.telemetry().timings();
  const auto it = timings.find("candidates");
  return it == timings.end() ? 0 : it->second.count;
}

/// Every what-if answer of `s` rendered bit-exactly, for comparing sessions.
std::string what_if_fingerprint(const ExplorationSession& s) {
  std::string out = std::to_string(s.candidate_count());
  const auto put = [&out](const ExplorationSession::MetricRange& r) {
    out += " " + std::to_string(std::bit_cast<std::uint64_t>(r.min)) + ":" +
           std::to_string(std::bit_cast<std::uint64_t>(r.max)) + "#" + std::to_string(r.count);
  };
  for (const char* metric : {"area", "clock"}) {
    if (const auto range = s.metric_range(metric)) put(*range);
    for (const Property* p : s.current().visible_properties()) {
      if (p->kind != PropertyKind::kDesignIssue) continue;
      for (const auto& [option, range] : s.option_ranges(p->name, metric)) {
        out += " " + option;
        put(range);
      }
    }
  }
  return out;
}

TEST(SweepMemo, CandidateCountMatchesCandidatesAcrossAWalk) {
  auto layer = walk_layer(700);
  ExplorationSession s(*layer, "R");
  Rng rng(5);
  for (int step = 0; step < 60; ++step) {
    random_step(s, rng);
    // Count first (mask only), then the rows view, then the count again.
    const std::size_t count = s.candidate_count();
    EXPECT_EQ(count, s.candidates().size()) << "step " << step;
    EXPECT_EQ(s.candidate_count(), count);
    for (const Core* core : s.candidates()) {
      const auto& region = layer->cores_under(s.current());
      EXPECT_NE(std::find(region.begin(), region.end(), core), region.end());
    }
  }
}

TEST(SweepMemo, OneColdSweepPerGenerationServesEveryQuery) {
  auto layer = walk_layer(700);
  ExplorationSession s(*layer, "R");
  Rng rng(9);
  std::uint64_t cold_steps = 0;
  for (int step = 0; step < 20; ++step) {
    const std::size_t journaled = s.journal().size();
    random_step(s, rng);
    // A rejected step changes nothing, so the previous sweep still serves.
    const std::uint64_t cold = s.journal().size() != journaled ? 1 : 0;
    const std::uint64_t sweeps = sweeps_of(s);
    const std::uint64_t checks = s.query_stats().compliance_checks;
    const std::size_t count = s.candidate_count();
    (void)s.metric_range("area");
    (void)s.option_ranges("Tech", "clock");
    (void)s.option_ranges("Mode", "area");
    const std::size_t rows = s.candidates().size();
    (void)s.metric_range("clock");
    EXPECT_EQ(sweeps_of(s), sweeps + cold) << "step " << step;
    EXPECT_EQ(s.query_stats().compliance_checks - checks,
              cold * layer->cores_under(s.current()).size());
    EXPECT_EQ(rows, count);
    cold_steps += cold;
  }
  EXPECT_GT(cold_steps, 5u);
}

TEST(SweepMemo, ReplacedPlanIsNeverAnsweredFromAStaleMask) {
  auto layer = walk_layer(300);
  ExplorationSession s(*layer, "R");
  s.decide("Tech", "new");
  const std::size_t before = s.candidate_count();
  const auto area_before = s.metric_range("area");
  ASSERT_TRUE(area_before.has_value());

  // A new core the session's decisions keep, with an area above every
  // other: the re-index replaces the plan under an unchanged session.
  Core fresh("fresh", "R");
  fresh.bind("Tech", Value::text("new")).set_metric("area", 5000.0);
  layer->library("cores")->add(std::move(fresh));
  layer->index_cores();

  EXPECT_EQ(s.candidate_count(), before + 1);
  EXPECT_EQ(s.candidates().size(), before + 1);
  const auto area_after = s.metric_range("area");
  ASSERT_TRUE(area_after.has_value());
  EXPECT_EQ(area_after->count, area_before->count + 1);
  EXPECT_EQ(area_after->max, 5000.0);
}

TEST(SweepMemo, SharedLayerEpochGivesAFreshAnswer) {
  auto layer = walk_layer(300);
  service::SharedLayer shared(*layer);
  ExplorationSession s(shared.layer(), "R");
  s.decide("Width", "w32");
  const std::uint64_t epoch = shared.epoch();
  std::size_t before = 0;
  std::optional<ExplorationSession::MetricRange> clock_before;
  {
    const auto reader = shared.read_lock();
    before = s.candidate_count();
    clock_before = s.metric_range("clock");
  }
  ASSERT_TRUE(clock_before.has_value());

  // A catalog mutation epoch: the writer adds a library whose core the
  // session keeps; the epoch re-indexes and re-primes every plan.
  shared.write([](DesignSpaceLayer& l) {
    Core late("late", "R");
    late.bind("Width", Value::text("w32")).set_metric("clock", -1.0);
    l.add_library("late").add(std::move(late));
  });
  EXPECT_GT(shared.epoch(), epoch);

  const auto reader = shared.read_lock();
  EXPECT_EQ(s.candidate_count(), before + 1);
  const auto clock_after = s.metric_range("clock");
  ASSERT_TRUE(clock_after.has_value());
  EXPECT_EQ(clock_after->min, -1.0);
  EXPECT_EQ(clock_after->count, clock_before->count + 1);
  // A session opened fresh on the new epoch agrees with the reused one.
  ExplorationSession fresh(shared.layer(), "R");
  fresh.decide("Width", "w32");
  EXPECT_EQ(what_if_fingerprint(fresh), what_if_fingerprint(s));
}

TEST(SweepMemo, ReaderThreadsFoldOneSharedPlanConcurrently) {
  // Sessions on executor workers share one primed plan under the read
  // lock. Each thread replays its own walk and must land on the answers a
  // single thread computed; ci.sh runs this under ThreadSanitizer.
  auto layer = walk_layer(6000);
  service::SharedLayer shared(*layer);
  constexpr int kThreads = 4;
  constexpr int kSteps = 12;
  const auto walk = [&shared](int thread, std::vector<std::string>& out) {
    const auto reader = shared.read_lock();
    ExplorationSession s(shared.layer(), "R");
    Rng rng(static_cast<std::uint64_t>(thread) + 100);
    for (int step = 0; step < kSteps; ++step) {
      random_step(s, rng);
      out.push_back(what_if_fingerprint(s));
    }
  };
  std::vector<std::vector<std::string>> expected(kThreads), got(kThreads);
  for (int t = 0; t < kThreads; ++t) walk(t, expected[t]);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(walk, t, std::ref(got[t]));
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected[t]) << "thread " << t;
}

TEST(SweepMemo, DeadlinePassingMidSweepThrowsAndLeavesTheSessionAsItWas) {
  // A custom filter stalls on the first row it sees while `stall` is set,
  // well past the installed deadline. The sweep's first checkpoint runs
  // before that row, in time, so only a checkpoint inside the word loop
  // can see the deadline pass. Checkpoints read the clock every
  // support::kCheckpointStride calls, so the catalog spans enough mask
  // words to cross more than one clock read after the stalled row.
  constexpr std::size_t kCores = std::size_t{1} << 17;
  auto layer = std::make_unique<DesignSpaceLayer>("deadline");
  layer->space().add_root("R").add_property(
      Property::requirement("Budget", ValueDomain::real_range(0.0, 1e6), ""));
  ReuseLibrary& lib = layer->add_library("cores");
  for (std::size_t i = 0; i < kCores; ++i) {
    Core c(cat("c", i), "R");
    c.set_metric("area", static_cast<double>(i % 1000));
    lib.add(std::move(c));
  }
  bool stall = false;
  layer->set_core_filter("Budget", [&stall](const Core& core, const Bindings& b) {
    if (stall) {
      stall = false;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return *core.metric("area") <= get_or_empty(b, "Budget").as_number();
  });
  layer->index_cores();

  ExplorationSession doomed(*layer, "R");
  ExplorationSession twin(*layer, "R");
  doomed.set_requirement("Budget", 499.0);
  twin.set_requirement("Budget", 499.0);
  // The twin's sweep builds the shared filter plan, so the doomed sweep
  // reaches its first checkpoint at once.
  const std::size_t expected = twin.candidate_count();

  stall = true;
  {
    const support::DeadlineScope deadline(support::Deadline::after_ms(25));
    EXPECT_THROW((void)doomed.candidate_count(), DeadlineExceeded);
  }
  EXPECT_FALSE(stall);  // the filter ran: the sweep was cancelled mid-way

  // Oracle: the cancelled session answers exactly like its twin.
  EXPECT_EQ(doomed.report(), twin.report());
  EXPECT_EQ(doomed.candidates(), twin.candidates());
  EXPECT_EQ(doomed.candidate_count(), expected);
  EXPECT_EQ(expected, kCores / 1000 * 500 + std::min<std::size_t>(kCores % 1000, 500));
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
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "X3", "later rule", {PropertyPath::parse("Mode@Node")}, {PropertyPath::parse("Width@Node")},
      {PredicateAtom::equals("Width", Value::text("w64"))}));  // no option is w64
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
  EXPECT_THROW(layer->add_constraint(ConsistencyConstraint::inconsistent_when(
                   "X1", "dup", {PropertyPath::parse("Mode@Node")},
                   {PropertyPath::parse("Tech@Node")},
                   {PredicateAtom::equals("Tech", Value::text("none"))})),
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
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "C1", "quality follows the mode", {PropertyPath::parse("Mode@R")},
      {PropertyPath::parse("Qual@R")},
      {PredicateAtom::equals("Mode", Value::text("B")),
       PredicateAtom::equals("Qual", Value::text("hi"))}));

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
