// Property-based random walks over the crypto layer's exploration engine.
//
// Hundreds of random action sequences (requirements, decisions, retractions,
// re-affirmations) are applied to ExplorationSession; after every step a set
// of engine invariants must hold:
//   I1  candidates are always a subset of the cores under the current CDO;
//   I2  every candidate satisfies every explicitly-decided, core-filtering
//       design issue binding;
//   I3  the current CDO is always within the session's root subtree;
//   I4  a successful regular (non-generalized) decision never grows the
//       candidate set;
//   I5  every pending-reassessment property still has a value;
//   I6  all rejections surface as ExplorationError (never a crash or a
//       foreign exception type);
//   I7  (replay determinism) exporting the session's journal and replaying
//       it into a fresh session reproduces the final report() and
//       candidate set byte for byte.

#include <gtest/gtest.h>

#include <set>

#include "domains/crypto.hpp"
#include "support/rng.hpp"

namespace dslayer {
namespace {

using dsl::Core;
using dsl::ExplorationSession;
using dsl::Property;
using dsl::Value;
using dsl::ValueDomain;

/// Candidate requirement values to try, per property kind.
Value random_requirement_value(Rng& rng, const Property& p) {
  switch (p.domain.kind()) {
    case ValueDomain::Kind::kOptions: {
      const auto& options = p.domain.option_list();
      return Value::text(options[rng.next_below(options.size())]);
    }
    case ValueDomain::Kind::kRealRange: {
      const double choices[] = {0.5, 2.0, 8.0, 100.0, 5000.0, 1.0e6};
      return Value::number(choices[rng.next_below(6)]);
    }
    case ValueDomain::Kind::kIntegerSet: {
      const double choices[] = {8, 16, 64, 128, 768, 1024};
      return Value::number(choices[rng.next_below(6)]);
    }
    default:
      return Value::number(1.0);
  }
}

void check_invariants(const ExplorationSession& s, const std::string& root_path) {
  // I3: scope stays inside the session root's subtree.
  EXPECT_EQ(s.current().path().rfind(root_path, 0), 0u) << s.current().path();

  // I1: candidates within the region.
  std::set<const Core*> region;
  for (const Core* core : s.layer().cores_under(s.current())) region.insert(core);
  const auto candidates = s.candidates();
  for (const Core* core : candidates) {
    EXPECT_TRUE(region.contains(core)) << core->name();
  }

  // I2: decided filtering issues are respected by every candidate.
  for (const dsl::Property* p : s.current().visible_properties()) {
    if (p->kind != dsl::PropertyKind::kDesignIssue || !p->filters_cores) continue;
    const auto value = s.value_of(p->name);
    if (!value.has_value() || p->generalized) continue;
    if (s.state_of(p->name) != ExplorationSession::State::kSet) continue;
    for (const Core* core : candidates) {
      const auto binding = core->binding(p->name);
      ASSERT_TRUE(binding.has_value()) << core->name() << " lacks " << p->name;
      EXPECT_EQ(*binding, *value) << core->name();
    }
  }

  // I5: flagged properties still carry their value.
  for (const std::string& name : s.pending_reassessment()) {
    EXPECT_TRUE(s.value_of(name).has_value()) << name;
  }
}

class ExplorationFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExplorationFuzz, RandomWalkPreservesInvariants) {
  auto layer = domains::build_crypto_layer();
  Rng rng(GetParam() * 7919 + 13);

  const char* roots[] = {domains::kPathOMM, domains::kPathOMMH, domains::kPathOMMHM,
                         domains::kPathAdder, domains::kPathExponentiator};
  const std::string root_path = roots[rng.next_below(5)];
  ExplorationSession s(*layer, root_path);

  for (int step = 0; step < 60; ++step) {
    // Visible, enumerable actions at this point.
    std::vector<const Property*> requirements;
    std::vector<const Property*> issues;
    for (const Property* p : s.current().visible_properties()) {
      if (p->kind == dsl::PropertyKind::kRequirement) requirements.push_back(p);
      if (p->kind == dsl::PropertyKind::kDesignIssue) issues.push_back(p);
    }

    const std::size_t previous_candidates = s.candidates().size();
    const auto action = rng.next_below(10);
    try {
      if (action < 3 && !requirements.empty()) {
        const Property* p = requirements[rng.next_below(requirements.size())];
        s.set_requirement(p->name, random_requirement_value(rng, *p));
      } else if (action < 8 && !issues.empty()) {
        const Property* p = issues[rng.next_below(issues.size())];
        if (p->domain.kind() == ValueDomain::Kind::kOptions) {
          const auto options = s.available_options(p->name);
          if (options.empty()) continue;
          const bool was_generalized = p->generalized;
          const bool fresh = !s.value_of(p->name).has_value();
          s.decide(p->name, options[rng.next_below(options.size())]);
          // I4: a FRESH regular decision can only shrink the candidate set
          // (revisions may re-admit cores excluded by the previous value).
          if (!was_generalized && p->filters_cores && fresh) {
            EXPECT_LE(s.candidates().size(), previous_candidates) << p->name;
          }
        } else {
          const double widths[] = {2, 4, 8, 16, 32, 64, 128};
          s.decide(p->name, Value::number(widths[rng.next_below(7)]));
        }
      } else if (action == 8) {
        const auto pending = s.pending_reassessment();
        if (!pending.empty()) s.reaffirm(pending[rng.next_below(pending.size())]);
      } else if (!issues.empty()) {
        const Property* p = issues[rng.next_below(issues.size())];
        if (s.value_of(p->name).has_value()) s.retract(p->name);
      }
    } catch (const ExplorationError&) {
      // I6: rejection is the expected failure mode; the session must stay
      // consistent afterwards (checked below).
    }
    check_invariants(s, root_path);
  }

  // I7: the journal is a faithful recording — replaying it rebuilds an
  // identical session (rejected actions never reach the journal, so the
  // replay applies cleanly).
  const std::string journal = s.export_journal();
  const ExplorationSession replayed = ExplorationSession::replay(*layer, journal);
  EXPECT_EQ(replayed.report(), s.report());
  EXPECT_EQ(replayed.candidates(), s.candidates());
  EXPECT_EQ(replayed.current().path(), s.current().path());
  EXPECT_EQ(replayed.export_journal(), journal);
}

INSTANTIATE_TEST_SUITE_P(Walks, ExplorationFuzz,
                         ::testing::Range(1u, 26u));  // 25 independent walks

TEST(ExplorationFuzz, TechnologyFirstHierarchyWalk) {
  domains::CryptoLayerOptions options;
  options.hierarchy = domains::OmmHierarchy::kTechnologyFirst;
  auto layer = domains::build_crypto_layer(options);
  Rng rng(4242);
  ExplorationSession s(*layer, domains::kPathOMMH);
  for (int step = 0; step < 40; ++step) {
    try {
      switch (rng.next_below(4)) {
        case 0: s.set_requirement(domains::kEOL, 768.0); break;
        case 1: {
          const auto options_left = s.available_options(domains::kFabTech);
          if (!options_left.empty() && !s.value_of(domains::kFabTech).has_value()) {
            s.decide(domains::kFabTech, options_left[rng.next_below(options_left.size())]);
          }
          break;
        }
        case 2: {
          const auto options_left = s.available_options(domains::kAlgorithm);
          if (!options_left.empty()) {
            s.decide(domains::kAlgorithm, options_left[rng.next_below(options_left.size())]);
          }
          break;
        }
        default:
          if (s.value_of(domains::kFabTech).has_value()) s.retract(domains::kFabTech);
      }
    } catch (const ExplorationError&) {
    }
    check_invariants(s, domains::kPathOMMH);
  }
  const ExplorationSession replayed = ExplorationSession::replay(*layer, s.export_journal());
  EXPECT_EQ(replayed.report(), s.report());
  EXPECT_EQ(replayed.candidates(), s.candidates());
  EXPECT_EQ(replayed.export_journal(), s.export_journal());
}

}  // namespace
}  // namespace dslayer
