// Exploration sessions: conceptual design over a design space layer.
//
// "Each design decision made with respect to a specific architectural
// component, during conceptual design, corresponds to a pruning of the
// component's design space. The reusable designs that fall outside the
// selected region ... are immediately eliminated from consideration.
// Critical information on the set of reusable designs that do comply with
// the decision, including ranges of performance and power consumption, can
// be then directly provided to the designer." (Section 1)
//
// A session walks one CDO class:
//  * requirements are entered from the system specification (Fig. 8);
//  * decisions on regular design issues filter the candidate core set;
//  * decisions on the CURRENT CDO's generalized issue descend the
//    generalization hierarchy (narrowing the design-space region);
//  * consistency constraints impose ordering (dependents only after
//    independents), veto inconsistent/dominated combinations, flag decided
//    properties for re-assessment when their independents change, derive
//    values (formulas), and bind estimation tools for empty regions;
//  * every action is appended to a trace — the layer's self-documentation
//    extends to the exploration itself.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "dsl/layer.hpp"
#include "dsl/query_stats.hpp"
#include "support/telemetry.hpp"

namespace dslayer::dsl {

class ExplorationSession {
 public:
  /// Lifecycle state of a property value in this session.
  enum class State {
    kUnset,
    kSet,
    kNeedsReassessment,  ///< an independent changed; value kept but flagged
  };

  /// Opens a session exploring the CDO class at `class_path`. Generalized
  /// options on the path from the hierarchy root are recorded as implicit
  /// (structural) decisions. Throws DefinitionError if the path is unknown.
  ExplorationSession(const DesignSpaceLayer& layer, const std::string& class_path);

  const DesignSpaceLayer& layer() const { return *layer_; }

  /// The CDO currently in scope (moves down/up with generalized decisions).
  const Cdo& current() const { return *current_; }

  // -- entering values -------------------------------------------------------

  /// Enters a requirement value (Fig. 8's "the designer enters their
  /// corresponding values"). Throws ExplorationError on domain violations
  /// or consistency conflicts.
  void set_requirement(const std::string& name, Value value);

  /// Decides a design issue. For the current CDO's generalized issue this
  /// descends into the specialized child. Throws ExplorationError if the
  /// issue is unknown here, the value is outside the domain, an independent
  /// property has not been addressed (CC ordering), or the combination is
  /// vetoed by a consistency constraint.
  void decide(const std::string& name, Value value);

  /// Convenience for option-valued issues.
  void decide(const std::string& name, const std::string& option) {
    decide(name, Value::text(option));
  }
  void set_requirement(const std::string& name, const std::string& option) {
    set_requirement(name, Value::text(option));
  }
  void set_requirement(const std::string& name, double number) {
    set_requirement(name, Value::number(number));
  }
  void decide(const std::string& name, double number) { decide(name, Value::number(number)); }

  /// Withdraws a value. Retracting a generalized decision ascends the
  /// hierarchy and drops decisions that are no longer in scope.
  void retract(const std::string& name);

  /// Confirms a value flagged for re-assessment (back to kSet). Throws if
  /// the value is now inconsistent.
  void reaffirm(const std::string& name);

  // -- state -------------------------------------------------------------------

  State state_of(const std::string& name) const;
  std::optional<Value> value_of(const std::string& name) const;

  /// Properties currently flagged for re-assessment.
  std::vector<std::string> pending_reassessment() const;

  /// Full value snapshot: structural + explicit values, then property
  /// defaults for everything else visible. Memoized behind the session's
  /// generation counter; the reference is valid until the next
  /// set_requirement/decide/retract/reaffirm.
  const Bindings& bindings() const;

  /// Options of `issue` not eliminated by consistency constraints under the
  /// current bindings.
  std::vector<std::string> available_options(const std::string& issue) const;

  /// Options eliminated, with the vetoing constraint id. Mirrors decide()'s
  /// veto exactly: only constraints whose DEPENDENT set contains `issue`
  /// eliminate an option. Options that merely conflict through the
  /// independent side are decidable (decide() flags the dependents for
  /// re-assessment instead) and are reported by reassessment_flags().
  std::vector<std::pair<std::string, std::string>> eliminated_options(
      const std::string& issue) const;

  /// Options of `issue` that decide() would ACCEPT but that immediately
  /// violate a constraint through `issue`'s independent side — choosing
  /// them flags the constraint's decided dependents for re-assessment.
  /// Reported with the conflicting constraint id so the designer sees the
  /// consequence before committing.
  std::vector<std::pair<std::string, std::string>> reassessment_flags(
      const std::string& issue) const;

  // -- retrieval ----------------------------------------------------------------

  /// Cores in the selected design-space region complying with every
  /// decision, requirement, and constraint, in cores_under() order. The
  /// session memoizes one sweep per generation as a survivor bitmask over
  /// the scope's filter plan (DESIGN.md §14); this Core* view of it is
  /// built only when rows are asked for (here, report(), the shell's
  /// `candidates`). The reference is valid until the next mutating call.
  const std::vector<const Core*>& candidates() const;

  /// candidates().size() without building the Core* view: the popcount of
  /// the memoized survivor mask.
  std::size_t candidate_count() const;

  /// Range of a figure of merit over the candidates that report it: one
  /// masked pass over the metric column, folded in row order by the NaN
  /// fold rule of dsl::MetricRange (count includes NaN cells).
  using MetricRange = dsl::MetricRange;
  std::optional<MetricRange> metric_range(const std::string& metric) const;

  /// The paper's Section 5.1.5 what-if query: for each OPTION of an
  /// undecided design issue, the range of `metric` over the candidates the
  /// session would retain after tentatively deciding that option —
  /// "allowing the designer to consider the performance ranges and other
  /// figures of merit, for each such alternatives". Computed from the
  /// memoized survivor mask in one pass, never a rescan per option:
  ///  * a regular filtering issue groups the survivors by their text
  ///    binding of the issue (absent and non-text bindings fall in no
  ///    option);
  ///  * a generalized issue partitions the rows by subtree — each child
  ///    of the issue's owner is one contiguous row range of the plan
  ///    (cores indexed at the owner itself fall in no option);
  ///  * an integration parameter filters nothing, so every option shares
  ///    metric_range().
  /// Options vetoed by constraints are omitted, as are options whose
  /// tentative candidates report no value for `metric` — every range
  /// returned has count > 0.
  std::map<std::string, MetricRange> option_ranges(const std::string& issue,
                                                   const std::string& metric) const;

  // -- derivation & estimation -----------------------------------------------------

  /// Value derived by a formula constraint (CC2-style); nullopt if no
  /// formula applies or its independents are not all bound.
  std::optional<Value> derived(const std::string& property) const;

  /// Estimation fallback (CC3): ranks the behavioral descriptions visible
  /// at the current CDO by the estimator bound to `dependent_property`,
  /// ascending (best first). Throws ExplorationError if no estimator
  /// constraint applies or the tool is missing.
  struct BehaviorRank {
    std::string bd_name;
    double value = 0.0;
  };
  std::vector<BehaviorRank> rank_behaviors(const std::string& dependent_property) const;

  // -- behavioral decomposition (DI7) --------------------------------------------------

  /// One operator instance of the behavioral description in scope, mapped
  /// to the CDO class that implements it (Section 5.1.6): the paper's
  /// "FOR ALL Oper := OPERATORS(BD@...)" enumeration.
  struct OperatorSite {
    std::string bd_name;
    int op_id = 0;
    behavior::OpKind kind = behavior::OpKind::kAssign;
    int line = 0;
    unsigned width_bits = 0;
    std::string cdo_path;  ///< registered operator class (empty if none)
  };

  /// Enumerates the operator instances of the most specific behavioral
  /// description visible at the current CDO, resolved against the layer's
  /// operator-class registry. Throws ExplorationError if no BD is visible.
  std::vector<OperatorSite> behavioral_decomposition() const;

  /// Opens the conceptual design of one operator site: a fresh session on
  /// the operator's CDO class, with a WordSize requirement pre-entered from
  /// the site's datapath width when that CDO declares one. Throws
  /// ExplorationError if the site has no registered class.
  ExplorationSession open_operator_session(const OperatorSite& site) const;

  // -- self-documentation & telemetry ---------------------------------------------

  /// Human-readable narrative (descent, CONFLICT and re-assessment notes
  /// the journal does not hold; kept for scripts and examples). The
  /// structured record is journal().
  const std::vector<std::string>& trace() const { return trace_; }

  /// Human-readable session summary: scope, values, candidates, ranges.
  std::string report() const;

  /// The session's telemetry hub: per-kind counters and per-query-kind
  /// latency histograms. Mutable through a const session — observing a
  /// query is not a state change.
  telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// The replay journal — the session's only event record: every
  /// state-mutating event (SessionOpened, RequirementSet, Decision,
  /// Retract, Reaffirm) since construction, in order, numbered 1..n,
  /// unbounded. A copied session gets its own copy.
  const std::vector<telemetry::Event>& journal() const { return journal_; }

  /// Writes the replay journal as JSONL (one event per line) — the
  /// record half of record/replay debugging.
  void export_journal(std::ostream& out) const;
  std::string export_journal() const;

  /// Rebuilds a session from a JSONL journal: the first event must be
  /// SessionOpened; RequirementSet/Decision/Retract/Reaffirm events are
  /// re-applied in sequence, everything else is ignored. Because the
  /// engine is deterministic, the result's report() and candidates() match
  /// the recording session's byte for byte. Throws ExplorationError on
  /// malformed journals and surfaces the same errors the original calls
  /// would have raised.
  static ExplorationSession replay(const DesignSpaceLayer& layer, const std::string& jsonl);

  // -- observability & prefilters ---------------------------------------------------

  /// Declares a PredicateAtom conjunction ACCEPT-prefilter for the
  /// custom core filter registered under requirement `name` (DESIGN.md
  /// §14): any candidate row where every property the atoms reference
  /// resolves (binding column, metric column, or session binding) and
  /// every atom holds is treated as compliant WITHOUT running the
  /// lambda — the columnar engine proves those rows word-parallel
  /// through the SIMD kernels and only the residual runs interpreted.
  /// The declaration is a performance promise by the caller ("rows
  /// satisfying these atoms always pass my filter"); rows the atoms do
  /// not prove still go through the lambda, so an overly conservative
  /// prefilter only costs speed. The reference scan in tests/ ignores
  /// prefilters entirely, which is what lets the oracle suite cross-check
  /// the declaration against the full lambda. Passing an empty vector
  /// clears the declaration. Invalidates memoized candidates.
  void declare_prefilter(const std::string& name, std::vector<PredicateAtom> pass_when);

  /// Counters for this session's queries: constraint evaluations, core
  /// compliance checks, cache hits/misses. A view over the telemetry
  /// counters (resetting them does not erase the trace or journal).
  QueryStats query_stats() const { return stats_view(telemetry_); }
  void reset_query_stats() const { telemetry_.reset_counters(); }

 private:
  struct Entry {
    Value value;
    State state = State::kUnset;
    bool is_requirement = false;
    bool is_structural = false;  ///< implied by the session's class path
  };

  const Property& require_property(const std::string& name, PropertyKind kind) const;
  void check_ordering(const std::string& name) const;
  void check_consistency(const std::string& name, const Value& value) const;
  void scan_conflicts(const std::string& name);
  void invalidate_dependents(const std::string& name);
  void log(std::string message);
  /// Appends a state-mutating event to the journal and counts it.
  void record(telemetry::EventKind kind, std::string subject, std::string detail = {});

  /// Invalidates the memoized queries (bump after every value or scope
  /// mutation — the caches re-fill lazily).
  void touch() { ++generation_; }

  Bindings compute_bindings() const;
  /// The memoized sweep for the current generation (runs it on a miss).
  const SurvivorMask& survivors() const;
  SurvivorMask compute_survivors() const;

  const DesignSpaceLayer* layer_;
  const Cdo* root_;
  const Cdo* current_;
  std::map<std::string, Entry> entries_;
  std::map<std::string, std::vector<PredicateAtom>> prefilters_;
  std::vector<std::string> trace_;

  // Memoized query layer: results tagged with the generation they were
  // computed at; any mutation bumps generation_ and implicitly invalidates.
  std::uint64_t generation_ = 1;
  mutable std::uint64_t bindings_generation_ = 0;  // 0 = never computed
  mutable Bindings bindings_cache_;
  // The sweep memo: the survivor mask over `plan`'s table rows, valid
  // while both the session generation and the layer's plan generation
  // (a re-index or constraint change replaces plans) match. `rows` is the
  // mask's Core* view, filled by the first candidates() call.
  struct SweepMemo {
    std::uint64_t generation = 0;  // 0 = never computed
    std::uint64_t plan_generation = 0;
    const CoreFilterPlan* plan = nullptr;
    SurvivorMask mask;
    std::vector<const Core*> rows;
  };
  mutable SweepMemo sweep_;

  mutable telemetry::Telemetry telemetry_;
  std::vector<telemetry::Event> journal_;
};

}  // namespace dslayer::dsl
