#include "walks.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "domains/crypto.hpp"
#include "dsl/shell.hpp"
#include "support/strings.hpp"

namespace perfbench {

using namespace dslayer;

namespace {

const std::vector<std::string> kMetrics = {domains::kMetricArea, domains::kMetricClockNs,
                                           domains::kMetricLatencyNs};

/// NumberOfSlices is an integration parameter cores do not bind; its
/// domain is every positive integer, CC7 bounds it below by EOL / width.
const std::vector<double> kSliceCounts = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 192};

constexpr std::size_t kMaxStepsPerWalk = 48;
/// Responses stay well under the server's 4 MiB slow-reader cutoff.
constexpr std::size_t kMaxBodyBytes = std::size_t{3} << 20;

class WalkGenerator {
 public:
  WalkGenerator(const dsl::DesignSpaceLayer& layer, std::uint64_t seed,
                const WalkOptions& options, Script& script)
      : engine_(layer),
        rng_(seed),
        options_(options),
        script_(script),
        backtrack_phase_(rng_.below(2)),
        metric_turn_(rng_.below(kMetrics.size())) {}

  /// Every walk has the same schedule; the seed picks the values. Fixed
  /// shapes keep the cost profile of a run independent of the seed.
  void walk() {
    walk_steps_ = 0;
    if (!emit(cat("open ", domains::kPathOMM))) return;
    emit(cat("req ", domains::kEOL, " 768"));
    emit(cat("req ", domains::kOperandCoding, " 2's complement"));
    emit(cat("req ", domains::kResultCoding, " Redundant"));
    emit(cat("req ", domains::kModuloIsOdd, " Guaranteed"));

    std::set<std::string> given_up;  // issues no value could be decided for
    std::size_t regular = 0;
    while (walk_steps_ < kMaxStepsPerWalk) {
      const dsl::Property* issue = next_issue(given_up);
      if (issue == nullptr) break;
      const bool first_regular = !issue->generalized && regular == 0;
      if (!issue->generalized && regular++ == options_.max_regular) break;
      what_if(*issue);
      if (!decide(*issue)) {
        given_up.insert(issue->name);
        continue;
      }
      if (!first_regular) continue;
      // Every other walk backtracks on its first regular issue: withdraw
      // the decision, look again, decide anew.
      if ((script_.walks + backtrack_phase_) % 2 == 0 &&
          emit(cat("retract ", issue->name))) {
        what_if(*issue);
        if (!decide(*issue)) given_up.insert(issue->name);
      }
      emit(cat("derived ", domains::kLatencyCycles));
      emit("pending");
      const auto pending = session().pending_reassessment();
      if (!pending.empty()) emit(cat("reaffirm ", pending.front()));
    }
    if (options_.render_leaves && session().current().is_leaf()) {
      emit("candidates");
      emit("report");
    }
    ++script_.walks;
  }

 private:
  const dsl::ExplorationSession& session() const { return *engine_.session(); }

  /// Executes `command`; only an `ok` command within the size limit
  /// becomes a step, with its output as the expected body.
  bool emit(const std::string& command) {
    std::ostringstream out;
    if (engine_.execute(command, out) != dsl::ShellEngine::Status::kOk) return false;
    std::string body = out.str();
    if (body.size() > kMaxBodyBytes) return false;
    if (!body.empty() && body.back() != '\n') body += '\n';
    script_.steps.push_back(Step{command, std::move(body), classify(command)});
    ++walk_steps_;
    return true;
  }

  /// The scope's generalized issue while one is open; then the undecided
  /// regular design issues in the layer's declaration order. A fixed order
  /// keeps every walk the same shape (wide what-if answers first, narrow
  /// ones last), so the seed varies the values, not the cost profile.
  const dsl::Property* next_issue(const std::set<std::string>& given_up) const {
    const dsl::Cdo& scope = session().current();
    if (const dsl::Property* generalized = scope.generalized_issue()) {
      return given_up.contains(generalized->name) ? nullptr : generalized;
    }
    std::vector<const dsl::Property*> open;
    for (const dsl::Property* p : scope.visible_properties()) {
      if (p->kind != dsl::PropertyKind::kDesignIssue || p->generalized) continue;
      if (given_up.contains(p->name) || session().value_of(p->name).has_value()) continue;
      if (p->domain.kind() == dsl::ValueDomain::Kind::kAny) continue;
      open.push_back(p);
    }
    return open.empty() ? nullptr : open.front();
  }

  static bool enumerated(const dsl::Property& issue) {
    return issue.domain.kind() == dsl::ValueDomain::Kind::kOptions;
  }

  const std::string& next_metric() { return kMetrics[metric_turn_++ % kMetrics.size()]; }

  void what_if(const dsl::Property& issue) {
    if (enumerated(issue)) {
      emit(cat("options ", issue.name));
      emit(cat("ranges ", issue.name, " ", next_metric()));
    }
    emit(cat("range ", next_metric()));
  }

  /// Candidate values: for an issue that filters cores, the values that
  /// at least 5% of a sample of the surviving cores bind (enumerated ones
  /// also still available), so a decision never strands the walk on a
  /// handful of base-library cores; otherwise the surviving options, or
  /// the domain's slice counts.
  std::vector<std::string> values_for(const dsl::Property& issue) {
    std::vector<std::string> values;
    if (issue.name == domains::kImplStyle) return {"Hardware"};  // where the catalog is
    if (issue.filters_cores) {
      std::map<std::string, std::size_t> bound;
      std::size_t sampled = 0;
      const auto& cores = session().candidates();
      const std::size_t stride = std::max<std::size_t>(1, cores.size() / 8192);
      for (std::size_t i = 0; i < cores.size(); i += stride, ++sampled) {
        if (const auto v = cores[i]->binding(issue.name)) {
          ++bound[v->kind() == dsl::Value::Kind::kNumber ? format_double(v->as_number(), 17)
                                                          : v->to_string()];
        }
      }
      std::vector<std::string> open;
      if (enumerated(issue)) open = session().available_options(issue.name);
      for (const auto& [value, count] : bound) {
        const bool available =
            !enumerated(issue) || std::find(open.begin(), open.end(), value) != open.end();
        if (available && count * 20 >= sampled) values.push_back(value);
      }
    } else if (enumerated(issue)) {
      values = session().available_options(issue.name);
    } else {
      for (const double v : kSliceCounts) values.push_back(format_double(v, 17));
    }
    // Balanced, not independent, draws: the k-th decision of an issue in
    // this script tries the values from a seeded rotation offset plus k,
    // so across a script's walks every value leads equally often and two
    // seeds differ in which walk takes which branch, not in how often.
    if (values.empty()) return values;
    auto [offset, inserted] = rotation_.try_emplace(issue.name, 0);
    if (inserted) offset->second = rng_.below(values.size());
    std::rotate(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(
                                                      offset->second++ % values.size()),
                values.end());
    return values;
  }

  bool decide(const dsl::Property& issue) {
    for (const std::string& value : values_for(issue)) {
      if (emit(cat("decide ", issue.name, " ", value))) return true;
    }
    return false;
  }

  dsl::ShellEngine engine_;
  Rng rng_;
  std::map<std::string, std::size_t> rotation_;  ///< per issue: next leading value
  const WalkOptions& options_;
  Script& script_;
  std::size_t backtrack_phase_;
  std::size_t metric_turn_;
  std::size_t walk_steps_ = 0;
};

}  // namespace

std::vector<Script> generate_scripts(const Catalog& catalog,
                                     const std::vector<std::string>& sessions,
                                     std::uint64_t seed, const WalkOptions& options,
                                     unsigned threads) {
  std::vector<Script> scripts(sessions.size());
  const auto build = [&](std::size_t i) {
    scripts[i].session = sessions[i];
    const auto read = catalog.shared->read_lock();
    WalkGenerator generator(catalog.shared->layer(),
                            seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull * (i + 1), options,
                            scripts[i]);
    for (std::size_t w = 0; w < options.walks; ++w) generator.walk();
  };
  std::vector<std::thread> pool;
  const unsigned n = std::max(1u, threads);
  for (unsigned t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < scripts.size(); i += n) build(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
  return scripts;
}

std::string script_text(const std::vector<Script>& scripts) {
  std::string text;
  for (const Script& script : scripts) {
    for (const Step& step : script.steps) text += cat(script.session, " ", step.command, "\n");
  }
  return text;
}

std::string verb_mix(const std::vector<Script>& scripts) {
  std::map<std::string, std::size_t> counts;
  std::size_t total = 0;
  for (const Script& script : scripts) {
    for (const Step& step : script.steps) {
      ++counts[step.command.substr(0, step.command.find(' '))];
      ++total;
    }
  }
  std::string mix;
  for (const auto& [verb, count] : counts) {
    mix += cat(mix.empty() ? "" : " ", verb, " ",
               format_double(100.0 * static_cast<double>(count) / static_cast<double>(total), 3),
               "%");
  }
  return mix;
}

}  // namespace perfbench
