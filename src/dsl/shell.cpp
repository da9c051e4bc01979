#include "dsl/shell.hpp"

#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace dslayer::dsl {

namespace {

constexpr const char* kHelp = R"(commands:
  tree                     hierarchy with core census
  doc [path]               layer / CDO documentation
  open <path>              open an exploration session at a CDO class
  req <name> <value>       enter a requirement (number or option text)
  decide <name> <value>    decide a design issue
  retract <name>           withdraw a value (ascends for generalized issues)
  reaffirm <name>          confirm a value flagged for re-assessment
  options <issue>          available / eliminated / re-assessment-flagging options
  ranges <issue> <metric>  what-if metric ranges per option (Sec. 5.1.5)
  candidates               compliant cores in the selected region
  range <metric>           metric range over the candidates
  derived <property>       formula-derived value (CC2-style)
  rank <property>          estimator ranking of behavioral descriptions (CC3)
  decompose                behavioral decomposition sites (DI7)
  pending                  properties awaiting re-assessment
  report                   session summary
  trace                    the session's journal (its decisions, in order)
  trace legacy             the session's prose narrative
  trace export <file>      write the session's replay journal as JSONL
  trace replay <file>      rebuild a session deterministically from a journal
  timings                  per-query-kind latency histograms (count/p50/p95/max)
  stats [reset]            query-cache / index counters (layer + session)
  help                     this text
  quit                     leave the shell)";

/// One line per journal event: sequence number, kind, payload.
void print_event(std::ostream& out, const telemetry::Event& e) {
  out << "  #" << e.seq << " " << telemetry::to_string(e.kind);
  if (!e.subject.empty()) out << " " << e.subject;
  if (!e.detail.empty()) out << " " << e.detail;
  out << "\n";
}

void print_timings(std::ostream& out, const std::string& scope,
                   const std::map<std::string, telemetry::TimingSummary>& timings) {
  if (timings.empty()) {
    out << scope << ": no timed queries yet\n";
    return;
  }
  out << scope << ":\n";
  for (const auto& [name, t] : timings) {
    out << "  " << name << "  n=" << t.count << "  p50=" << format_double(t.p50_us, 4)
        << "us  p95=" << format_double(t.p95_us, 4) << "us  max="
        << format_double(t.max_us, 4) << "us  total=" << format_double(t.total_us, 4)
        << "us\n";
  }
}


/// Parses "768" as a number, anything else as option text.
Value parse_value(const std::string& token) {
  char* end = nullptr;
  const double number = std::strtod(token.c_str(), &end);
  if (end != nullptr && *end == '\0' && end != token.c_str()) return Value::number(number);
  return Value::text(token);
}

void print_tree(std::ostream& out, const DesignSpaceLayer& layer, const Cdo& cdo, int depth) {
  out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << cdo.name();
  if (const Property* issue = cdo.generalized_issue()) {
    out << "  [" << issue->name << " " << issue->domain.describe() << "]";
  }
  if (const std::size_t n = layer.cores_at(cdo).size(); n > 0) out << "  (" << n << " cores)";
  out << "\n";
  for (const Cdo* child : cdo.children()) print_tree(out, layer, *child, depth + 1);
}

}  // namespace

ExplorationSession& ShellEngine::need_session() {
  if (session_ == nullptr) throw ExplorationError("no session — use: open <cdo-path>");
  return *session_;
}

std::string ShellEngine::journal_jsonl() const {
  return session_ == nullptr ? std::string{} : session_->export_journal();
}

void ShellEngine::restore_from_journal(const std::string& jsonl) {
  session_ = std::make_unique<ExplorationSession>(ExplorationSession::replay(*layer_, jsonl));
}

ShellEngine::Status ShellEngine::execute(const std::string& line, std::ostream& out) {
  const auto words = split(std::string(trim(line)), ' ');
  if (words.empty() || words[0].empty() || words[0][0] == '#') return Status::kEmpty;
  try {
    return dispatch(words, out);
  } catch (const DeadlineExceeded&) {
    throw;  // request cancellation — the service answers, not the command
  } catch (const FailpointError&) {
    throw;  // injected infrastructure fault, not a command error
  } catch (const Error& e) {
    out << "error: " << e.what() << "\n";
    return Status::kError;
  }
}

ShellEngine::Status ShellEngine::dispatch(const std::vector<std::string>& words,
                                          std::ostream& out) {
  const std::string& cmd = words[0];
  const DesignSpaceLayer& layer = *layer_;
  // Everything after the first two words joins back together so option
  // texts with spaces ("2's complement") survive.
  const auto rest_from = [&words](std::size_t i) {
    std::vector<std::string> tail(words.begin() + static_cast<std::ptrdiff_t>(i), words.end());
    return join(tail, " ");
  };

  if (cmd == "quit" || cmd == "exit") {
    return Status::kQuit;
  } else if (cmd == "help") {
    out << kHelp << "\n";
  } else if (cmd == "tree") {
    for (const Cdo* root : layer.space().roots()) print_tree(out, layer, *root, 0);
  } else if (cmd == "doc") {
    if (words.size() > 1) {
      const Cdo* cdo = layer.space().find(words[1]);
      if (cdo == nullptr) throw ExplorationError(cat("no CDO '", words[1], "'"));
      out << cdo->document(false);
    } else {
      out << layer.document();
    }
  } else if (cmd == "open") {
    DSLAYER_REQUIRE(words.size() >= 2, "usage: open <path>");
    session_ = std::make_unique<ExplorationSession>(layer, words[1]);
    out << "session at " << session_->current().path() << ", "
        << session_->candidate_count() << " candidates\n";
  } else if (cmd == "req" || cmd == "decide") {
    DSLAYER_REQUIRE(words.size() >= 3, "usage: req|decide <name> <value>");
    const Value value = parse_value(rest_from(2));
    if (cmd == "req") {
      need_session().set_requirement(words[1], value);
    } else {
      need_session().decide(words[1], value);
    }
    out << "ok; scope " << need_session().current().path() << ", "
        << need_session().candidate_count() << " candidates\n";
  } else if (cmd == "retract") {
    DSLAYER_REQUIRE(words.size() >= 2, "usage: retract <name>");
    need_session().retract(words[1]);
    out << "ok; scope " << need_session().current().path() << "\n";
  } else if (cmd == "reaffirm") {
    DSLAYER_REQUIRE(words.size() >= 2, "usage: reaffirm <name>");
    need_session().reaffirm(words[1]);
    out << "ok\n";
  } else if (cmd == "options") {
    DSLAYER_REQUIRE(words.size() >= 2, "usage: options <issue>");
    for (const auto& option : need_session().available_options(words[1])) {
      out << "  " << option << "\n";
    }
    for (const auto& [option, cc] : need_session().eliminated_options(words[1])) {
      out << "  " << option << "  [eliminated by " << cc << "]\n";
    }
    for (const auto& [option, cc] : need_session().reassessment_flags(words[1])) {
      out << "  " << option << "  [flags re-assessment via " << cc << "]\n";
    }
  } else if (cmd == "ranges") {
    DSLAYER_REQUIRE(words.size() >= 3, "usage: ranges <issue> <metric>");
    for (const auto& [option, range] : need_session().option_ranges(words[1], words[2])) {
      out << "  " << option << ": [" << format_double(range.min) << ", "
          << format_double(range.max) << "] over " << range.count << " cores\n";
    }
  } else if (cmd == "candidates") {
    for (const Core* core : need_session().candidates()) {
      out << "  " << core->describe() << "\n";
    }
  } else if (cmd == "range") {
    DSLAYER_REQUIRE(words.size() >= 2, "usage: range <metric>");
    const auto range = need_session().metric_range(words[1]);
    if (range.has_value()) {
      out << "[" << format_double(range->min) << ", " << format_double(range->max)
          << "] over " << range->count << " cores\n";
    } else {
      out << "no candidate reports '" << words[1] << "'\n";
    }
  } else if (cmd == "derived") {
    DSLAYER_REQUIRE(words.size() >= 2, "usage: derived <property>");
    const auto value = need_session().derived(words[1]);
    out << (value.has_value() ? value->to_string() : "<not derivable yet>") << "\n";
  } else if (cmd == "rank") {
    DSLAYER_REQUIRE(words.size() >= 2, "usage: rank <property>");
    for (const auto& rank : need_session().rank_behaviors(words[1])) {
      out << "  " << rank.bd_name << "  " << format_double(rank.value) << "\n";
    }
  } else if (cmd == "decompose") {
    for (const auto& site : need_session().behavioral_decomposition()) {
      out << "  " << behavior::to_string(site.kind) << " line " << site.line << " ["
          << site.width_bits << "b] -> "
          << (site.cdo_path.empty() ? "<no operator class>" : site.cdo_path) << "\n";
    }
  } else if (cmd == "pending") {
    for (const auto& name : need_session().pending_reassessment()) out << "  " << name << "\n";
  } else if (cmd == "report") {
    out << need_session().report();
  } else if (cmd == "trace" && words.size() >= 2 && words[1] == "export") {
    DSLAYER_REQUIRE(words.size() >= 3, "usage: trace export <file>");
    const std::string path = rest_from(2);
    ExplorationSession& s = need_session();
    telemetry::JsonlFileSink sink(path);
    for (const auto& event : s.journal()) sink.write(event);
    out << "exported " << s.journal().size() << " events to " << path << "\n";
  } else if (cmd == "trace" && words.size() >= 2 && words[1] == "replay") {
    DSLAYER_REQUIRE(words.size() >= 3, "usage: trace replay <file>");
    const std::string path = rest_from(2);
    std::ifstream file(path);
    if (!file.is_open()) throw ExplorationError(cat("cannot read journal '", path, "'"));
    std::ostringstream text;
    text << file.rdbuf();
    restore_from_journal(text.str());
    out << "replayed " << session_->journal().size() << " events; scope "
        << session_->current().path() << ", " << session_->candidate_count()
        << " candidates\n";
  } else if (cmd == "trace") {
    ExplorationSession& s = need_session();
    if (words.size() < 2) {
      for (const auto& event : s.journal()) print_event(out, event);
    } else if (words[1] == "legacy") {
      for (const auto& entry : s.trace()) out << "  - " << entry << "\n";
    } else {
      throw ExplorationError(cat("unknown trace filter '", words[1],
                                 "' (try: trace, trace legacy, trace export, trace replay)"));
    }
  } else if (cmd == "timings") {
    print_timings(out, "layer", layer.telemetry().timings());
    if (session_ != nullptr) {
      print_timings(out, "session", session_->telemetry().timings());
    }
  } else if (cmd == "stats") {
    if (words.size() > 1 && words[1] == "reset") {
      layer.reset_query_stats();
      if (session_ != nullptr) session_->reset_query_stats();
      out << "counters reset\n";
    } else {
      out << "layer:   " << layer.query_stats().summary() << "\n";
      if (session_ != nullptr) {
        out << "session: " << session_->query_stats().summary() << "\n";
      }
    }
  } else {
    throw ExplorationError(cat("unknown command '", cmd, "' (try: help)"));
  }
  return Status::kOk;
}

int run_shell(const DesignSpaceLayer& layer, std::istream& in, std::ostream& out) {
  ShellEngine engine(layer);
  int failures = 0;
  std::string line;
  while (std::getline(in, line)) {
    const ShellEngine::Status status = engine.execute(line, out);
    if (status == ShellEngine::Status::kQuit) break;
    if (status == ShellEngine::Status::kError) ++failures;
  }
  return failures;
}

}  // namespace dslayer::dsl
