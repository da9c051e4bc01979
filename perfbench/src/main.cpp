// perfbench_harness — the designer-walk benchmark of the TCP service.
//
//   perfbench_harness run --workload NAME --seed N --seconds S --trace 0|1
//                         --work DIR --dslshell PATH [--git-sha SHA]
//   perfbench_harness smoke --work DIR --dslshell PATH
//
// `run` prints a metric table and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced run with --trace 1.
// It exits 1 when any response differs from the oracle or the server's
// counters disagree with the client's. `smoke` runs every workload over
// a tiny catalog for about a second and checks the accounting. See
// perfbench/README.md for the workloads and the metric definitions.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "fixture.hpp"
#include "layer_passes.hpp"
#include "server_process.hpp"
#include "support/simd.hpp"
#include "support/strings.hpp"
#include "walks.hpp"
#include "wire_client.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dslayer::cat;
using dslayer::format_double;

constexpr unsigned kWorkers = 4;      ///< server --workers (at most nproc)
constexpr unsigned kConnections = 4;  ///< client connections

struct Workload {
  std::string name;
  std::size_t synthetic_cores = 0;  ///< 0: the code-built crypto catalog only
  bool durable = false;             ///< boot from a snapshot under --data
  std::size_t sessions = 4;
  WalkOptions walks;
  unsigned setups = 3;              ///< server spawns; setup_s is their median
  /// Open-loop ladder run after the closed loop (empty: none). The
  /// closed loop gets `closed_share` of the run's seconds, the rungs the
  /// rest in equal parts.
  std::vector<double> ladder;       ///< offered requests/s per rung
  double closed_share = 1.0;
  double slo_p99_ms = 0.0;          ///< step_p99_ms limit of a passing rung
};

Workload workload_named(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "explore_1m") {
    w.synthetic_cores = smoke ? 2'000 : 1'000'000;
    w.durable = true;
    w.walks.walks = 8;
    w.walks.max_regular = 2;
    w.setups = 3;
  } else if (name == "render_100k") {
    w.synthetic_cores = smoke ? 2'000 : 100'000;
    w.durable = true;
    w.walks.walks = 12;
    w.walks.render_leaves = true;
    w.setups = 9;
  } else if (name == "frontend_tiny") {
    w.sessions = 64;
    w.walks.walks = 3;
    w.setups = 9;
    // Rates fixed from measurement on a 4-core VM: p50 stays near 0.1 ms
    // up to ~64k req/s and the service saturates between 80k and 96k.
    w.ladder = {16'000, 32'000, 48'000, 64'000, 80'000};
    w.closed_share = 0.5;
    w.slo_p99_ms = 2.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (explore_1m, render_100k, frontend_tiny)");
  }
  if (smoke) w.setups = 1;
  return w;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;
};

struct Outcome {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> report;  ///< human-readable lines before the JSON
};

std::string summary_note(const Summary& s) {
  if (s.n == 0) return "n=0";
  return cat("n=", s.n, s.tail_q >= 0.99 ? "" : cat(", tail is p", format_double(100 * s.tail_q, 4)));
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_line(const Outcome& o, bool trace) {
  std::string out = cat("{\"correct\": ", o.correct ? "true" : "false", ", \"attempted\": ",
                        o.attempted, ", \"failed\": ", o.failed, ", \"metrics\": {");
  bool first = true;
  for (const Metric& m : trace ? o.per_layer : o.end_to_end) {
    out += cat(first ? "" : ", ", "\"", m.name, "\": {\"value\": ", json_number(m.value),
               ", \"unit\": \"", m.unit, "\"}");
    first = false;
  }
  return out + "}}";
}

/// Spans as JSONL: name, start and end (ns, steady clock), parent index,
/// request (script << 32 | step).
void write_spans(const std::vector<Span>& spans, const std::string& path) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

class Runner {
 public:
  Runner(Workload workload, std::uint64_t seed, double seconds, bool trace, std::string work,
         std::string dslshell, std::string git_sha)
      : w_(std::move(workload)),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        work_(std::move(work)),
        dslshell_(std::move(dslshell)),
        git_sha_(std::move(git_sha)),
        run_dir_(cat(work_, "/runs/", w_.name, "-", ::getpid())) {}

  ~Runner() {
    std::error_code ec;
    fs::remove_all(run_dir_, ec);
  }

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  Outcome run() {
    fs::create_directories(run_dir_);
    std::string snapshot;
    if (w_.synthetic_cores > 0) {
      double built_s = 0.0;
      snapshot = ensure_fixture(work_ + "/fixtures", w_.synthetic_cores, &built_s);
      if (built_s > 0.0) line(cat("fixture: built ", snapshot, " in ", format_double(built_s, 4), " s"));
    }
    const Catalog catalog = load_catalog(snapshot);
    const unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    const std::int64_t generate_start = now_ns();
    const std::vector<Script> scripts = generate_scripts(
        catalog, session_names(), seed_, w_.walks, threads);
    report_scripts(scripts);
    line(cat("generated in ", format_double(ms_between(generate_start, now_ns()) / 1000.0, 4),
             " s (oracle included); in-process snapshot boot ",
             format_double(catalog.boot_ms / 1000.0, 4), " s"));
    line(cat("stamp: nproc=", std::thread::hardware_concurrency(),
             " simd=", dslayer::support::simd::to_string(dslayer::support::simd::widest_supported()),
             " build=", PERFBENCH_BUILD_TYPE, " git=", git_sha_, " catalog_cores=", catalog.cores,
             " workers=", kWorkers, " connections=", kConnections,
             " flush=", w_.durable ? "session-journal-fsync-per-append" : "volatile-sessions",
             " trace_sample=server-default"));

    // Set-up: spawn the server `setups` times; the last one is measured.
    std::vector<double> setups;
    std::unique_ptr<ServerProcess> server;
    for (unsigned k = 0; k < w_.setups; ++k) {
      if (server != nullptr) server->stop();
      ServerConfig config;
      config.binary = dslshell_;
      config.workers = kWorkers;
      config.log_path = run_dir_ + "/server.log";
      if (w_.durable) {
        config.data_dir = cat(run_dir_, "/data-", k);
        prepare_data_dir(snapshot, config.data_dir);
      }
      double setup_s = 0.0;
      server = std::make_unique<ServerProcess>(config, &setup_s);
      setups.push_back(setup_s);
    }

    // The gated metrics come from the closed loop; an open-loop ladder
    // (frontend_tiny) then carries every session on from where it stopped.
    Cursors cursors;
    const LoadResult closed =
        run_closed_loop(server->port(), scripts, kConnections, seconds_ * w_.closed_share, cursors);
    std::optional<double> slo_rps;
    std::vector<double> lateness;
    LoadResult load = closed;
    if (!w_.ladder.empty()) run_ladder(*server, scripts, cursors, load, lateness, &slo_rps);
    const std::string scrape = server->scrape_metrics();
    const double rss_mb = server->peak_rss_mb();
    const int exit_status = server->stop();

    Outcome o;
    o.attempted = load.attempted;
    o.failed = load.failed();
    const double fail_ratio =
        static_cast<double>(o.failed) / static_cast<double>(std::max<std::uint64_t>(1, o.attempted));
    const bool accounted = check_accounting(load, scrape, exit_status);
    o.correct = o.failed == 0 && accounted;

    const Summary step = summarize(closed.all_steps());
    const Summary query = summarize(closed.by_verb[static_cast<int>(Verb::kQuery)]);
    const Summary mutate = summarize(closed.by_verb[static_cast<int>(Verb::kMutate)]);
    const Summary render = summarize(closed.by_verb[static_cast<int>(Verb::kRender)]);
    const Summary setup = summarize(setups);
    for (const Verb verb : {Verb::kQuery, Verb::kMutate, Verb::kRender, Verb::kOther}) {
      std::vector<double> s = closed.by_verb[static_cast<int>(verb)];
      if (s.empty()) continue;
      std::sort(s.begin(), s.end());
      std::string deciles;
      for (int q = 1; q < 10; ++q) deciles += " " + format_double(quantile_sorted(s, q / 10.0), 3);
      line(cat("deciles ms ", verb_name(verb), ":", deciles));
    }
    auto& e = o.end_to_end;
    e.push_back({"setup_s", "s", setup.p50, cat("median of ", setup.n, " spawns")});
    e.push_back({"throughput_rps", "req/s", static_cast<double>(closed.ok) / closed.window_s,
                 cat("closed loop, ", scripts.size(), " sessions: ok responses / window")});
    e.push_back({"step_p50_ms", "ms", step.p50, summary_note(step)});
    e.push_back({"step_p99_ms", "ms", step.tail, summary_note(step)});
    e.push_back({"query_p50_ms", "ms", query.p50, summary_note(query)});
    e.push_back({"query_p99_ms", "ms", query.tail, summary_note(query)});
    e.push_back({"mutate_p50_ms", "ms", mutate.p50, summary_note(mutate)});
    e.push_back({"mutate_p99_ms", "ms", mutate.tail, summary_note(mutate)});
    e.push_back({"rss_peak_mb", "MB", rss_mb, "server VmHWM at the end of the run"});

    // Workload-specific metrics, printed but not in every workload's JSON.
    std::vector<Metric> extra;
    if (render.n > 0) {
      extra.push_back({"render_p50_ms", "ms", render.p50, summary_note(render)});
      extra.push_back({"render_p99_ms", "ms", render.tail, summary_note(render)});
    }
    if (!w_.ladder.empty()) {
      extra.push_back({"slo_rps", "req/s", slo_rps.value_or(0.0),
                       cat("highest rung with step_p99_ms <= ", format_double(w_.slo_p99_ms, 3),
                           " ms and no backlog", slo_rps.has_value() ? "" : " (none passed)")});
    }
    extra.push_back({"fail_ratio", "1", fail_ratio,
                     cat(o.failed, " of ", o.attempted, " requests: ", load.not_ok, " not ok, ",
                         load.unanswered, " unanswered, ", load.mismatched, " off the oracle")});

    if (trace_) {
      PassOptions pass;
      pass.durable = w_.durable;
      pass.workers = kWorkers;
      pass.threads = threads;
      pass.journal_dir = run_dir_ + "/passes";
      LayerReport layers = run_layer_passes(catalog, scripts, pass);
      if (layers.shell_mismatches > 0) {
        o.correct = false;
        line(cat("traced passes: ", layers.shell_mismatches, " responses off the oracle"));
      }
      auto& m = layers.metrics;
      m["net.self_ms"] = step.p50 - layers.executor_step_p50_ms;
      m["net.slow_reader_closed"] = metric_value(scrape, "dslayer_net_slow_reader_closed_total");
      m["net.faulted"] = metric_value(scrape, "dslayer_net_faulted_total");
      m["net.bytes_out_per_req"] = static_cast<double>(load.bytes_received) /
                                   static_cast<double>(std::max<std::uint64_t>(1, load.attempted));
      m["bench.gen_late_p99_ms"] = summarize(lateness).tail;
      for (const auto& [name, unit] : per_layer_units()) {
        o.per_layer.push_back({name, unit, m[name], ""});
      }
      const std::string spans = cat(work_, "/traces/", w_.name, "-seed", seed_, ".jsonl");
      write_spans(layers.spans, spans);
      line(cat("trace: ", layers.spans.size(), " spans written to ", spans));
      for (const std::string& n : layers.notes) line("  base " + n);
    }

    for (const Metric& m : o.end_to_end) print_metric(m);
    for (const Metric& m : extra) print_metric(m);
    for (const Metric& m : o.per_layer) print_metric(m);
    o.report = std::move(report_);
    return o;
  }

 private:
  std::vector<std::string> session_names() const {
    std::vector<std::string> names;
    for (std::size_t i = 0; i < w_.sessions; ++i) names.push_back(cat("d", i));
    return names;
  }

  void line(const std::string& text) { report_.push_back(text); }

  void print_metric(const Metric& m) {
    line(cat("  ", m.name, " ", format_double(m.value, 6), " ", m.unit,
             m.note.empty() ? "" : "  (" + m.note + ")"));
  }

  void report_scripts(const std::vector<Script>& scripts) {
    std::size_t steps = 0;
    std::size_t walks = 0;
    for (const Script& s : scripts) {
      steps += s.steps.size();
      walks += s.walks;
    }
    line(cat("workload ", w_.name, " seed ", seed_, ": ", scripts.size(), " sessions, ", walks,
             " walks, ", steps, " steps, script fnv1a ", std::hex, fnv1a(script_text(scripts)),
             std::dec));
    line("verb mix: " + verb_mix(scripts));
  }

  /// Open-loop ladder: every rung offers a fixed rate for an equal part
  /// of the ladder's time; the sessions carry on their walks across
  /// rungs. Counts accumulate into `total`, lateness into `lateness`.
  void run_ladder(ServerProcess& server, const std::vector<Script>& scripts, Cursors& cursors,
                  LoadResult& total, std::vector<double>& lateness,
                  std::optional<double>* slo_rps) {
    const double seconds =
        seconds_ * (1.0 - w_.closed_share) / static_cast<double>(w_.ladder.size());
    for (const double rate : w_.ladder) {
      const LoadResult result =
          run_open_loop(server.port(), scripts, kConnections, rate, seconds, cursors);
      const Summary step = summarize(result.all_steps());
      const bool kept_up = result.window_s <= seconds * 1.02 + w_.slo_p99_ms / 1000.0;
      const bool passed = result.failed() == 0 && kept_up && step.tail <= w_.slo_p99_ms;
      if (passed) *slo_rps = rate;
      line(cat("rung ", format_double(rate, 6), " req/s for ", format_double(seconds, 3),
               " s: ok ", result.ok, "/", result.attempted, ", step p50 ",
               format_double(step.p50, 4), " ms tail ", format_double(step.tail, 4), " ms (",
               summary_note(step), "), late p99 ",
               format_double(summarize(result.lateness_ms).tail, 4), " ms, window ",
               format_double(result.window_s, 4), " s", passed ? "  PASS" : "  FAIL"));
      total.attempted += result.attempted;
      total.ok += result.ok;
      total.not_ok += result.not_ok;
      total.unanswered += result.unanswered;
      total.mismatched += result.mismatched;
      total.bytes_sent += result.bytes_sent;
      total.bytes_received += result.bytes_received;
      total.compared_inline += result.compared_inline;
      lateness.insert(lateness.end(), result.lateness_ms.begin(), result.lateness_ms.end());
    }
  }

  bool check_accounting(const LoadResult& load, const std::string& scrape, int exit_status) {
    // The set-up probe sent two requests (help, quit) on the measured server.
    const double server_requests = metric_value(scrape, "dslayer_net_requests_total");
    const double server_responses = metric_value(scrape, "dslayer_net_responses_total");
    const double server_errors = metric_value(scrape, "dslayer_requests_errors_total");
    const double client = static_cast<double>(load.attempted + 2);
    const double answered = static_cast<double>(load.ok + load.mismatched + load.not_ok + 2);
    const bool ok = server_requests == client && server_responses == answered &&
                    load.attempted == load.ok + load.failed() && server_errors == 0 &&
                    exit_status == 0;
    line(cat("accounting: client sent ", load.attempted, " + 2 probe, server counted ",
             server_requests, "; responses client ", answered, " server ", server_responses,
             "; server errors ", server_errors, "; server exit ", exit_status,
             "; bodies compared in the window (over the keep cap) ", load.compared_inline,
             ok ? "  OK" : "  MISMATCH"));
    return ok;
  }

  static std::vector<std::pair<std::string, std::string>> per_layer_units() {
    return {{"storage.boot_ms", "ms"},
            {"storage.boot_cores_ms", "ms"},
            {"storage.boot_tables_ms", "ms"},
            {"storage.session_append_ms", "ms"},
            {"dsl.open_ms", "ms"},
            {"dsl.mutate_ms", "ms"},
            {"dsl.sweep_ms", "ms"},
            {"dsl.sweep_rows", "count"},
            {"dsl.survivors", "count"},
            {"dsl.range_ms", "ms"},
            {"dsl.ranges_ms", "ms"},
            {"dsl.options_ms", "ms"},
            {"dsl.render_ms", "ms"},
            {"dsl.render_bytes", "B"},
            {"dsl.cache_hit_ratio", "1"},
            {"dsl.shell_self_ms", "ms"},
            {"service.parse_us", "us"},
            {"service.session_self_ms", "ms"},
            {"service.queue_wait_ms", "ms"},
            {"service.render_response_us", "us"},
            {"service.rejected", "count"},
            {"net.self_ms", "ms"},
            {"net.slow_reader_closed", "count"},
            {"net.faulted", "count"},
            {"net.bytes_out_per_req", "B"},
            {"bench.gen_late_p99_ms", "ms"},
            {"bench.trace_overhead_pct", "%"}};
  }

  Workload w_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  std::string work_;
  std::string dslshell_;
  std::string git_sha_;
  std::string run_dir_;
  std::vector<std::string> report_;
};

/// Tiny catalogs, about a second each: the accounting must balance and
/// the generator must be deterministic.
int smoke(const std::string& work, const std::string& dslshell) {
  bool all_ok = true;
  for (const std::string name : {"explore_1m", "render_100k", "frontend_tiny"}) {
    Workload w = workload_named(name, /*smoke=*/true);
    for (double& rate : w.ladder) rate /= 8;
    const Catalog catalog = load_catalog(
        w.synthetic_cores > 0 ? [&] {
          double built = 0.0;
          return ensure_fixture(work + "/fixtures", w.synthetic_cores, &built);
        }()
                              : std::string{});
    std::vector<std::string> sessions;
    for (std::size_t i = 0; i < w.sessions; ++i) sessions.push_back(cat("d", i));
    const std::string first = script_text(generate_scripts(catalog, sessions, 7, w.walks, 4));
    const std::string again = script_text(generate_scripts(catalog, sessions, 7, w.walks, 1));
    const std::string other = script_text(generate_scripts(catalog, sessions, 8, w.walks, 4));
    const bool deterministic = first == again && first != other;

    Runner runner(w, 7, 1.0, /*trace=*/true, work, dslshell, "smoke");
    const Outcome o = runner.run();
    for (const std::string& text : o.report) std::cout << text << "\n";
    const bool ok = deterministic && o.correct && o.failed == 0 && o.attempted > 0;
    std::cout << "smoke " << name << ": scripts deterministic " << (deterministic ? "yes" : "NO")
              << ", " << o.attempted << " requests, " << o.failed << " failed, accounting "
              << (o.correct ? "balanced" : "OFF") << (ok ? "  PASS" : "  FAIL") << "\n";
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench_harness run --workload NAME --seed N --seconds S --trace 0|1"
               " --work DIR --dslshell PATH [--git-sha SHA]\n"
               "       perfbench_harness smoke --work DIR --dslshell PATH\n";
  return 2;
}

int main_impl(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  const auto need = [&](const std::string& key) {
    const auto it = args.find(key);
    if (it == args.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  };
  if (mode == "smoke") return smoke(need("work"), need("dslshell"));
  if (mode != "run") return usage();

  const bool trace = need("trace") == "1";
  Runner runner(workload_named(need("workload"), /*smoke=*/false),
                std::strtoull(need("seed").c_str(), nullptr, 10),
                std::strtod(need("seconds").c_str(), nullptr), trace, need("work"),
                need("dslshell"), args.contains("git-sha") ? args["git-sha"] : "unknown");
  const Outcome o = runner.run();
  for (const std::string& text : o.report) std::cout << text << "\n";
  std::cout << json_line(o, trace) << std::endl;
  return o.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
