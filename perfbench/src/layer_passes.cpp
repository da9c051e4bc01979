#include "layer_passes.hpp"

#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <mutex>
#include <sstream>
#include <thread>

#include "dsl/shell.hpp"
#include "service/protocol.hpp"
#include "service/request_executor.hpp"
#include "service/session_manager.hpp"
#include "storage/session_store.hpp"
#include "support/strings.hpp"

namespace perfbench {

using namespace dslayer;

namespace {

/// Per-thread span sink; a null recorder means tracing is off.
struct Recorder {
  std::vector<Span> spans;

  std::int64_t open(std::string name, std::uint64_t request, std::int64_t parent = -1) {
    spans.push_back(Span{std::move(name), now_ns(), 0, parent, request});
    return static_cast<std::int64_t>(spans.size()) - 1;
  }
  void close(std::int64_t span) { spans[static_cast<std::size_t>(span)].end_ns = now_ns(); }
};

/// Times `fn` as a span `name` (when recording) and returns milliseconds.
template <typename Fn>
double timed(Recorder* rec, const char* name, std::uint64_t request, std::int64_t parent,
             Fn&& fn) {
  const std::int64_t span = rec != nullptr ? rec->open(name, request, parent) : -1;
  const std::int64_t start = now_ns();
  fn();
  const std::int64_t end = now_ns();
  if (rec != nullptr) rec->spans[static_cast<std::size_t>(span)].end_ns = end;
  return ms_between(start, end);
}

std::uint64_t request_id(std::size_t script, std::size_t step) {
  return (static_cast<std::uint64_t>(script) << 32) | step;
}

/// Per-request timings of one pass, indexed [script][step].
using StepTimes = std::vector<std::vector<double>>;

StepTimes make_times(const std::vector<Script>& scripts) {
  StepTimes times(scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) times[i].assign(scripts[i].steps.size(), 0.0);
  return times;
}

/// Runs `fn(script, recorder)` for every script on `threads` threads and
/// gathers the spans (parent indices rebased into the merged vector).
void for_each_script(std::size_t scripts, unsigned threads, bool trace, std::vector<Span>* spans,
                     const std::function<void(std::size_t, Recorder*)>& fn) {
  const unsigned n = std::max(1u, threads);
  std::vector<Recorder> recorders(n);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < scripts; i += n) fn(i, trace ? &recorders[t] : nullptr);
    });
  }
  for (std::thread& thread : pool) thread.join();
  if (spans == nullptr) return;
  for (Recorder& rec : recorders) {
    const auto base = static_cast<std::int64_t>(spans->size());
    for (Span& span : rec.spans) {
      if (span.parent >= 0) span.parent += base;
      spans->push_back(std::move(span));
    }
  }
}

/// Same number-or-text rule as the shell grammar.
dsl::Value parse_value(const std::string& token) {
  char* end = nullptr;
  const double number = std::strtod(token.c_str(), &end);
  if (end != nullptr && *end == '\0' && end != token.c_str()) return dsl::Value::number(number);
  return dsl::Value::text(token);
}

/// Samples the dsl pass gathers, merged across threads under a lock.
struct DslSamples {
  std::mutex lock;
  std::vector<double> open, mutate, sweep, sweep_rows, survivors, range, ranges, options, render,
      render_bytes;
  std::uint64_t cache_hits = 0, cache_lookups = 0, errors = 0;
};

/// One script through direct ExplorationSession calls. A mutation is
/// followed by its first candidates() — the sweep — timed on its own.
void dsl_script(const dsl::DesignSpaceLayer& layer, const Script& script, std::size_t index,
                Recorder* rec, std::vector<double>& step_ms, DslSamples& out) {
  DslSamples local;
  std::unique_ptr<dsl::ExplorationSession> session;
  const auto retire = [&] {
    if (session == nullptr) return;
    const dsl::QueryStats stats = session->query_stats();
    local.cache_hits += stats.cache_hits;
    local.cache_lookups += stats.cache_hits + stats.cache_misses;
  };
  for (std::size_t i = 0; i < script.steps.size(); ++i) {
    const std::vector<std::string> words = split(script.steps[i].command, ' ');
    const std::string& verb = words[0];
    const std::string arg = words.size() > 1 ? words[1] : std::string{};
    const std::string rest =
        words.size() > 2 ? join(std::vector<std::string>(words.begin() + 2, words.end()), " ")
                         : std::string{};
    const std::uint64_t id = request_id(index, i);
    const std::int64_t root = rec != nullptr ? rec->open("dsl." + verb, id) : -1;
    const std::int64_t start = now_ns();
    const auto sweep = [&] {
      const std::uint64_t before = session->query_stats().compliance_checks;
      std::size_t survivors = 0;
      local.sweep.push_back(
          timed(rec, "dsl.sweep", id, root, [&] { survivors = session->candidates().size(); }));
      local.sweep_rows.push_back(
          static_cast<double>(session->query_stats().compliance_checks - before));
      local.survivors.push_back(static_cast<double>(survivors));
    };
    try {
      if (verb == "open") {
        retire();
        local.open.push_back(timed(rec, "dsl.open", id, root, [&] {
          session = std::make_unique<dsl::ExplorationSession>(layer, arg);
        }));
        sweep();
      } else if (verb == "req" || verb == "decide" || verb == "retract" || verb == "reaffirm") {
        local.mutate.push_back(timed(rec, "dsl.mutate", id, root, [&] {
          if (verb == "req") session->set_requirement(arg, parse_value(rest));
          if (verb == "decide") session->decide(arg, parse_value(rest));
          if (verb == "retract") session->retract(arg);
          if (verb == "reaffirm") session->reaffirm(arg);
        }));
        sweep();
      } else if (verb == "options") {
        local.options.push_back(timed(rec, "dsl.options", id, root, [&] {
          (void)session->available_options(arg);
          (void)session->eliminated_options(arg);
          (void)session->reassessment_flags(arg);
        }));
      } else if (verb == "ranges") {
        local.ranges.push_back(
            timed(rec, "dsl.ranges", id, root, [&] { (void)session->option_ranges(arg, rest); }));
      } else if (verb == "range") {
        local.range.push_back(
            timed(rec, "dsl.range", id, root, [&] { (void)session->metric_range(arg); }));
      } else if (verb == "candidates" || verb == "report") {
        std::size_t bytes = 0;
        local.render.push_back(timed(rec, "dsl.render", id, root, [&] {
          if (verb == "report") {
            bytes = session->report().size();
          } else {
            for (const dsl::Core* core : session->candidates()) bytes += core->describe().size() + 3;
          }
        }));
        local.render_bytes.push_back(static_cast<double>(bytes));
      } else if (verb == "derived") {
        (void)session->derived(arg);
      } else if (verb == "pending") {
        (void)session->pending_reassessment();
      }
    } catch (const std::exception&) {
      ++local.errors;
    }
    step_ms[i] = ms_between(start, now_ns());
    if (rec != nullptr) rec->close(root);
  }
  retire();
  const std::lock_guard<std::mutex> guard(out.lock);
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(out.open, local.open);
  append(out.mutate, local.mutate);
  append(out.sweep, local.sweep);
  append(out.sweep_rows, local.sweep_rows);
  append(out.survivors, local.survivors);
  append(out.range, local.range);
  append(out.ranges, local.ranges);
  append(out.options, local.options);
  append(out.render, local.render);
  append(out.render_bytes, local.render_bytes);
  out.cache_hits += local.cache_hits;
  out.cache_lookups += local.cache_lookups;
  out.errors += local.errors;
}

/// A journal write the manager would make for one mutating step.
struct JournalWrite {
  std::string session;
  std::string bytes;
  bool rewrite = false;  ///< `open` starts a new journal: save, not append
};

/// Median over requests of (upper − lower): a layer's self time.
double self_time(const StepTimes& upper, const StepTimes& lower) {
  std::vector<double> diff;
  for (std::size_t s = 0; s < upper.size(); ++s) {
    for (std::size_t i = 0; i < upper[s].size(); ++i) diff.push_back(upper[s][i] - lower[s][i]);
  }
  return median(std::move(diff));
}

std::vector<double> flatten(const StepTimes& times) {
  std::vector<double> all;
  for (const auto& script : times) all.insert(all.end(), script.begin(), script.end());
  return all;
}

}  // namespace

LayerReport run_layer_passes(const Catalog& catalog, const std::vector<Script>& scripts,
                             const PassOptions& options) {
  namespace fs = std::filesystem;
  LayerReport report;
  auto& m = report.metrics;
  const auto note = [&](const std::string& name, std::size_t n, const std::string& extra = "") {
    report.notes.push_back(cat(name, ": n=", n, extra.empty() ? "" : " ", extra));
  };

  // storage: the in-process snapshot boot (zero for a code-built catalog).
  m["storage.boot_ms"] = catalog.boot_ms;
  m["storage.boot_cores_ms"] = catalog.boot.phases.cores_ms;
  m["storage.boot_tables_ms"] = catalog.boot.phases.tables_ms;

  // dsl: direct ExplorationSession calls.
  StepTimes dsl_ms = make_times(scripts);
  DslSamples dsl;
  for_each_script(scripts.size(), options.threads, true, &report.spans,
                  [&](std::size_t s, Recorder* rec) {
                    const auto read = catalog.shared->read_lock();
                    dsl_script(catalog.shared->layer(), scripts[s], s, rec, dsl_ms[s], dsl);
                  });
  const auto put = [&](const std::string& name, const std::vector<double>& samples) {
    m[name] = median(samples);
    note(name, samples.size());
  };
  put("dsl.open_ms", dsl.open);
  put("dsl.mutate_ms", dsl.mutate);
  put("dsl.sweep_ms", dsl.sweep);
  put("dsl.sweep_rows", dsl.sweep_rows);
  put("dsl.survivors", dsl.survivors);
  put("dsl.range_ms", dsl.range);
  put("dsl.ranges_ms", dsl.ranges);
  put("dsl.options_ms", dsl.options);
  put("dsl.render_ms", dsl.render);
  put("dsl.render_bytes", dsl.render_bytes);
  m["dsl.cache_hit_ratio"] =
      dsl.cache_lookups > 0
          ? static_cast<double>(dsl.cache_hits) / static_cast<double>(dsl.cache_lookups)
          : 0.0;
  note("dsl.cache_hit_ratio", dsl.cache_lookups, "cache lookups");
  if (dsl.errors > 0) note("dsl pass errors", dsl.errors);

  // shell: ShellEngine::execute, once untraced and once traced; the
  // untraced pass also records the journal writes a durable manager makes.
  std::vector<std::vector<JournalWrite>> writes(scripts.size());
  std::mutex mismatch_lock;
  const auto shell_pass = [&](bool trace, StepTimes& times) {
    for_each_script(scripts.size(), options.threads, trace, &report.spans,
                    [&](std::size_t s, Recorder* rec) {
                      const auto read = catalog.shared->read_lock();
                      dsl::ShellEngine engine(catalog.shared->layer());
                      std::uint64_t mismatches = 0;
                      for (std::size_t i = 0; i < scripts[s].steps.size(); ++i) {
                        const Step& step = scripts[s].steps[i];
                        const bool journal = !trace && options.durable;
                        const std::string before = journal ? engine.journal_jsonl() : "";
                        std::ostringstream out;
                        times[s][i] = timed(rec, "shell.execute", request_id(s, i), -1,
                                            [&] { engine.execute(step.command, out); });
                        std::string body = out.str();
                        if (!body.empty() && body.back() != '\n') body += '\n';
                        if (body != step.body) ++mismatches;
                        if (!journal || step.verb != Verb::kMutate) continue;
                        const std::string after = engine.journal_jsonl();
                        const bool extends = after.compare(0, before.size(), before) == 0;
                        writes[s].push_back(JournalWrite{
                            scripts[s].session, extends ? after.substr(before.size()) : after,
                            !extends});
                      }
                      const std::lock_guard<std::mutex> guard(mismatch_lock);
                      report.shell_mismatches += mismatches;
                    });
  };
  StepTimes shell_ms = make_times(scripts);
  StepTimes shell_traced_ms = make_times(scripts);
  shell_pass(false, shell_ms);
  shell_pass(true, shell_traced_ms);
  m["dsl.shell_self_ms"] = self_time(shell_ms, dsl_ms);
  const double untraced = median(flatten(shell_ms));
  m["bench.trace_overhead_pct"] =
      untraced > 0.0 ? 100.0 * (median(flatten(shell_traced_ms)) / untraced - 1.0) : 0.0;
  note("bench.trace_overhead_pct", flatten(shell_ms).size(), "shell steps per pass");

  // storage: the journal writes, one SessionStore call each, fsync included.
  std::vector<double> appends;
  if (options.durable) {
    storage::SessionStore store(options.journal_dir + "/append");
    Recorder rec;
    for (std::size_t s = 0; s < writes.size(); ++s) {
      for (std::size_t w = 0; w < writes[s].size(); ++w) {
        const JournalWrite& write = writes[s][w];
        const double ms = timed(&rec, write.rewrite ? "storage.session_save" : "storage.session_append",
                                request_id(s, w), -1, [&] {
                                  if (write.rewrite) {
                                    store.save(write.session, write.bytes);
                                  } else {
                                    store.append(write.session, write.bytes);
                                  }
                                });
        if (!write.rewrite) appends.push_back(ms);
      }
    }
    report.spans.insert(report.spans.end(), rec.spans.begin(), rec.spans.end());
  }
  put("storage.session_append_ms", appends);

  // service: SessionManager::execute, then the executor round trip.
  const auto manager_options = [&](const std::string& dir,
                                   std::unique_ptr<storage::SessionStore>& store) {
    service::SessionManager::Options o;
    if (options.durable) {
      store = std::make_unique<storage::SessionStore>(options.journal_dir + "/" + dir);
      o.store = store.get();
    }
    return o;
  };
  StepTimes manager_ms = make_times(scripts);
  {
    std::unique_ptr<storage::SessionStore> store;
    service::SessionManager manager(*catalog.shared, manager_options("manager", store));
    for_each_script(scripts.size(), options.threads, true, &report.spans,
                    [&](std::size_t s, Recorder* rec) {
                      for (std::size_t i = 0; i < scripts[s].steps.size(); ++i) {
                        std::ostringstream out;
                        manager_ms[s][i] =
                            timed(rec, "service.session_execute", request_id(s, i), -1, [&] {
                              manager.execute(scripts[s].session, scripts[s].steps[i].command,
                                              out);
                            });
                      }
                    });
  }
  m["service.session_self_ms"] = self_time(manager_ms, shell_ms);

  StepTimes executor_ms = make_times(scripts);
  std::vector<double> parse_us;
  std::vector<double> render_us;
  {
    std::unique_ptr<storage::SessionStore> store;
    service::SessionManager manager(*catalog.shared, manager_options("executor", store));
    service::RequestExecutor::Options executor_options;
    executor_options.workers = options.workers;
    service::RequestExecutor executor(manager, executor_options);

    struct Done {
      std::size_t script;
      std::size_t step;
      std::int64_t end_ns;
      double render_us;
      bool matched;
    };
    std::mutex lock;
    std::condition_variable ready;
    std::deque<Done> done;
    std::vector<std::int64_t> submitted(scripts.size(), 0);
    std::vector<std::size_t> root_span(scripts.size(), 0);
    std::uint64_t next_id = 0;
    const auto submit = [&](std::size_t s, std::size_t i) {
      const std::string line = cat(scripts[s].session, " ", scripts[s].steps[i].command);
      std::optional<service::Request> request;
      const std::int64_t parse_start = now_ns();
      request = service::parse_request(line);
      const std::int64_t parse_end = now_ns();
      parse_us.push_back(static_cast<double>(parse_end - parse_start) / 1e3);
      request->id = ++next_id;
      const auto root = static_cast<std::int64_t>(report.spans.size());
      root_span[s] = report.spans.size();
      report.spans.push_back(Span{"service.submit", parse_start, 0, -1, request_id(s, i)});
      report.spans.push_back(Span{"service.parse_request", parse_start, parse_end, root,
                                  request_id(s, i)});
      submitted[s] = now_ns();
      executor.submit(std::move(*request), [&, s, i](service::Response response) {
        const std::int64_t end = now_ns();
        const std::int64_t render_start = now_ns();
        const std::string rendered = service::render_response(response);
        const double render = static_cast<double>(now_ns() - render_start) / 1e3;
        const bool matched = response.status == service::ResponseStatus::kOk &&
                             rendered.size() > scripts[s].steps[i].body.size() &&
                             rendered.compare(rendered.size() - scripts[s].steps[i].body.size(),
                                              std::string::npos, scripts[s].steps[i].body) == 0;
        const std::lock_guard<std::mutex> guard(lock);
        done.push_back(Done{s, i, end, render, matched});
        ready.notify_one();
      });
    };
    std::size_t outstanding = 0;
    for (std::size_t s = 0; s < scripts.size(); ++s) {
      if (!scripts[s].steps.empty()) {
        submit(s, 0);
        ++outstanding;
      }
    }
    while (outstanding > 0) {
      std::unique_lock<std::mutex> guard(lock);
      ready.wait(guard, [&] { return !done.empty(); });
      const Done d = done.front();
      done.pop_front();
      guard.unlock();
      --outstanding;
      executor_ms[d.script][d.step] = ms_between(submitted[d.script], d.end_ns);
      render_us.push_back(d.render_us);
      if (!d.matched) ++report.shell_mismatches;
      report.spans[root_span[d.script]].end_ns = d.end_ns;
      if (d.step + 1 < scripts[d.script].steps.size()) {
        submit(d.script, d.step + 1);
        ++outstanding;
      }
    }
    executor.shutdown();
    const service::RequestExecutor::Stats stats = executor.stats();
    m["service.rejected"] = static_cast<double>(stats.rejected + stats.shed);
    note("service.rejected", stats.accepted, "requests accepted");
  }
  m["service.queue_wait_ms"] = self_time(executor_ms, manager_ms);
  put("service.parse_us", parse_us);
  put("service.render_response_us", render_us);
  report.executor_step_p50_ms = median(flatten(executor_ms));

  std::error_code ec;
  fs::remove_all(options.journal_dir, ec);
  return report;
}

}  // namespace perfbench
