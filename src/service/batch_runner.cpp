#include "service/batch_runner.hpp"

#include <chrono>
#include <condition_variable>
#include <istream>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "service/client.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/simd.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace dslayer::service {

namespace {

void print_stats(const DirectiveContext& context, std::ostream& out) {
  SessionManager& manager = *context.manager;
  RequestExecutor& executor = *context.executor;
  const RequestExecutor::Stats xs = executor.stats();
  const SessionManager::Stats ms = manager.stats();
  out << "executor: accepted=" << xs.accepted << " executed=" << xs.executed
      << " rejected=" << xs.rejected << " errors=" << xs.errors
      << " deadline_expired=" << xs.deadline_expired << " shed=" << xs.shed
      << " depth=" << xs.queue_depth << " peak_depth=" << xs.peak_queue_depth << "\n";
  out << "sessions: live=" << manager.session_count() << " created=" << ms.created
      << " closed=" << ms.closed << " evicted=" << ms.evicted << " commands=" << ms.commands
      << " migrations=" << ms.migrations << " migration_failures=" << ms.migration_failures
      << " restored=" << ms.restored << " restore_failures=" << ms.restore_failures << "\n";
  out << "simd: kernel=" << support::simd::to_string(support::simd::kernels().kind) << "\n";
  const dsl::DesignSpaceLayer::CatalogCounts catalog = manager.shared().catalog_counts();
  out << "catalog: cores=" << catalog.cores << " hydrated=" << catalog.hydrated << "\n";
  if (context.front_end) {
    // Serve/net parity: network-mode operators see connection-lifecycle
    // counters here, not only through `!metrics`.
    const FrontEndCounters net = context.front_end();
    out << "net: open=" << net.open_connections << " accepted=" << net.accepted
        << " closed=" << net.closed << " rejected_connects=" << net.rejected_connects
        << " requests=" << net.requests << " responses=" << net.responses
        << " invalid_lines=" << net.invalid_lines << " oversized_lines=" << net.oversized_lines
        << " directives=" << net.directives << " idle_closed=" << net.idle_closed
        << " slow_reader_closed=" << net.slow_reader_closed << " faulted=" << net.faulted
        << "\n";
  }
  const auto& tracer = trace::Tracer::instance();
  if (tracer.enabled()) {
    const trace::TracerStats ts = tracer.stats();
    out << "traces: started=" << ts.started << " sampled=" << ts.sampled
        << " finished=" << ts.finished << " slow=" << ts.slow
        << " flight_records=" << ts.flight_records << " flight_dropped=" << ts.flight_dropped
        << "\n";
  }
  for (const auto& [name, t] : executor.telemetry().timings()) {
    out << "  " << name << "  n=" << t.count << "  p50=" << format_double(t.p50_us, 4)
        << "us  p95=" << format_double(t.p95_us, 4) << "us  p99=" << format_double(t.p99_us, 4)
        << "us  max=" << format_double(t.max_us, 4) << "us\n";
  }
}

void begin_request_trace(Request& request, std::chrono::steady_clock::time_point received) {
  auto& tracer = trace::Tracer::instance();
  if (!tracer.enabled()) return;
  request.trace = tracer.start(request.session, request.id, received);
  if (request.trace == nullptr) return;
  const auto parsed = trace::Trace::Clock::now();
  const std::uint32_t ingress =
      request.trace->add_span(trace::SpanKind::kIngress, received, parsed);
  request.trace->add_span(trace::SpanKind::kParse, received, parsed, ingress);
}

void print_failpoints(const std::vector<support::FailpointRegistry::Info>& infos,
                      std::ostream& out) {
  for (const auto& info : infos) {
    out << "  " << info.name << " mode=" << support::to_string(info.mode)
        << " hits=" << info.hits << " fires=" << info.fires;
    if (info.remaining >= 0) out << " remaining=" << info.remaining;
    if (info.delay_ms > 0) out << " delay_ms=" << info.delay_ms;
    out << "\n";
  }
}

void run_failpoint_directive(const std::vector<std::string>& words, std::ostream& out) {
  auto& registry = support::FailpointRegistry::instance();
  if (words.size() < 2) {
    // Bare `!failpoint`: list what is armed (chaos-run introspection).
    const auto infos = registry.list();
    if (infos.empty()) {
      out << "no failpoints armed\n";
      return;
    }
    print_failpoints(infos, out);
    return;
  }
  if (words[1] == "list") {
    // Every site compiled into the binary (the declared catalog), armed
    // or not — so operators need not know a site name a priori.
    print_failpoints(registry.list_declared(), out);
    return;
  }
  std::string error;
  if (registry.arm_spec(words[1], &error)) {
    out << "armed " << words[1] << "\n";
  } else {
    out << "error: " << error << "\n";
  }
}

}  // namespace

bool run_directive(const DirectiveContext& context, const std::string& line, std::ostream& out) {
  SessionManager& manager = *context.manager;
  const auto words = split(std::string(trim(line)), ' ');
  const std::string& directive = words[0];
  if (directive == "!drain") {
    out << "drained\n";
  } else if (directive == "!sessions") {
    for (const auto& name : manager.session_names()) out << "  " << name << "\n";
  } else if (directive == "!stats") {
    print_stats(context, out);
  } else if (directive == "!metrics") {
    out << render_metrics(manager, *context.executor, context.front_end);
  } else if (directive == "!failpoint") {
    run_failpoint_directive(words, out);
  } else if (directive == "!snapshot") {
    if (context.durable == nullptr) {
      out << "error: no durable catalog (start with --data <dir>)\n";
      return false;
    }
    try {
      // The read lock gives the snapshot writer a quiescent layer
      // (mutators go through SharedLayer::write's exclusive lock) without
      // stalling concurrent readers.
      const auto reader = manager.shared().read_lock();
      const storage::SnapshotWriteReport report = context.durable->checkpoint();
      out << "snapshot: " << report.bytes << " bytes, " << report.cores << " cores, "
          << report.tables << " tables, seq " << context.durable->sequence() << "\n";
    } catch (const Error& e) {
      out << "error: snapshot failed: " << e.what() << "\n";
      return false;
    }
  } else if (directive == "!restore") {
    if (context.durable == nullptr) {
      out << "error: no durable catalog (start with --data <dir>)\n";
      return false;
    }
    try {
      storage::BootReport report;
      // Declared before the write so the replaced catalog is freed after
      // the writer lock is released, not while readers wait on it.
      dsl::DesignSpaceLayer::RetiredCatalog retired;
      // A writer epoch: sessions migrate off the discarded state by
      // journal replay on their next command. kPreserve keeps the
      // snapshot-restored index instead of re-deriving it.
      const std::uint64_t epoch = manager.shared().write(
          [&](dsl::DesignSpaceLayer&) { report = context.durable->reload(&retired); },
          SharedLayer::Reindex::kPreserve);
      out << "restored: snapshot=" << (report.loaded_snapshot ? "yes" : "no")
          << " replayed=" << report.replayed_records << " skipped=" << report.skipped_records
          << " cores=" << report.snapshot.cores << " epoch=" << epoch
          << " lock_ms=" << format_double(manager.shared().last_write_hold_ms(), 4) << "\n";
    } catch (const Error& e) {
      out << "error: restore failed: " << e.what() << "\n";
      return false;
    }
  } else if (directive == "!close") {
    if (words.size() < 2) {
      out << "error: usage: !close <session>\n";
      return false;
    }
    out << (manager.close(words[1]) ? "closed " : "no session ") << words[1] << "\n";
  } else {
    out << "error: unknown directive '" << directive
        << "' (try: !sessions, !stats, !metrics, !close <session>, !drain, "
           "!failpoint [list|<spec>], !snapshot, !restore)\n";
    return false;
  }
  return true;
}

FrontEndCore::FrontEndCore(DirectiveContext context) : context_(std::move(context)) {}

FrontEndCore::Line FrontEndCore::accept(std::string_view text, std::uint64_t& next_id,
                                        std::chrono::steady_clock::time_point received,
                                        const Write& answer) {
  Line line;
  if (is_directive(text)) {
    line.kind = LineKind::kDirective;
    return line;
  }
  std::string parse_error;
  std::optional<Request> request = parse_request(text, &parse_error);
  if (!request.has_value()) {
    if (parse_error.empty()) return line;  // blank / comment
    answer_invalid(next_id, parse_error, answer);
    line.kind = LineKind::kInvalid;
    return line;
  }
  request->id = ++next_id;
  requests_.add();
  begin_request_trace(*request, received);
  line.kind = LineKind::kRequest;
  line.request = std::move(*request);
  return line;
}

void FrontEndCore::answer_invalid(std::uint64_t& next_id, const std::string& error,
                                  const Write& answer) {
  requests_.add();
  deliver(nullptr, invalid_request_response(++next_id, error), answer);
}

void FrontEndCore::try_submit(Request request, Write write) {
  const std::uint64_t id = request.id;
  std::string session = request.session;
  std::shared_ptr<trace::Trace> request_trace = request.trace;
  if (executor().try_submit(std::move(request), completion(request_trace, write))) return;
  // Refused at the door (queue at capacity, enqueue fault, shutting
  // down): answer once, now — the retry policy belongs to the client.
  deliver(request_trace,
          queue_full_response(id, std::move(session), executor().retry_after_hint_ms()), write);
}

RequestExecutor::Callback FrontEndCore::completion(std::shared_ptr<trace::Trace> trace,
                                                   Write write) {
  return [this, trace = std::move(trace), write = std::move(write)](Response response) {
    deliver(trace, response, write);
  };
}

void FrontEndCore::deliver(const std::shared_ptr<trace::Trace>& trace, const Response& response,
                           const Write& write) {
  if (trace == nullptr) {
    write(response);
  } else {
    const std::uint32_t span = trace->open_span(trace::SpanKind::kRespond);
    write(response);
    trace->close_span(span);
    trace::Tracer::instance().finish(trace);
  }
  switch (response.status) {
    case ResponseStatus::kOk: break;
    case ResponseStatus::kError: errors_.add(); break;
    case ResponseStatus::kRejected: rejected_.add(); break;
    case ResponseStatus::kDeadlineExceeded: deadline_expired_.add(); break;
  }
}

void FrontEndCore::directive(const std::string& line, std::ostream& out) {
  executor().drain();
  run_directive(context_, line, out);
}

BatchSummary FrontEndCore::summary() const {
  BatchSummary summary;
  summary.requests = requests_.get();
  summary.errors = errors_.get();
  summary.rejected = rejected_.get();
  summary.deadline_expired = deadline_expired_.get();
  return summary;
}

BatchSummary run_batch(SessionManager& manager, RequestExecutor& executor, std::istream& in,
                       std::ostream& out, storage::DurableCatalog* durable) {
  FrontEndCore core({&manager, &executor, {}, durable});
  // Submissions go through a retrying client: transient refusals (full
  // queue, shed, degraded layer, busy sessions) are retried with backoff
  // and only terminal responses land here.
  ServiceClient client(executor);

  // Responses are rendered where they complete, in completion order; the
  // batch contract is submission order, so they park here until a flush.
  std::mutex collect_lock;
  std::condition_variable room;
  std::map<std::uint64_t, std::string> parked;
  std::uint64_t answered = 0;  // guarded by collect_lock
  const FrontEndCore::Write park = [&](const Response& response) {
    std::string text = render_response(response);
    std::lock_guard<std::mutex> guard(collect_lock);
    parked.emplace(response.id, std::move(text));
    ++answered;
    room.notify_one();
  };

  // Waits until every request is terminal, then prints everything parked
  // so far in submission order. Runs at every directive (a sync point —
  // the directive must observe exactly the state after the requests above
  // it) and at end of input.
  const auto flush = [&] {
    client.drain();
    std::lock_guard<std::mutex> guard(collect_lock);
    for (const auto& [id, text] : parked) out << text;
    parked.clear();
  };

  std::uint64_t next_id = 0;
  std::string line;
  while (std::getline(in, line)) {
    FrontEndCore::Line accepted =
        core.accept(line, next_id, std::chrono::steady_clock::now(), park);
    if (accepted.kind == FrontEndCore::LineKind::kDirective) {
      flush();
      core.directive(line, out);
    } else if (accepted.kind == FrontEndCore::LineKind::kRequest) {
      {
        // Reader-side throttle: cap unanswered ids at the executor's
        // queue capacity so a fast reader leans on backpressure instead
        // of ballooning the client's retry queue.
        std::unique_lock<std::mutex> guard(collect_lock);
        room.wait(guard, [&] { return next_id - answered <= executor.options().queue_capacity; });
      }
      auto request_trace = accepted.request.trace;
      client.submit(std::move(accepted.request), core.completion(std::move(request_trace), park));
    }
  }
  flush();
  client.shutdown();
  return core.summary();
}

BatchSummary run_serve(SessionManager& manager, RequestExecutor& executor, std::istream& in,
                       std::ostream& out, storage::DurableCatalog* durable) {
  FrontEndCore core({&manager, &executor, {}, durable});
  std::mutex out_lock;  // responses print whole from worker threads
  const FrontEndCore::Write print = [&](const Response& response) {
    const std::string text = render_response(response);
    std::lock_guard<std::mutex> guard(out_lock);
    out << text;
    out.flush();
  };
  std::uint64_t next_id = 0;
  std::string line;
  while (std::getline(in, line)) {
    FrontEndCore::Line accepted =
        core.accept(line, next_id, std::chrono::steady_clock::now(), print);
    if (accepted.kind == FrontEndCore::LineKind::kDirective) {
      // The drain inside directive() leaves no completion to race this
      // thread's write, so no lock is taken (or held across the drain).
      core.directive(line, out);
      out.flush();
    } else if (accepted.kind == FrontEndCore::LineKind::kRequest) {
      core.try_submit(std::move(accepted.request), print);
    }
  }
  executor.drain();
  return core.summary();
}

}  // namespace dslayer::service
