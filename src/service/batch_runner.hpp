// Front ends over the executor: the per-request core all three share, and
// the batch and serve stream modes built on it.
//
// run_batch, run_serve and the TCP server (net/server.hpp) speak the
// newline protocol (protocol.hpp). FrontEndCore holds every step a line
// takes to a counted response, written once: classify it, assign the
// stream's next id and begin the trace, answer a malformed line,
// try_submit() at the executor's door (a refusal is answered at once with
// a typed rejected/overloaded response and a retry-after hint — retry
// policy belongs to the client), and on terminal delivery record the
// respond span, finish the trace and tally the BatchSummary. A front end
// keeps only what differs — where responses go:
//
//   * run_batch — submits through a retrying ServiceClient and prints in
//     SUBMISSION order at each directive and at end of input: scripted,
//     deterministic given per-session determinism.
//   * run_serve — prints each response as it COMPLETES, flushing per
//     response: a slow session never holds back the others.
//   * net::NetServer — per-connection outboxes and directive barriers.
//
// Directives ('!' lines) are synchronization points: the front end lets
// the requests above it finish, then FrontEndCore::directive() drains the
// executor and acts.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "service/metrics.hpp"
#include "service/request_executor.hpp"
#include "service/session_manager.hpp"
#include "storage/durable_catalog.hpp"
#include "support/relaxed_counter.hpp"

namespace dslayer::service {

/// Terminal-response accounting, the same for every front end: each
/// answered line (malformed ones included) counts in `requests` and in at
/// most one bucket by its terminal ResponseStatus.
struct BatchSummary {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;    ///< kError (command failures, invalid lines, internal)
  std::uint64_t rejected = 0;  ///< kRejected (queue full, shed, busy, unavailable)
  /// kDeadlineExceeded terminal responses. Kept distinct from `errors`:
  /// an expired deadline is the caller's budget running out, not the
  /// service misbehaving, and clients alert on the two differently.
  std::uint64_t deadline_expired = 0;
};

/// Everything a directive handler can reach. `front_end` is the optional
/// TCP-counter snapshot provider (metrics.hpp) a network front end
/// injects so `!stats` and `!metrics` show connection-lifecycle counters;
/// stream front ends leave it null.
struct DirectiveContext {
  SessionManager* manager = nullptr;
  RequestExecutor* executor = nullptr;
  FrontEndStatsFn front_end{};
  /// Durable-catalog handle (null without --data): enables `!snapshot`
  /// (checkpoint under the shared read lock — readers keep running,
  /// writers are excluded) and `!restore` (re-boot from disk inside a
  /// SharedLayer writer epoch, so every session migrates off the
  /// discarded in-memory state).
  storage::DurableCatalog* durable = nullptr;
};

/// Handles one '!' directive line (`!sessions`, `!stats`, `!metrics`,
/// `!close <s>`, `!drain`, `!failpoint [list|<spec>]`, `!snapshot`,
/// `!restore`), writing its output to `out`. Returns false for unknown
/// or failed directives (reported on `out`). Does not drain — that is
/// FrontEndCore::directive(). Only `!metrics` may run undrained: its
/// payload is built from thread-safe snapshots, so a scrape need not
/// block behind a busy queue.
bool run_directive(const DirectiveContext& context, const std::string& line, std::ostream& out);

/// The per-request steps every front end shares (see the file comment).
class FrontEndCore {
 public:
  /// Where a front end puts one terminal response: called inline for a
  /// malformed line or a refusal at the door, on a worker or retry thread
  /// otherwise — so it must be thread-safe.
  using Write = std::function<void(const Response&)>;

  enum class LineKind : std::uint8_t {
    kSkip,       ///< blank line or `#` comment
    kDirective,  ///< run it at the front end's sync point
    kInvalid,    ///< malformed; already answered
    kRequest,    ///< Line::request carries its id and trace
  };

  struct Line {
    LineKind kind = LineKind::kSkip;
    Request request;
  };

  explicit FrontEndCore(DirectiveContext context);

  // Completion callbacks hold `this`.
  FrontEndCore(const FrontEndCore&) = delete;
  FrontEndCore& operator=(const FrontEndCore&) = delete;

  /// Classifies one line read at `received` (the trace origin). Malformed
  /// lines and requests take the next id from `next_id`, the front end's
  /// per-stream counter; a malformed line is answered through `answer`.
  Line accept(std::string_view line, std::uint64_t& next_id,
              std::chrono::steady_clock::time_point received, const Write& answer);

  /// Answers a line that never became a request (malformed, or too long
  /// to frame) with the next id and the invalid-request response.
  void answer_invalid(std::uint64_t& next_id, const std::string& error, const Write& answer);

  /// Submits at the executor's door; `write` gets the terminal response
  /// exactly once — on completion, or at once with the queue-full
  /// rejection when the door refuses.
  void try_submit(Request request, Write write);

  /// The terminal step as an executor callback, for a submitter with its
  /// own retry policy (ServiceClient).
  RequestExecutor::Callback completion(std::shared_ptr<trace::Trace> trace, Write write);

  /// Drains the executor, then runs the directive. Never call it holding
  /// a lock a writer takes: the drain waits on those writers.
  void directive(const std::string& line, std::ostream& out);

  BatchSummary summary() const;
  const DirectiveContext& context() const { return context_; }
  RequestExecutor& executor() const { return *context_.executor; }

 private:
  /// Every terminal response funnels through here exactly once.
  void deliver(const std::shared_ptr<trace::Trace>& trace, const Response& response,
               const Write& write);

  DirectiveContext context_;
  RelaxedCounter requests_;
  RelaxedCounter errors_;
  RelaxedCounter rejected_;
  RelaxedCounter deadline_expired_;
};

/// `durable` (optional) enables the `!snapshot` / `!restore` directives.
BatchSummary run_batch(SessionManager& manager, RequestExecutor& executor, std::istream& in,
                       std::ostream& out, storage::DurableCatalog* durable = nullptr);

BatchSummary run_serve(SessionManager& manager, RequestExecutor& executor, std::istream& in,
                       std::ostream& out, storage::DurableCatalog* durable = nullptr);

}  // namespace dslayer::service
