// The service's newline-delimited request protocol.
//
// One request per line, reusing the shell command grammar verbatim after
// a leading session name:
//
//   <session> <shell-command...>     e.g.  s1 open Operator.Modular.Multiplier
//                                          s1 decide Algorithm Montgomery
//                                          s2 candidates
//
// The session token may carry an optional request deadline as an `@<ms>`
// suffix (`s1@250 candidates` = "answer within 250ms of submission or
// fail fast with deadline-exceeded"). `'@'` is RESERVED for that suffix:
// the token is split at the first `'@'` and everything after it must be
// a whole number of milliseconds, so session names cannot contain `'@'`
// (a token like `user@host` is rejected with a message that says so
// rather than a misleading deadline-parse error). Blank lines and `#`
// comments are skipped. Lines starting with `!` are front-end directives
// (handled synchronously by the front end, not queued): `!sessions`,
// `!stats`, `!metrics`, `!close <session>`, `!drain`, `!failpoint <spec>`,
// `!failpoint list`, `!snapshot`, `!restore` (see batch_runner.hpp).
//
// Every queued request yields exactly one Response. The batch front end
// renders a response as a `== <id> <session> <status>` header line —
// augmented with `code=<error-code>` and `retry-after-ms=<n>` when set —
// followed by the command's output, so multi-line outputs stay
// unambiguous and a stream of responses is machine-splittable on `== `.
//
// Failure taxonomy: ResponseStatus is the coarse wire verdict (did the
// command run, and did it succeed); ErrorCode is the typed cause. The
// split matters to clients: is_retryable(code) says whether resubmitting
// the same line can succeed (backpressure, overload, degraded layer) or
// is pointless (malformed request, command error, expired deadline).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace dslayer::trace {
class Trace;
}  // namespace dslayer::trace

namespace dslayer::service {

/// Hard cap on one protocol line. Longer lines are rejected as
/// kInvalidRequest before any copy is made — a line is attacker-sized
/// input in serve mode, and the parser must stay O(line) with bounded
/// allocation.
inline constexpr std::size_t kMaxRequestLineBytes = 64 * 1024;

struct Request {
  std::uint64_t id = 0;  ///< submission order, assigned by the front end
  std::string session;
  std::string command;  ///< one shell-grammar command line
  /// Optional deadline budget in milliseconds, parsed from the `@<ms>`
  /// session suffix; 0 = no deadline. The executor starts the clock at
  /// submission, so queue wait counts against the budget.
  double deadline_ms = 0.0;
  /// End-to-end trace attached at ingress by the front end (null when
  /// tracing is disabled). Shared so it survives ServiceClient retries:
  /// a retried request accumulates one queue.wait/execute span pair per
  /// attempt on the same trace. The front end that delivers the final
  /// response calls trace::Tracer::finish().
  std::shared_ptr<trace::Trace> trace;
};

enum class ResponseStatus : std::uint8_t {
  kOk,
  kError,             ///< the command ran and failed ("error: ..." in output)
  kRejected,          ///< backpressure: never executed, safe to retry
  kDeadlineExceeded,  ///< the request's deadline expired before completion
};

const char* to_string(ResponseStatus status);

/// Typed failure cause, machine-readable on the wire as `code=<name>`.
/// kNone accompanies kOk; every non-ok response carries a specific code.
enum class ErrorCode : std::uint8_t {
  kNone,              ///< success
  kInvalidRequest,    ///< malformed line (no command, oversized, bad token)
  kCommandFailed,     ///< the shell command itself failed — terminal
  kDeadlineExceeded,  ///< request deadline expired (queued or mid-sweep)
  kSessionsBusy,      ///< session table full, every session pinned — retryable
  kOverloaded,        ///< queue full or queue wait over the shed threshold
  kUnavailable,       ///< shared layer degraded (writer stalled) — retryable
  kInternal,          ///< unexpected exception; state may be suspect
};

const char* to_string(ErrorCode code);

/// True when resubmitting the same request can plausibly succeed
/// (transient capacity/availability causes); false for terminal causes.
bool is_retryable(ErrorCode code);

struct Response {
  std::uint64_t id = 0;
  std::string session;
  ResponseStatus status = ResponseStatus::kOk;
  ErrorCode code = ErrorCode::kNone;
  std::string output;  ///< the command's shell output, newline-terminated
  double latency_us = 0.0;  ///< queue wait + execution (0 for rejections)
  /// Overload hint: when > 0, the service suggests the client wait this
  /// long before retrying (rendered as `retry-after-ms=<n>`).
  double retry_after_ms = 0.0;
};

/// Splits one protocol line into a Request. Never throws:
///   * blank lines and `#` comments    -> nullopt, *error untouched
///   * malformed or oversized lines    -> nullopt, *error set (non-empty)
///   * well-formed request             -> Request (caller assigns `id`)
/// `error` may be null when the caller does not care why a line failed.
std::optional<Request> parse_request(std::string_view line, std::string* error = nullptr) noexcept;

/// True if the line is a front-end directive (starts with '!').
bool is_directive(std::string_view line);

/// The canonical kError/kInvalidRequest response for a line that never
/// became a request (parse failure, oversized line). Session is "-";
/// `error` lands in the output as "error: <error>". Every front end
/// (batch, serve, TCP) answers malformed input with this shape.
Response invalid_request_response(std::uint64_t id, const std::string& error);

/// The canonical kRejected/kOverloaded answer for a request the executor
/// refused at the door (try_submit() returned false), carrying the
/// executor's retry-after hint. Front ends and ServiceClient alike.
Response queue_full_response(std::uint64_t id, std::string session, double retry_after_ms);

/// Renders the `== <id> <session> <status>` header plus output. Non-ok
/// codes append ` code=<name>`; a positive retry_after_ms appends
/// ` retry-after-ms=<n>`.
std::string render_response(const Response& response);

}  // namespace dslayer::service
