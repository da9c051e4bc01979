#include "service/protocol.hpp"

#include <cctype>
#include <cstdlib>

#include "support/strings.hpp"

namespace dslayer::service {

const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kError: return "error";
    case ResponseStatus::kRejected: return "rejected";
    case ResponseStatus::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kInvalidRequest: return "invalid-request";
    case ErrorCode::kCommandFailed: return "command-failed";
    case ErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::kSessionsBusy: return "sessions-busy";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

bool is_retryable(ErrorCode code) {
  switch (code) {
    case ErrorCode::kSessionsBusy:
    case ErrorCode::kOverloaded:
    case ErrorCode::kUnavailable:
      return true;
    case ErrorCode::kNone:
    case ErrorCode::kInvalidRequest:
    case ErrorCode::kCommandFailed:
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kInternal:
      return false;
  }
  return false;
}

bool is_directive(std::string_view line) {
  const std::string_view trimmed = trim(line);
  return !trimmed.empty() && trimmed.front() == '!';
}

namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

/// Parses the `@<ms>` session suffix. Returns false (with *error set) on
/// a malformed suffix; on success *deadline_ms > 0.
bool parse_deadline_suffix(std::string_view token, double* deadline_ms, std::string* error) {
  if (token.empty()) {
    set_error(error, "deadline suffix '@' with no milliseconds (expected <session>@<ms>)");
    return false;
  }
  double value = 0.0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      set_error(error,
                cat("bad deadline '", std::string(token),
                    "' — everything after the first '@' must be a whole number of ms "
                    "('@' is reserved for the deadline suffix and cannot appear in "
                    "session names)"));
      return false;
    }
    value = value * 10.0 + (c - '0');
    if (value > 1e9) {  // ~11.5 days; anything larger is a typo
      set_error(error, cat("deadline '", std::string(token), "' is out of range"));
      return false;
    }
  }
  if (value <= 0.0) {
    set_error(error, "deadline must be a positive number of milliseconds");
    return false;
  }
  *deadline_ms = value;
  return true;
}

}  // namespace

std::optional<Request> parse_request(std::string_view line, std::string* error) noexcept {
  try {
    if (line.size() > kMaxRequestLineBytes) {
      set_error(error, cat("request line of ", line.size(), " bytes exceeds the ",
                           kMaxRequestLineBytes, "-byte limit"));
      return std::nullopt;
    }
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') return std::nullopt;
    const std::size_t gap = trimmed.find(' ');
    if (gap == std::string_view::npos) {
      set_error(error, cat("request '", std::string(trimmed),
                           "' names a session but no command (expected: <session> <command...>)"));
      return std::nullopt;
    }
    Request request;
    std::string_view session = trimmed.substr(0, gap);
    // Split at the FIRST '@': the character is reserved for the deadline
    // suffix and may not appear in session names. Splitting at the last
    // '@' used to parse "user@host" as session "user@" + deadline "host"
    // and reject it with a misleading "bad deadline 'host'" message.
    const std::size_t at = session.find('@');
    if (at != std::string_view::npos) {
      if (!parse_deadline_suffix(session.substr(at + 1), &request.deadline_ms, error)) {
        return std::nullopt;
      }
      session = session.substr(0, at);
    }
    if (session.empty()) {
      set_error(error, cat("request '", std::string(trimmed), "' has an empty session name"));
      return std::nullopt;
    }
    request.session = std::string(session);
    request.command = std::string(trim(trimmed.substr(gap + 1)));
    if (request.command.empty()) {
      set_error(error, cat("request for session '", request.session, "' has an empty command"));
      return std::nullopt;
    }
    return request;
  } catch (...) {
    // Allocation failure on adversarial input must not take the server
    // down; report the line as malformed instead.
    set_error(error, "request line could not be parsed");
    return std::nullopt;
  }
}

Response invalid_request_response(std::uint64_t id, const std::string& error) {
  Response bad;
  bad.id = id;
  bad.session = std::string(1, '-');
  bad.status = ResponseStatus::kError;
  bad.code = ErrorCode::kInvalidRequest;
  bad.output = cat("error: ", error, "\n");
  return bad;
}

Response queue_full_response(std::uint64_t id, std::string session, double retry_after_ms) {
  Response rejection;
  rejection.id = id;
  rejection.session = std::move(session);
  rejection.status = ResponseStatus::kRejected;
  rejection.code = ErrorCode::kOverloaded;
  rejection.retry_after_ms = retry_after_ms;
  rejection.output = "error: queue full — resubmit\n";
  return rejection;
}

std::string render_response(const Response& response) {
  std::string out = cat("== ", response.id, " ", response.session, " ",
                        to_string(response.status));
  if (response.code != ErrorCode::kNone) out += cat(" code=", to_string(response.code));
  if (response.retry_after_ms > 0.0) {
    out += cat(" retry-after-ms=", static_cast<std::uint64_t>(response.retry_after_ms));
  }
  out += '\n';
  out += response.output;
  if (!out.empty() && out.back() != '\n') out += '\n';
  return out;
}

}  // namespace dslayer::service
