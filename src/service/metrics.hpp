// Prometheus text exposition for the exploration service.
//
// render_metrics() turns the service's live state — executor counters and
// per-verb latency histograms, session-manager counters, tracer and
// flight-recorder totals, armed-failpoint hit counts, and (when a TCP
// front end is attached) connection-lifecycle counters — into Prometheus
// text format (version 0.0.4 with an OpenMetrics-style `# EOF`
// terminator, which doubles as the payload framing marker on the TCP
// path). scripts/check_metrics_format.py validates the rules this module
// must uphold: name charset, one HELP/TYPE pair per family, monotone
// non-decreasing cumulative histogram buckets ending in le="+Inf", and
// bucket/_count agreement.
//
// The latency histograms reuse telemetry's power-of-two nanosecond
// buckets (telemetry::latency_bucket_ns) verbatim: bucket i's exclusive
// upper bound 2^(i+1) ns becomes the `le` boundary in seconds. Empty
// buckets are elided (a subset of boundaries is valid Prometheus as long
// as the counts stay cumulative), so a typical verb costs a handful of
// lines, not 64.
//
// Layering: service cannot depend on net, but network-mode operators
// need the NetServer counters here and in `!stats`. The net layer passes
// a FrontEndStatsFn snapshot provider down instead (see
// batch_runner.hpp's DirectiveContext).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "service/request_executor.hpp"
#include "service/session_manager.hpp"

namespace dslayer::service {

/// Connection-lifecycle counters of a TCP front end. Defined here so the
/// service layer stays net-free; net::NetServer::stats() reports them.
struct FrontEndCounters {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t rejected_connects = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t invalid_lines = 0;
  std::uint64_t oversized_lines = 0;
  std::uint64_t directives = 0;
  std::uint64_t idle_closed = 0;
  std::uint64_t slow_reader_closed = 0;
  std::uint64_t faulted = 0;
  std::size_t open_connections = 0;
};

/// Snapshot provider a front end injects; null = no TCP front end.
using FrontEndStatsFn = std::function<FrontEndCounters()>;

/// Renders the full `!metrics` payload (HELP/TYPE + samples per family,
/// `# EOF` last line). Thread-safe against concurrent request execution:
/// every input is read through a thread-safe snapshot API, so the TCP
/// front end serves this inline without draining the executor.
std::string render_metrics(SessionManager& manager, RequestExecutor& executor,
                           const FrontEndStatsFn& front_end = {});

}  // namespace dslayer::service
