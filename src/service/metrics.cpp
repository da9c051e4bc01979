#include "service/metrics.hpp"

#include <cstdio>
#include <map>

#include "storage/counters.hpp"
#include "support/failpoint.hpp"
#include "support/simd.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace dslayer::service {

namespace {

/// %.9g round-trips every boundary/sum we emit and never produces the
/// locale-dependent formats Prometheus rejects.
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Escapes a label value per the text format: backslash, quote, newline.
std::string label_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void family(std::string& out, std::string_view name, std::string_view help,
            std::string_view type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void sample(std::string& out, std::string_view name, std::uint64_t value) {
  out += name;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void sample(std::string& out, std::string_view name, double value) {
  out += name;
  out += ' ';
  out += number(value);
  out += '\n';
}

/// One labeled histogram series from a telemetry snapshot: elided empty
/// buckets, cumulative counts, le in seconds, the mandatory +Inf bucket,
/// then _sum/_count.
void histogram_series(std::string& out, std::string_view name, const std::string& verb,
                      const telemetry::HistogramSnapshot& snapshot) {
  const std::string label = std::string("{verb=\"") + label_escape(verb) + "\",le=\"";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < snapshot.buckets.size(); ++i) {
    if (snapshot.buckets[i] == 0) continue;
    cumulative += snapshot.buckets[i];
    const double le_seconds =
        static_cast<double>(telemetry::bucket_upper_bound_ns(i)) / 1e9;
    out += name;
    out += "_bucket";
    out += label;
    out += number(le_seconds);
    out += "\"} ";
    out += std::to_string(cumulative);
    out += '\n';
  }
  out += name;
  out += "_bucket";
  out += label;
  out += "+Inf\"} ";
  out += std::to_string(snapshot.count);
  out += '\n';
  out += name;
  out += "_sum{verb=\"";
  out += label_escape(verb);
  out += "\"} ";
  out += number(snapshot.total_us / 1e6);
  out += '\n';
  out += name;
  out += "_count{verb=\"";
  out += label_escape(verb);
  out += "\"} ";
  out += std::to_string(snapshot.count);
  out += '\n';
}

}  // namespace

std::string render_metrics(SessionManager& manager, RequestExecutor& executor,
                           const FrontEndStatsFn& front_end) {
  std::string out;
  out.reserve(4096);

  const RequestExecutor::Stats xs = executor.stats();
  family(out, "dslayer_requests_accepted_total", "Requests accepted by the executor queue.",
         "counter");
  sample(out, "dslayer_requests_accepted_total", xs.accepted);
  family(out, "dslayer_requests_executed_total",
         "Accepted requests completed with any terminal status.", "counter");
  sample(out, "dslayer_requests_executed_total", xs.executed);
  family(out, "dslayer_requests_rejected_total",
         "Submissions refused by backpressure (queue at capacity).", "counter");
  sample(out, "dslayer_requests_rejected_total", xs.rejected);
  family(out, "dslayer_requests_errors_total", "Completed requests that returned an error.",
         "counter");
  sample(out, "dslayer_requests_errors_total", xs.errors);
  family(out, "dslayer_requests_deadline_expired_total",
         "Requests answered deadline-exceeded (queued or mid-sweep).", "counter");
  sample(out, "dslayer_requests_deadline_expired_total", xs.deadline_expired);
  family(out, "dslayer_requests_shed_total",
         "Requests shed at dequeue after exceeding the queue-wait limit.", "counter");
  sample(out, "dslayer_requests_shed_total", xs.shed);
  family(out, "dslayer_queue_depth", "Requests accepted but not yet completed.", "gauge");
  sample(out, "dslayer_queue_depth", static_cast<std::uint64_t>(xs.queue_depth));
  family(out, "dslayer_queue_depth_peak", "High-water mark of the queue depth gauge.", "gauge");
  sample(out, "dslayer_queue_depth_peak", static_cast<std::uint64_t>(xs.peak_queue_depth));
  family(out, "dslayer_queue_wait_ewma_ms",
         "Exponentially weighted moving average of recent queue waits.", "gauge");
  sample(out, "dslayer_queue_wait_ewma_ms", executor.queue_wait_ewma_ms());

  // Info-style gauge: which columnar word-kernel path is serving traffic
  // (runtime dispatch — CPU features and the DSLAYER_SIMD override).
  family(out, "dslayer_simd_kernel",
         "Active columnar filter word-kernel ISA; the value is always 1.", "gauge");
  out += "dslayer_simd_kernel{kernel=\"";
  out += label_escape(support::simd::to_string(support::simd::kernels().kind));
  out += "\"} 1\n";

  const SessionManager::Stats ms = manager.stats();
  const dsl::DesignSpaceLayer::CatalogCounts catalog = manager.shared().catalog_counts();
  family(out, "dslayer_catalog_cores", "Cores attached to the layer's reuse libraries.", "gauge");
  sample(out, "dslayer_catalog_cores", static_cast<std::uint64_t>(catalog.cores));
  family(out, "dslayer_catalog_hydrated_cores",
         "Cores holding decoded data: built in memory, or snapshot slots filled on first read.",
         "gauge");
  sample(out, "dslayer_catalog_hydrated_cores", static_cast<std::uint64_t>(catalog.hydrated));

  family(out, "dslayer_sessions_live", "Sessions currently open.", "gauge");
  sample(out, "dslayer_sessions_live", static_cast<std::uint64_t>(manager.session_count()));
  family(out, "dslayer_sessions_created_total", "Sessions created on first use.", "counter");
  sample(out, "dslayer_sessions_created_total", ms.created);
  family(out, "dslayer_sessions_closed_total", "Sessions closed explicitly.", "counter");
  sample(out, "dslayer_sessions_closed_total", ms.closed);
  family(out, "dslayer_sessions_evicted_total", "Sessions LRU-evicted at capacity.", "counter");
  sample(out, "dslayer_sessions_evicted_total", ms.evicted);
  family(out, "dslayer_session_commands_total", "Commands that reached a session engine.",
         "counter");
  sample(out, "dslayer_session_commands_total", ms.commands);
  family(out, "dslayer_session_migrations_total",
         "Sessions migrated across shared-layer epochs by journal replay.", "counter");
  sample(out, "dslayer_session_migrations_total", ms.migrations);
  family(out, "dslayer_session_migration_failures_total",
         "Epoch migrations that failed loudly (journal no longer replays).", "counter");
  sample(out, "dslayer_session_migration_failures_total", ms.migration_failures);
  family(out, "dslayer_sessions_restored_total",
         "Sessions rebuilt from a durable journal after a restart or eviction.", "counter");
  sample(out, "dslayer_sessions_restored_total", ms.restored);
  family(out, "dslayer_session_restore_failures_total",
         "Durable session journals that no longer replay against the catalog.", "counter");
  sample(out, "dslayer_session_restore_failures_total", ms.restore_failures);

  // Storage-layer durability counters (process-global: WAL, snapshots,
  // session journals, bulk import — zero everywhere without --data).
  const storage::StorageCounters& sc = storage::counters();
  family(out, "dslayer_storage_wal_appends_total",
         "Catalog mutation frames appended to the write-ahead journal.", "counter");
  sample(out, "dslayer_storage_wal_appends_total", sc.wal_appends.get());
  family(out, "dslayer_storage_wal_synced_bytes_total",
         "Journal bytes made durable by fsync.", "counter");
  sample(out, "dslayer_storage_wal_synced_bytes_total", sc.wal_synced_bytes.get());
  family(out, "dslayer_storage_snapshot_writes_total",
         "Catalog snapshots published (checkpoints).", "counter");
  sample(out, "dslayer_storage_snapshot_writes_total", sc.snapshot_writes.get());
  family(out, "dslayer_storage_snapshot_bytes_total",
         "Bytes written across all published snapshots.", "counter");
  sample(out, "dslayer_storage_snapshot_bytes_total", sc.snapshot_bytes.get());
  family(out, "dslayer_storage_snapshot_loads_total",
         "Snapshots loaded into a layer (boot and !restore).", "counter");
  sample(out, "dslayer_storage_snapshot_loads_total", sc.snapshot_loads.get());
  family(out, "dslayer_storage_recovery_replayed_records_total",
         "Journal records re-applied during recovery.", "counter");
  sample(out, "dslayer_storage_recovery_replayed_records_total",
         sc.recovery_replayed_records.get());
  family(out, "dslayer_storage_recovery_truncated_bytes_total",
         "Torn journal tail bytes dropped during recovery.", "counter");
  sample(out, "dslayer_storage_recovery_truncated_bytes_total",
         sc.recovery_truncated_bytes.get());
  family(out, "dslayer_storage_session_flushes_total",
         "Durable session journal writes (atomic save or append).", "counter");
  sample(out, "dslayer_storage_session_flushes_total", sc.session_flushes.get());
  family(out, "dslayer_storage_session_flush_failures_total",
         "Session journal writes that failed (durability degraded).", "counter");
  sample(out, "dslayer_storage_session_flush_failures_total",
         sc.session_flush_failures.get());
  family(out, "dslayer_storage_import_rows_total",
         "Cores parsed from bulk CSV imports.", "counter");
  sample(out, "dslayer_storage_import_rows_total", sc.import_rows.get());

  // Per-verb latency histograms. "request" is the all-verbs population,
  // exposed as verb="all"; "request.<verb>" becomes verb="<verb>".
  family(out, "dslayer_request_latency_seconds",
         "Request latency (queue wait + execution) by command verb, power-of-two buckets.",
         "histogram");
  for (const auto& [key, snapshot] : executor.histogram_snapshots()) {
    std::string verb;
    if (key == "request") {
      verb = "all";
    } else if (key.rfind("request.", 0) == 0) {
      verb = key.substr(8);
    } else {
      continue;  // not a request-latency histogram
    }
    histogram_series(out, "dslayer_request_latency_seconds", verb, snapshot);
  }

  if (front_end) {
    const FrontEndCounters net = front_end();
    family(out, "dslayer_net_connections_open", "Connections currently open.", "gauge");
    sample(out, "dslayer_net_connections_open",
           static_cast<std::uint64_t>(net.open_connections));
    family(out, "dslayer_net_connections_accepted_total", "Connections accepted.", "counter");
    sample(out, "dslayer_net_connections_accepted_total", net.accepted);
    family(out, "dslayer_net_connections_closed_total", "Connections fully closed.", "counter");
    sample(out, "dslayer_net_connections_closed_total", net.closed);
    family(out, "dslayer_net_connections_rejected_total",
           "Accepts refused at the connection cap.", "counter");
    sample(out, "dslayer_net_connections_rejected_total", net.rejected_connects);
    family(out, "dslayer_net_requests_total", "Well-formed requests submitted from the wire.",
           "counter");
    sample(out, "dslayer_net_requests_total", net.requests);
    family(out, "dslayer_net_responses_total", "Responses written to connection outboxes.",
           "counter");
    sample(out, "dslayer_net_responses_total", net.responses);
    family(out, "dslayer_net_invalid_lines_total", "Parse failures answered inline.", "counter");
    sample(out, "dslayer_net_invalid_lines_total", net.invalid_lines);
    family(out, "dslayer_net_oversized_lines_total", "Lines over the per-line byte cap.",
           "counter");
    sample(out, "dslayer_net_oversized_lines_total", net.oversized_lines);
    family(out, "dslayer_net_directives_total", "Directive sync points executed.", "counter");
    sample(out, "dslayer_net_directives_total", net.directives);
    family(out, "dslayer_net_idle_closed_total", "Connections closed by the idle sweep.",
           "counter");
    sample(out, "dslayer_net_idle_closed_total", net.idle_closed);
    family(out, "dslayer_net_slow_reader_closed_total",
           "Connections closed for unread output over the buffer cap.", "counter");
    sample(out, "dslayer_net_slow_reader_closed_total", net.slow_reader_closed);
    family(out, "dslayer_net_faulted_total",
           "Connections killed by io errors or injected faults.", "counter");
    sample(out, "dslayer_net_faulted_total", net.faulted);
  }

  const trace::TracerStats ts = trace::Tracer::instance().stats();
  family(out, "dslayer_traces_started_total", "Request traces created at ingress.", "counter");
  sample(out, "dslayer_traces_started_total", ts.started);
  family(out, "dslayer_traces_sampled_total",
         "Traces that won the sampling draw (deep spans + retention).", "counter");
  sample(out, "dslayer_traces_sampled_total", ts.sampled);
  family(out, "dslayer_traces_finished_total", "Traces finished by a front end.", "counter");
  sample(out, "dslayer_traces_finished_total", ts.finished);
  family(out, "dslayer_traces_slow_total",
         "Finished traces over the slow-request threshold.", "counter");
  sample(out, "dslayer_traces_slow_total", ts.slow);
  family(out, "dslayer_flight_records", "Slow-request flight records currently retained.",
         "gauge");
  sample(out, "dslayer_flight_records", ts.flight_records);
  family(out, "dslayer_flight_records_dropped_total",
         "Flight records evicted by the retention bound.", "counter");
  sample(out, "dslayer_flight_records_dropped_total", ts.flight_dropped);

  // Armed failpoints only — the registry lists what chaos has touched,
  // so a healthy process exposes no failpoint series at all.
  const auto failpoints = support::FailpointRegistry::instance().list();
  if (!failpoints.empty()) {
    family(out, "dslayer_failpoint_hits_total",
           "Times an armed failpoint site was reached.", "counter");
    for (const auto& info : failpoints) {
      out += "dslayer_failpoint_hits_total{site=\"" + label_escape(info.name) + "\"} " +
             std::to_string(info.hits) + "\n";
    }
    family(out, "dslayer_failpoint_fires_total",
           "Times an armed failpoint actually injected its fault.", "counter");
    for (const auto& info : failpoints) {
      out += "dslayer_failpoint_fires_total{site=\"" + label_escape(info.name) + "\"} " +
             std::to_string(info.fires) + "\n";
    }
  }

  out += "# EOF\n";
  return out;
}

}  // namespace dslayer::service
