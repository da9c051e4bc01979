// Exploration telemetry: typed events, per-kind counters, timers.
//
// The paper's interactive loop (Section 5) is a dialogue of decisions,
// eliminations, and re-assessments. This module gives that dialogue a
// typed vocabulary and makes its cost countable:
//
//   * Event — a typed record (kind, sequence number, subject, detail) of
//     one step of an exploration. The only place events are kept is the
//     session's replay journal (dsl::ExplorationSession::journal()), which
//     holds the state-mutating kinds numbered 1..n;
//   * JsonlFileSink — writes events as JSON lines to a file (the shell's
//     `trace export`);
//   * Telemetry — the per-object hub: aggregate per-kind counters (every
//     kind, including the observational ones that are never stored as
//     events) and per-query-kind latency histograms;
//   * ScopedTimer — RAII wall-clock probe feeding a named histogram.
//
// Layering: this is a support module — it knows nothing about CDOs,
// sessions, or values. The dsl layer encodes its payloads into the
// subject/detail strings (see ExplorationSession::export_journal()).
//
// Threading model (audited for the concurrent exploration service,
// DESIGN.md §9): count()/count_of() are thread-safe (relaxed atomics) —
// they are the only telemetry operations the layer-side query hot paths
// perform under the service's SHARED reader lock. record_timing() and the
// histogram reads require external synchronization: session hubs are
// guarded by the service's per-session lock, the executor's hub by its
// telemetry lock, and the shared layer's hub only times on exclusive-epoch
// paths (index_cores, first-touch index builds — both pre-warmed by
// service::SharedLayer::prime()).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "support/relaxed_counter.hpp"

namespace dslayer::telemetry {

/// Everything the exploration and query layers report. Order is part of
/// the JSONL schema only through to_string(); new kinds append.
enum class EventKind : std::uint8_t {
  kSessionOpened,        ///< subject = CDO class path
  kRequirementSet,       ///< subject = property, detail = encoded value
  kDecision,             ///< subject = issue, detail = encoded value
  kRetract,              ///< subject = property
  kReaffirm,             ///< subject = property
  kOptionEliminated,     ///< counted only — an option vetoed by a constraint
  kReassessmentFlagged,  ///< counted only — a decided property flagged
  kConstraintEvaluated,  ///< counted only (hot path) — predicate violated() calls
  kComplianceCheck,      ///< counted only (hot path) — cores run through the filter
  kCacheHit,             ///< counted only — a memoized query answered
  kCacheMiss,            ///< counted only — a memoized query recomputed
  kIndexRebuild,         ///< counted only — the subtree core index was (re)built
  kQueryTimed,           ///< counted only — one per record_timing() sample
  kPrefilterSkip,        ///< counted only (hot path) — rows a declared prefilter spared the lambda
};

inline constexpr std::size_t kEventKindCount = 14;

/// Stable wire name ("Decision", "CacheHit", ...).
const char* to_string(EventKind kind);

/// Inverse of to_string; nullopt for unknown names.
std::optional<EventKind> parse_event_kind(std::string_view name);

/// One journal record. `seq` numbers a session's journal 1..n, so a
/// replayed journal reproduces the original byte for byte.
struct Event {
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kSessionOpened;
  std::string subject;
  std::string detail;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Escapes `s` for embedding in a JSON string literal (quotes, backslash,
/// control characters; non-ASCII bytes pass through untouched).
std::string json_escape(std::string_view s);

/// Renders one event as a single JSON line (no trailing newline):
/// {"seq":3,"kind":"Decision","subject":"Algorithm","detail":"txt:Montgomery"}
std::string to_jsonl(const Event& event);

/// Parses a line produced by to_jsonl (tolerant of key order, extra
/// whitespace, and unknown string- or number-valued keys such as the
/// retired "us" duration). nullopt on malformed input or unknown kind.
std::optional<Event> parse_event_jsonl(std::string_view line);

/// Writes events as JSON lines to a file. `flush_every` bounds how much a
/// crash can silently lose: the sink flushes after every Nth event (the
/// default 1 flushes per event — journals survive crashes at stream
/// cost; a larger N amortizes the flush for high-rate streams, capping
/// loss at N-1 events), on explicit flush(), and at destruction. Throws
/// dslayer::Error if the file cannot be opened.
///
/// Write failures (disk full, path yanked) must not be silent data loss:
/// each failed write bumps write_failures(), the first one also prints a
/// one-shot stderr warning, and the sink keeps trying (the stream error
/// state is cleared so a recovered disk resumes the journal). The
/// "telemetry.jsonl_write" failpoint simulates a failing device.
class JsonlFileSink {
 public:
  explicit JsonlFileSink(const std::string& path, std::size_t flush_every = 1);
  ~JsonlFileSink();

  void write(const Event& event);

  /// Pushes everything buffered to the file now (crash-adjacent callers
  /// — signal handlers excepted — use this before risky sections).
  void flush();

  const std::string& path() const { return path_; }
  std::size_t flush_every() const { return flush_every_; }

  /// Events that could not be written (and are lost from the file).
  std::uint64_t write_failures() const { return write_failures_.get(); }

 private:
  std::string path_;
  std::size_t flush_every_;
  std::size_t unflushed_ = 0;
  struct Impl;
  std::unique_ptr<Impl> impl_;
  RelaxedCounter write_failures_;
  bool warned_ = false;
};

/// The latency histograms' bucket-edge convention, pinned by
/// tests/telemetry_test.cpp and shared with the Prometheus exposition
/// (service::render_metrics): bucket i holds samples in the half-open
/// nanosecond range [2^i, 2^(i+1)), so exact powers of two open their own
/// bucket (1 ns -> bucket 0, 2 ns -> bucket 1, 2^k -> bucket k,
/// 2^k + 1 -> bucket k). Bucket 0 additionally absorbs 0 ns, and the last
/// bucket absorbs everything >= 2^63 ns.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Bucket index for an integer nanosecond sample (floor(log2 ns)).
std::size_t latency_bucket_ns(std::uint64_t ns);

/// Exclusive upper bound of bucket i: 2^(i+1) ns (saturating at the last
/// bucket, whose true upper bound is +inf).
std::uint64_t bucket_upper_bound_ns(std::size_t bucket);

/// Copy of one named histogram's raw state, for exposition layers that
/// need the buckets themselves rather than the TimingSummary quantiles.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  double max_us = 0.0;
  double total_us = 0.0;
};

/// count / p50 / p95 / max / total of one named latency population.
/// Quantiles are read from power-of-two nanosecond buckets, so they are
/// upper-bound estimates accurate to 2x (see DESIGN.md §8); count, max,
/// and total are exact.
struct TimingSummary {
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double total_us = 0.0;
};

/// The hub: per-kind counters and latency histograms. One per
/// instrumented object (DesignSpaceLayer, ExplorationSession,
/// service::RequestExecutor).
class Telemetry {
 public:
  /// Bumps the counter of `kind`. Thread-safe (relaxed atomic) —
  /// shared-layer hot paths bump these concurrently under a reader lock.
  void count(EventKind kind, std::uint64_t n = 1) {
    counts_[static_cast<std::size_t>(kind)].add(n);
  }

  /// Total occurrences of `kind`. Thread-safe snapshot read.
  std::uint64_t count_of(EventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)].get();
  }

  /// Records one latency sample into the named histogram and counts a
  /// QueryTimed.
  void record_timing(const std::string& query_kind, double duration_us);

  /// Snapshot of every named histogram.
  std::map<std::string, TimingSummary> timings() const;

  /// Raw-bucket snapshot of every named histogram (the `!metrics`
  /// exposition path). Same external-synchronization contract as
  /// timings().
  std::map<std::string, HistogramSnapshot> histogram_snapshots() const;

  /// Zeroes counters and histograms.
  void reset_counters();

 private:
  /// Power-of-two nanosecond buckets per the latency_bucket_ns()
  /// convention above; 64 buckets cover any double duration.
  struct Histogram {
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    double max_us = 0.0;
    double total_us = 0.0;

    void record(double us);
    double quantile_us(double q) const;  ///< bucket upper bound at quantile q
  };

  std::array<RelaxedCounter, kEventKindCount> counts_{};
  std::map<std::string, Histogram> histograms_;
};

/// RAII wall-clock probe: times its own lifetime and reports it to
/// `telemetry` under `query_kind`. Null-safe (a disabled probe costs one
/// branch). Move-only.
class ScopedTimer {
 public:
  ScopedTimer(Telemetry* telemetry, std::string query_kind)
      : telemetry_(telemetry),
        query_kind_(std::move(query_kind)),
        start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (telemetry_ == nullptr) return;
    const auto stop = std::chrono::steady_clock::now();
    telemetry_->record_timing(query_kind_,
                              std::chrono::duration<double, std::micro>(stop - start_).count());
  }

 private:
  Telemetry* telemetry_;
  std::string query_kind_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dslayer::telemetry
