// End-to-end request tracing for the exploration service.
//
// Every request entering a front end (TCP accept/parse, batch line,
// stdin serve) gets a trace: a process-unique id plus a list of typed
// spans recording where the request spent its time as it crosses layer
// boundaries — ingress (line extraction + front-end bookkeeping), parse,
// queue.wait (enqueue to dequeue inside the RequestExecutor), execute
// (the command on a worker strand), sweep (candidate-filter engines,
// nested under execute), respond (render + delivery). Span times are
// steady-clock nanoseconds relative to the trace origin, so the
// top-level chain's durations sum to approximately the client-observed
// latency.
//
// The pieces:
//
//   * Trace — one request's spans. Span mutation is guarded by a tiny
//     per-trace mutex: stages are serialized by the executor's queue
//     handoff, so the lock is uncontended; it keeps every cross-thread
//     touch (front end, worker, snapshot copies) safe without reasoning
//     about each handoff.
//   * TraceScope — RAII installer of the CURRENT thread's trace (a
//     thread_local, exactly like support::DeadlineScope). Deep
//     instrumentation sites (the sweep engines) consult
//     TraceScope::current(): one thread-local load and a branch when no
//     trace is installed, which is the whole cost tracing adds to an
//     unsampled request's hot path.
//   * SpanTimer — null-safe RAII span on a given trace.
//   * Tracer — the process-global hub: assigns ids, makes the sampling
//     decision (deterministic hash of seed ^ id, default 1-in-64,
//     --trace-sample), retains completed sampled traces in bounded
//     per-thread rings (one uncontended mutex op per completed trace),
//     and owns the slow-request flight recorder.
//
// Sampling vs the flight recorder: a trace object is created for EVERY
// request while the tracer is enabled, because "was this request slow?"
// is only known at the end. The coarse front-end/executor spans
// (ingress, parse, queue.wait, execute, respond — a handful per
// request) are always recorded on it; only the deep sweep spans are
// gated on the sampling decision (the worker installs a TraceScope only
// for sampled traces). Requests whose total latency reaches
// slow_request_ms are dumped to the flight recorder REGARDLESS of
// sampling, so p99 offenders are always explained — run --trace-sample 1
// to capture sweep detail for all of them.
//
// Joining with telemetry: a trace records the front end's request id and
// session, the same pair the protocol layer prints in `== <id> <session>`
// headers and the session journal keys its events by, so a flight record
// can be lined up with the telemetry journal for the same request.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dslayer::trace {

/// The typed span vocabulary. Order is part of the JSONL wire format
/// only through to_string(); new kinds append.
enum class SpanKind : std::uint8_t {
  kIngress,    ///< front end: line extraction + bookkeeping ("ingress")
  kParse,      ///< protocol parse ("parse"), child of ingress
  kQueueWait,  ///< executor enqueue -> dequeue ("queue.wait")
  kExecute,    ///< command execution on a worker strand ("execute")
  kSweep,      ///< candidate-filter engine pass ("sweep"), child of execute
  kRespond,    ///< render + delivery ("respond")
};

inline constexpr std::size_t kSpanKindCount = 6;

/// Stable wire name ("ingress", "queue.wait", ...).
const char* to_string(SpanKind kind);

/// Sentinel parent index for top-level spans.
inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  SpanKind kind = SpanKind::kIngress;
  std::uint32_t parent = kNoParent;  ///< index into the trace's span list
  std::uint64_t start_ns = 0;        ///< relative to the trace origin
  std::uint64_t duration_ns = 0;
  bool open = false;  ///< close_span not yet called (finish() force-closes)
  std::string detail;
};

/// One request's spans. Created by Tracer::start(), carried through the
/// service on the Request, finished exactly once by the front end that
/// delivered the response.
class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  Trace(std::uint64_t id, bool sampled, std::string session, std::uint64_t request_id,
        Clock::time_point origin);

  std::uint64_t id() const { return id_; }
  bool sampled() const { return sampled_; }
  const std::string& session() const { return session_; }
  std::uint64_t request_id() const { return request_id_; }
  Clock::time_point origin() const { return origin_; }

  /// Opens a span starting now (or at `start`); children opened before
  /// close_span() nest under it. Returns the span's index.
  std::uint32_t open_span(SpanKind kind, std::string detail = {});
  std::uint32_t open_span_at(SpanKind kind, Clock::time_point start, std::string detail = {});

  /// Closes span `index` at now. No-op if already closed or finished.
  void close_span(std::uint32_t index);

  /// Records a fully-formed span retroactively (e.g. queue.wait, whose
  /// bounds are the executor's enqueue/dequeue stamps). Does not affect
  /// the open-span nesting stack.
  std::uint32_t add_span(SpanKind kind, Clock::time_point start, Clock::time_point end,
                         std::uint32_t parent = kNoParent, std::string detail = {});

  /// Snapshot copies (exposition and tests).
  std::vector<Span> spans() const;

  /// Set by Tracer::finish(); 0 / false before.
  double total_ms() const;
  bool finished() const;

 private:
  friend class Tracer;

  std::uint64_t to_rel_ns(Clock::time_point tp) const;
  void finish_locked(Clock::time_point now);  // closes open spans, stamps total

  const std::uint64_t id_;
  const bool sampled_;
  const std::string session_;
  const std::uint64_t request_id_;
  const Clock::time_point origin_;

  mutable std::mutex lock_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_stack_;
  double total_ms_ = 0.0;
  bool finished_ = false;
};

/// Installs `trace` (may be null) as the current thread's trace for the
/// scope, restoring the previous one on exit. Installing null suppresses
/// any outer trace — mirrors DeadlineScope's suppression semantics.
class TraceScope {
 public:
  explicit TraceScope(Trace* trace);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// The trace installed on this thread; null when none. One
  /// thread-local load — the only cost an untraced hot path pays.
  static Trace* current();

 private:
  Trace* previous_;
};

/// RAII span on `trace`; a null trace makes it a no-op.
class SpanTimer {
 public:
  SpanTimer(Trace* trace, SpanKind kind, std::string detail = {});
  ~SpanTimer();

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  Trace* trace_;
  std::uint32_t index_ = 0;
};

struct TracerConfig {
  /// Sampling period: 1-in-N traces keep sweep detail and land in the
  /// retention rings; 1 = every request, 0 = tracing off entirely (no
  /// trace objects are created). The front-end default is 64
  /// (--trace-sample).
  std::uint32_t sample_every = 64;
  /// Seed of the deterministic sampling hash (--trace-seed): the same
  /// seed and id sequence always pick the same traces.
  std::uint64_t seed = 0x7ace5eedULL;
  /// Requests slower than this flight-record on finish; 0 disables the
  /// flight recorder (--slow-request-ms).
  double slow_request_ms = 0.0;
  /// Bound on retained flight records: the in-memory deque keeps the
  /// most recent N; the JSONL file stops after N records (with one
  /// truncation notice). Both drops count in stats().flight_dropped.
  std::size_t flight_capacity = 256;
  /// Optional JSONL file for flight records (--flight-recorder PATH).
  std::string flight_path{};
  /// Completed sampled traces retained per thread ring.
  std::size_t ring_capacity = 128;
};

struct TracerStats {
  std::uint64_t started = 0;         ///< traces created
  std::uint64_t sampled = 0;         ///< traces that won the sampling draw
  std::uint64_t finished = 0;        ///< finish() calls
  std::uint64_t slow = 0;            ///< finished over slow_request_ms
  std::uint64_t flight_records = 0;  ///< flight records retained (memory)
  std::uint64_t flight_dropped = 0;  ///< flight records dropped at capacity
  std::uint64_t ring_dropped = 0;    ///< sampled traces evicted from rings
};

/// Process-global tracing hub. Disabled until configure()d with a
/// nonzero sample_every or slow_request_ms; enabled() is one relaxed
/// load, which is all a cold front end pays per line.
class Tracer {
 public:
  static Tracer& instance();

  /// Installs `config` and (re)opens the flight file if a path is set.
  /// Does not clear retention or counters — reset() does.
  void configure(const TracerConfig& config);
  TracerConfig config() const;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The deterministic sampling decision, exposed so tests can pin it:
  /// SplitMix64(seed ^ id) % every == 0 (every == 0 never samples).
  static bool sample_decision(std::uint64_t seed, std::uint64_t trace_id, std::uint32_t every);

  /// Starts a trace for one request (null when disabled): assigns the
  /// next id, draws the sampling decision, stamps `origin` as time zero.
  std::shared_ptr<Trace> start(std::string session, std::uint64_t request_id,
                               Trace::Clock::time_point origin);

  /// Finishes a trace exactly once: force-closes open spans, stamps the
  /// total, retains sampled traces in this thread's ring, and
  /// flight-records slow ones regardless of sampling. Null-safe and
  /// idempotent.
  void finish(const std::shared_ptr<Trace>& trace);

  /// Oldest-first snapshot of every ring's retained traces.
  std::vector<std::shared_ptr<const Trace>> recent() const;

  /// The in-memory flight records (rendered JSONL lines), oldest first.
  std::vector<std::string> flight_records() const;

  TracerStats stats() const;

  /// Disables tracing and clears retention, flight records, and
  /// counters (the id counter keeps running so ids stay unique).
  /// Test-and-operator reset; in-flight traces finish harmlessly.
  void reset();

 private:
  struct Ring {
    std::mutex lock;
    std::deque<std::shared_ptr<const Trace>> traces;
  };

  Tracer() = default;
  Ring& local_ring();

  mutable std::mutex config_lock_;
  TracerConfig config_{.sample_every = 0};  // disabled until configured
  std::unique_ptr<std::ofstream> flight_file_;
  std::uint64_t flight_file_records_ = 0;
  bool flight_file_truncated_ = false;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};

  std::atomic<std::uint64_t> started_{0}, sampled_{0}, finished_{0}, slow_{0};

  mutable std::mutex rings_lock_;
  std::vector<std::shared_ptr<Ring>> rings_;
  std::atomic<std::uint64_t> ring_dropped_{0};

  mutable std::mutex flight_lock_;
  std::deque<std::string> flight_;
  std::uint64_t flight_total_ = 0;
  std::uint64_t flight_dropped_ = 0;
};

/// Renders a finished trace as one JSON line (no trailing newline):
/// {"trace":7,"request":3,"session":"s1","sampled":true,"total_ms":12.5,
///  "spans":[{"kind":"ingress","parent":-1,"start_us":0,"dur_us":3.1,
///  "detail":""},...]}
std::string to_jsonl(const Trace& trace);

}  // namespace dslayer::trace
