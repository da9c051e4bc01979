// Bounded worker-pool executor for protocol requests.
//
// Shape: a fixed pool of worker threads over per-session strands. Each
// session has a FIFO inbox; a session with pending work is queued at most
// once on the shared ready queue, and one worker drains one session at a
// time. That preserves per-session request order (a designer's decide
// must not race their own retract) while letting different sessions
// execute in parallel on the shared layer's reader lock.
//
// Backpressure is explicit, not silent: the total number of queued
// requests is bounded by Options::queue_capacity. try_submit() refuses
// over-capacity work (the request is counted as rejected and the caller
// retries or reports); submit() blocks until capacity frees up. Nothing
// is ever dropped after acceptance: every accepted request completes with
// exactly one callback, whatever its fate.
//
// Fault tolerance (PR 5 wiring):
//   * Deadlines — a request with deadline_ms > 0 starts its clock at
//     submission. If it is already expired when a worker dequeues it, the
//     worker answers kDeadlineExceeded in O(µs) without acquiring a
//     session; otherwise the deadline is installed as the worker thread's
//     cooperative-cancellation deadline (support/cancel.hpp) so a long
//     candidates sweep unwinds mid-request via checkpoints.
//   * Shedding — with Options::max_queue_wait_ms set, a request that
//     waited longer than that in the queue is shed at dequeue (kRejected
//     / kOverloaded) with a retry-after hint derived from the EWMA queue
//     wait, converting silent latency collapse into explicit, retryable
//     refusals.
//   * Failpoints — "service.executor.enqueue" and
//     "service.executor.dequeue" (support/failpoint.hpp) inject faults at
//     the queue boundaries; workers translate any escaped exception into
//     a terminal kInternal response rather than dying.
//
// Telemetry: the executor owns a telemetry::Telemetry hub (counters and
// histograms only). Per-request wall latency (queue wait + execution)
// feeds the "request" histogram and a per-command-kind "request.<verb>"
// histogram; stats() exposes the live queue-depth gauge, its high-water
// mark, and the accepted/rejected/error counters.
//
// Options::injected_latency_us simulates the paper's Fig. 1 deployment,
// where compliance queries consult remote IP-provider catalogs: each
// request sleeps that long before executing, modeling the round trip.
// The sleep overlaps across workers, so throughput scales with the pool
// even on machines with few cores (see bench/service_throughput.cpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/session_manager.hpp"
#include "support/cancel.hpp"
#include "support/telemetry.hpp"

namespace dslayer::service {

class RequestExecutor {
 public:
  struct Options {
    std::size_t workers = 2;
    std::size_t queue_capacity = 256;  ///< bound on accepted-but-unfinished requests
    double injected_latency_us = 0.0;  ///< simulated remote-catalog round trip
    /// Overload shed threshold: a request that waited in the queue longer
    /// than this is answered kRejected/kOverloaded at dequeue instead of
    /// executing late. 0 disables shedding.
    double max_queue_wait_ms = 0.0;
  };

  /// Completion callback; invoked exactly once per accepted request, on a
  /// worker thread. Must be thread-safe and must not call back into the
  /// executor.
  using Callback = std::function<void(Response)>;

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t executed = 0;  ///< accepted requests completed (any status)
    std::uint64_t rejected = 0;  ///< try_submit refusals (backpressure)
    std::uint64_t errors = 0;    ///< completed requests that returned kError
    std::uint64_t deadline_expired = 0;  ///< kDeadlineExceeded responses
    std::uint64_t shed = 0;              ///< dequeued over max_queue_wait_ms
    std::size_t queue_depth = 0;       ///< accepted, not yet completed
    std::size_t peak_queue_depth = 0;  ///< high-water mark of the gauge
  };

  explicit RequestExecutor(SessionManager& manager);
  RequestExecutor(SessionManager& manager, Options options);
  ~RequestExecutor();  ///< shutdown() if still running

  RequestExecutor(const RequestExecutor&) = delete;
  RequestExecutor& operator=(const RequestExecutor&) = delete;

  /// Non-blocking submit. Returns false — and counts a rejection — when
  /// the queue is at capacity or the executor is shutting down; the
  /// request was not enqueued and the callback will never fire.
  bool try_submit(Request request, Callback done);

  /// Blocking submit: waits for queue capacity. Throws ServiceError if
  /// the executor is shut down while waiting.
  void submit(Request request, Callback done);

  /// Blocks until every accepted request has completed.
  void drain();

  /// Fences the queue (further try_submit() calls are rejected, blocked
  /// submit() calls throw), drains every already-accepted request, then
  /// joins the workers. Idempotent.
  void shutdown();

  Stats stats() const;

  /// Suggested client back-off before retrying a shed/rejected request:
  /// tracks the recent queue wait (EWMA), never below 1ms. Thread-safe.
  double retry_after_hint_ms() const;

  /// Per-request latency histograms ("request", "request.<verb>").
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// Thread-safe raw-bucket snapshot of the request histograms, for the
  /// `!metrics` Prometheus exposition (takes telemetry_lock_ internally,
  /// unlike telemetry(), whose reads the caller must serialize).
  std::map<std::string, telemetry::HistogramSnapshot> histogram_snapshots() const;

  /// Current EWMA of recent queue waits (the retry-after signal), as a
  /// gauge for exposition. Thread-safe.
  double queue_wait_ewma_ms() const;

  const Options& options() const { return options_; }

 private:
  struct Item {
    Request request;
    Callback done;
    std::chrono::steady_clock::time_point enqueued;
    support::Deadline deadline;  ///< unset when the request has none
  };

  /// One session's FIFO inbox. `scheduled` is true while the strand sits
  /// on the ready queue or a worker is draining it — the at-most-once
  /// scheduling invariant behind per-session ordering.
  struct Strand {
    std::string session;
    std::deque<Item> inbox;
    bool scheduled = false;
  };

  void enqueue_locked(Item item);
  void worker_loop();
  Response execute(Item& item);

  SessionManager* manager_;
  Options options_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable space_free_;
  std::condition_variable idle_;
  std::map<std::string, std::shared_ptr<Strand>> strands_;
  std::deque<std::shared_ptr<Strand>> ready_;
  std::size_t pending_ = 0;  ///< accepted, not yet completed
  std::size_t peak_pending_ = 0;
  bool stopping_ = false;

  mutable std::mutex telemetry_lock_;  ///< Telemetry::record_timing is not thread-safe
  telemetry::Telemetry telemetry_;
  double ewma_queue_wait_ms_ = 0.0;  ///< guarded by telemetry_lock_

  RelaxedCounter accepted_;
  RelaxedCounter executed_;
  RelaxedCounter rejected_;
  RelaxedCounter errors_;
  RelaxedCounter deadline_expired_;
  RelaxedCounter shed_;

  std::vector<std::thread> workers_;
};

}  // namespace dslayer::service
