#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::service {

ServiceClient::ServiceClient(RequestExecutor& executor) : ServiceClient(executor, Options{}) {}

ServiceClient::ServiceClient(RequestExecutor& executor, Options options)
    : executor_(&executor), options_(options), jitter_(options.jitter_seed) {
  DSLAYER_REQUIRE(options_.max_attempts > 0, "client needs at least one attempt");
  retry_thread_ = std::thread([this] { retry_loop(); });
}

ServiceClient::~ServiceClient() { shutdown(); }

double ServiceClient::backoff_floor_ms(const Options& options, int retry) {
  const int exponent = std::min(std::max(retry - 1, 0), 20);
  return std::min(options.max_backoff_ms,
                  options.base_backoff_ms * static_cast<double>(1ULL << exponent));
}

void ServiceClient::submit(Request request, Callback done) {
  DSLAYER_REQUIRE(done != nullptr, "client callback must not be null");
  auto tracked = std::make_shared<Tracked>();
  tracked->request = std::move(request);
  tracked->done = std::move(done);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DSLAYER_REQUIRE(!stopping_, "client is shut down");
    ++submitted_;
    ++in_flight_;
  }
  attempt_submit(tracked);
}

void ServiceClient::attempt_submit(const TrackedPtr& tracked) {
  ++tracked->attempt;
  const bool accepted = executor_->try_submit(
      tracked->request, [this, tracked](Response response) {
        // Worker thread. Scheduling a retry only touches client state —
        // never the executor — so the no-reentry callback rule holds.
        on_response(tracked, std::move(response));
      });
  if (accepted) return;
  // Never enqueued (full queue / enqueue failpoint / stopped executor):
  // synthesize the retryable rejection the executor would have produced.
  on_response(tracked, queue_full_response(tracked->request.id, tracked->request.session,
                                           executor_->retry_after_hint_ms()));
}

void ServiceClient::on_response(const TrackedPtr& tracked, Response response) {
  if (!is_retryable(response.code)) {
    deliver(tracked, std::move(response), /*exhausted=*/false);
    return;
  }
  double delay_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tracked->attempt < options_.max_attempts && !stopping_) {
      ++retries_;
      // Capped exponential back-off with full-range jitter; the server's
      // retry-after hint, when larger, wins (it knows the queue).
      // `attempt` counts attempts already made, so it is exactly the
      // 1-based index of the upcoming retry: the first retry sleeps
      // around base_backoff_ms (exponent 0), not double it.
      const double exponential = backoff_floor_ms(options_, tracked->attempt);
      const double floor_ms = std::max(exponential, response.retry_after_ms);
      delay_ms = floor_ms * (0.5 + jitter_.next_double());
    }
  }
  if (delay_ms <= 0.0) {
    // Out of budget (or shutting down): the last retryable response is
    // the terminal answer; the caller decides whether to come back.
    deliver(tracked, std::move(response), /*exhausted=*/true);
    return;
  }
  schedule_retry(tracked, delay_ms);
}

void ServiceClient::deliver(const TrackedPtr& tracked, Response response, bool exhausted) {
  Callback done = std::move(tracked->done);
  tracked->done = nullptr;
  done(std::move(response));
  std::lock_guard<std::mutex> lock(mutex_);
  ++delivered_;
  if (exhausted) ++exhausted_;
  --in_flight_;
  if (in_flight_ == 0) drained_.notify_all();
}

void ServiceClient::schedule_retry(const TrackedPtr& tracked, double delay_ms) {
  const auto due = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double, std::milli>(delay_ms));
  std::lock_guard<std::mutex> lock(mutex_);
  retry_queue_.emplace(due, tracked);
  retry_ready_.notify_one();
}

void ServiceClient::retry_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    retry_ready_.wait(lock, [this] { return stopping_ || !retry_queue_.empty(); });
    if (retry_queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    const auto due = retry_queue_.begin()->first;
    if (const auto now = std::chrono::steady_clock::now(); due > now) {
      // Sleep until the earliest retry matures (or new, earlier work /
      // shutdown arrives and the wait predicate re-evaluates).
      retry_ready_.wait_until(lock, due);
      continue;
    }
    const TrackedPtr tracked = retry_queue_.begin()->second;
    retry_queue_.erase(retry_queue_.begin());
    lock.unlock();
    attempt_submit(tracked);
    lock.lock();
  }
}

void ServiceClient::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return in_flight_ == 0; });
}

void ServiceClient::shutdown() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    retry_ready_.notify_all();
  }
  if (retry_thread_.joinable()) retry_thread_.join();
}

ServiceClient::Stats ServiceClient::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.submitted = submitted_;
  stats.retries = retries_;
  stats.delivered = delivered_;
  stats.exhausted = exhausted_;
  return stats;
}

}  // namespace dslayer::service
