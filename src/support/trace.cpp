#include "support/trace.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <utility>

#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace dslayer::trace {
namespace {

thread_local Trace* g_current_trace = nullptr;

std::uint64_t ns_between(Trace::Clock::time_point from, Trace::Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kIngress: return "ingress";
    case SpanKind::kParse: return "parse";
    case SpanKind::kQueueWait: return "queue.wait";
    case SpanKind::kExecute: return "execute";
    case SpanKind::kSweep: return "sweep";
    case SpanKind::kRespond: return "respond";
  }
  return "unknown";
}

Trace::Trace(std::uint64_t id, bool sampled, std::string session, std::uint64_t request_id,
             Clock::time_point origin)
    : id_(id),
      sampled_(sampled),
      session_(std::move(session)),
      request_id_(request_id),
      origin_(origin) {
  spans_.reserve(8);
}

std::uint64_t Trace::to_rel_ns(Clock::time_point tp) const { return ns_between(origin_, tp); }

std::uint32_t Trace::open_span(SpanKind kind, std::string detail) {
  return open_span_at(kind, Clock::now(), std::move(detail));
}

std::uint32_t Trace::open_span_at(SpanKind kind, Clock::time_point start, std::string detail) {
  std::lock_guard<std::mutex> guard(lock_);
  Span span;
  span.kind = kind;
  span.parent = open_stack_.empty() ? kNoParent : open_stack_.back();
  span.start_ns = to_rel_ns(start);
  span.open = true;
  span.detail = std::move(detail);
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(std::move(span));
  open_stack_.push_back(index);
  return index;
}

void Trace::close_span(std::uint32_t index) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> guard(lock_);
  if (finished_ || index >= spans_.size() || !spans_[index].open) return;
  Span& span = spans_[index];
  span.open = false;
  const std::uint64_t end_ns = to_rel_ns(now);
  span.duration_ns = end_ns > span.start_ns ? end_ns - span.start_ns : 0;
  // Closing out of order (an enclosing span closed before its child —
  // e.g. a force-close at finish) just drops the stack down to and
  // including this span.
  while (!open_stack_.empty()) {
    const std::uint32_t top = open_stack_.back();
    open_stack_.pop_back();
    if (top == index) break;
  }
}

std::uint32_t Trace::add_span(SpanKind kind, Clock::time_point start, Clock::time_point end,
                              std::uint32_t parent, std::string detail) {
  std::lock_guard<std::mutex> guard(lock_);
  if (finished_) return kNoParent;
  Span span;
  span.kind = kind;
  span.parent = parent;
  span.start_ns = to_rel_ns(start);
  span.duration_ns = end > start ? ns_between(start, end) : 0;
  span.open = false;
  span.detail = std::move(detail);
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(std::move(span));
  return index;
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> guard(lock_);
  return spans_;
}

double Trace::total_ms() const {
  std::lock_guard<std::mutex> guard(lock_);
  return total_ms_;
}

bool Trace::finished() const {
  std::lock_guard<std::mutex> guard(lock_);
  return finished_;
}

void Trace::finish_locked(Clock::time_point now) {
  const std::uint64_t end_ns = to_rel_ns(now);
  for (Span& span : spans_) {
    if (!span.open) continue;
    span.open = false;
    span.duration_ns = end_ns > span.start_ns ? end_ns - span.start_ns : 0;
  }
  open_stack_.clear();
  total_ms_ = static_cast<double>(end_ns) / 1e6;
  finished_ = true;
}

TraceScope::TraceScope(Trace* trace) : previous_(g_current_trace) { g_current_trace = trace; }

TraceScope::~TraceScope() { g_current_trace = previous_; }

Trace* TraceScope::current() { return g_current_trace; }

SpanTimer::SpanTimer(Trace* trace, SpanKind kind, std::string detail) : trace_(trace) {
  if (trace_ != nullptr) index_ = trace_->open_span(kind, std::move(detail));
}

SpanTimer::~SpanTimer() {
  if (trace_ != nullptr) trace_->close_span(index_);
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::configure(const TracerConfig& config) {
  std::lock_guard<std::mutex> guard(config_lock_);
  config_ = config;
  flight_file_.reset();
  flight_file_records_ = 0;
  flight_file_truncated_ = false;
  if (!config_.flight_path.empty()) {
    auto file = std::make_unique<std::ofstream>(config_.flight_path, std::ios::trunc);
    if (!*file) {
      std::cerr << "dslayer: cannot open flight recorder file '" << config_.flight_path
                << "'; keeping records in memory only\n";
    } else {
      flight_file_ = std::move(file);
    }
  }
  enabled_.store(config_.sample_every > 0 || config_.slow_request_ms > 0.0,
                 std::memory_order_relaxed);
}

TracerConfig Tracer::config() const {
  std::lock_guard<std::mutex> guard(config_lock_);
  return config_;
}

bool Tracer::sample_decision(std::uint64_t seed, std::uint64_t trace_id, std::uint32_t every) {
  if (every == 0) return false;
  if (every == 1) return true;
  return Rng(seed ^ trace_id).next_u64() % every == 0;
}

std::shared_ptr<Trace> Tracer::start(std::string session, std::uint64_t request_id,
                                     Trace::Clock::time_point origin) {
  if (!enabled()) return nullptr;
  std::uint32_t every = 0;
  std::uint64_t seed = 0;
  {
    std::lock_guard<std::mutex> guard(config_lock_);
    every = config_.sample_every;
    seed = config_.seed;
  }
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool sampled = sample_decision(seed, id, every);
  started_.fetch_add(1, std::memory_order_relaxed);
  if (sampled) sampled_.fetch_add(1, std::memory_order_relaxed);
  return std::make_shared<Trace>(id, sampled, std::move(session), request_id, origin);
}

Tracer::Ring& Tracer::local_ring() {
  // One ring per thread that ever finishes a sampled trace. The ring is
  // registered once and lives as long as the process (a handful of
  // front-end/worker threads), so recent() can walk all of them.
  thread_local std::shared_ptr<Ring> ring = [this] {
    auto created = std::make_shared<Ring>();
    std::lock_guard<std::mutex> guard(rings_lock_);
    rings_.push_back(created);
    return created;
  }();
  return *ring;
}

void Tracer::finish(const std::shared_ptr<Trace>& trace) {
  if (trace == nullptr) return;
  const auto now = Trace::Clock::now();
  double slow_ms = 0.0;
  std::size_t ring_capacity = 0;
  std::size_t flight_capacity = 0;
  {
    std::lock_guard<std::mutex> guard(config_lock_);
    slow_ms = config_.slow_request_ms;
    ring_capacity = config_.ring_capacity;
    flight_capacity = config_.flight_capacity;
  }
  {
    std::lock_guard<std::mutex> guard(trace->lock_);
    if (trace->finished_) return;
    trace->finish_locked(now);
  }
  finished_.fetch_add(1, std::memory_order_relaxed);

  if (trace->sampled() && ring_capacity > 0) {
    Ring& ring = local_ring();
    std::lock_guard<std::mutex> guard(ring.lock);
    ring.traces.push_back(trace);
    while (ring.traces.size() > ring_capacity) {
      ring.traces.pop_front();
      ring_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  if (slow_ms > 0.0 && trace->total_ms() >= slow_ms) {
    slow_.fetch_add(1, std::memory_order_relaxed);
    std::string line = to_jsonl(*trace);
    {
      std::lock_guard<std::mutex> guard(config_lock_);
      if (flight_file_ != nullptr) {
        if (flight_file_records_ < flight_capacity) {
          *flight_file_ << line << '\n';
          flight_file_->flush();
          ++flight_file_records_;
        } else if (!flight_file_truncated_) {
          *flight_file_ << "{\"truncated\":true,\"capacity\":" << flight_capacity << "}\n";
          flight_file_->flush();
          flight_file_truncated_ = true;
        }
      }
    }
    std::lock_guard<std::mutex> guard(flight_lock_);
    ++flight_total_;
    flight_.push_back(std::move(line));
    while (flight_.size() > flight_capacity) {
      flight_.pop_front();
      ++flight_dropped_;
    }
  }
}

std::vector<std::shared_ptr<const Trace>> Tracer::recent() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> guard(rings_lock_);
    rings = rings_;
  }
  std::vector<std::shared_ptr<const Trace>> out;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> guard(ring->lock);
    out.insert(out.end(), ring->traces.begin(), ring->traces.end());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a->id() < b->id(); });
  return out;
}

std::vector<std::string> Tracer::flight_records() const {
  std::lock_guard<std::mutex> guard(flight_lock_);
  return {flight_.begin(), flight_.end()};
}

TracerStats Tracer::stats() const {
  TracerStats stats;
  stats.started = started_.load(std::memory_order_relaxed);
  stats.sampled = sampled_.load(std::memory_order_relaxed);
  stats.finished = finished_.load(std::memory_order_relaxed);
  stats.slow = slow_.load(std::memory_order_relaxed);
  stats.ring_dropped = ring_dropped_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> guard(flight_lock_);
    stats.flight_records = flight_.size();
    stats.flight_dropped = flight_dropped_;
  }
  return stats;
}

void Tracer::reset() {
  {
    std::lock_guard<std::mutex> guard(config_lock_);
    config_ = TracerConfig{.sample_every = 0};
    flight_file_.reset();
    flight_file_records_ = 0;
    flight_file_truncated_ = false;
  }
  enabled_.store(false, std::memory_order_relaxed);
  started_.store(0, std::memory_order_relaxed);
  sampled_.store(0, std::memory_order_relaxed);
  finished_.store(0, std::memory_order_relaxed);
  slow_.store(0, std::memory_order_relaxed);
  ring_dropped_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> guard(rings_lock_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> ring_guard(ring->lock);
      ring->traces.clear();
    }
  }
  std::lock_guard<std::mutex> guard(flight_lock_);
  flight_.clear();
  flight_total_ = 0;
  flight_dropped_ = 0;
}

std::string to_jsonl(const Trace& trace) {
  std::string out = cat("{\"trace\":", trace.id(), ",\"request\":", trace.request_id(),
                        ",\"session\":\"", telemetry::json_escape(trace.session()),
                        "\",\"sampled\":", trace.sampled() ? "true" : "false",
                        ",\"total_ms\":", format_double(trace.total_ms(), 3), ",\"spans\":[");
  bool first = true;
  for (const Span& span : trace.spans()) {
    if (!first) out += ',';
    first = false;
    out += cat("{\"kind\":\"", to_string(span.kind), "\",\"parent\":",
               span.parent == kNoParent ? std::int64_t{-1} : static_cast<std::int64_t>(span.parent),
               ",\"start_us\":", format_double(static_cast<double>(span.start_ns) / 1e3, 3),
               ",\"dur_us\":", format_double(static_cast<double>(span.duration_ns) / 1e3, 3),
               ",\"detail\":\"", telemetry::json_escape(span.detail), "\"}");
  }
  out += "]}";
  return out;
}

}  // namespace dslayer::trace
