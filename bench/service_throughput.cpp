// Throughput and latency of the concurrent exploration service vs worker
// count, on the 10k-synthetic-core library.
//
// Workload: N designer sessions each walk the same coprocessor-style
// script (open, requirements, a decision, metric ranges, a retract/
// re-require revision, a report), with requests interleaved round-robin
// across sessions so the executor always has cross-session parallelism
// to exploit. Every response is checked (zero errors expected).
//
// Each request carries an injected latency (--latency-us, default
// 25000us) modeling the paper's Fig. 1 deployment, where compliance
// queries consult remote IP-provider catalogs. Workers overlap those
// round trips, which is the concurrency the service exists to exploit —
// and it keeps the scaling measurement meaningful on small CI machines
// (the JSON's machine stamp records the hardware threads; on a 1-core
// host the pure-compute portion cannot scale, the blocking portion can).
//
// Pass/fail: requests/sec must scale >= 2x from 1 to 4 workers and the
// workload must complete error-free at every worker count.
//
// A second scenario measures graceful overload degradation: offered load
// of 2x the queue capacity is pushed through try_submit bursts against an
// executor with queue-wait shedding enabled. The service must keep the
// ACCEPTED requests' p99 latency far below the do-nothing alternative
// (every request queueing behind the whole burst), must shed the rest
// loudly (kRejected/kOverloaded with a retry-after hint on every one),
// and the accounting must balance: offered == gate-rejected + ok + shed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "domains/crypto.hpp"
#include "service/request_executor.hpp"
#include "service/session_manager.hpp"
#include "service/shared_layer.hpp"
#include "support/strings.hpp"
#include "machine_stamp.hpp"
#include "synthetic_library.hpp"

using namespace dslayer;

namespace {

constexpr std::size_t kTargetCores = 10000;

const std::vector<std::string>& session_script() {
  static const std::vector<std::string> script = {
      "open Operator.Modular.Multiplier",
      "req EffectiveOperandLength 768",
      "decide ImplementationStyle Hardware",
      "range area",
      "range clock_ns",
      "range latency_ns",
      "retract EffectiveOperandLength",
      "req EffectiveOperandLength 512",
      "range area",
      "report",
  };
  return script;
}

struct RunResult {
  std::size_t workers = 0;
  double wall_ms = 0.0;
  double requests_per_sec = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::size_t peak_queue_depth = 0;
  telemetry::TimingSummary latency;  // the executor's "request" histogram
};

RunResult run_one(service::SharedLayer& shared, std::size_t workers, std::size_t sessions,
                  std::size_t rounds, double injected_latency_us, std::size_t queue_capacity) {
  service::SessionManager::Options session_options;
  session_options.max_sessions = sessions + 1;
  service::SessionManager manager(shared, session_options);

  service::RequestExecutor::Options executor_options;
  executor_options.workers = workers;
  executor_options.queue_capacity = queue_capacity;
  executor_options.injected_latency_us = injected_latency_us;
  service::RequestExecutor executor(manager, executor_options);

  RelaxedCounter errors;
  std::uint64_t id = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const std::string& command : session_script()) {
      // Round-robin across sessions: every session advances through the
      // script in lockstep, so at any instant the queue holds work for
      // many different strands.
      for (std::size_t s = 0; s < sessions; ++s) {
        service::Request request;
        request.id = ++id;
        request.session = cat("d", s);
        request.command = command;
        executor.submit(std::move(request), [&errors](service::Response response) {
          if (response.status != service::ResponseStatus::kOk) errors.add(1);
        });
      }
    }
  }
  executor.drain();
  const auto stop = std::chrono::steady_clock::now();

  RunResult result;
  result.workers = workers;
  result.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  result.requests = id;
  result.errors = errors.get();
  result.peak_queue_depth = executor.stats().peak_queue_depth;
  const auto timings = executor.telemetry().timings();
  if (const auto it = timings.find("request"); it != timings.end()) result.latency = it->second;
  result.requests_per_sec =
      result.wall_ms > 0.0 ? static_cast<double>(id) * 1000.0 / result.wall_ms : 0.0;
  executor.shutdown();
  return result;
}

struct OverloadResult {
  std::size_t queue_capacity = 0;
  std::size_t offered = 0;        ///< try_submit attempts (2x capacity per burst)
  std::size_t gate_rejected = 0;  ///< try_submit returned false (queue full)
  std::uint64_t ok = 0;           ///< accepted and served
  std::uint64_t shed = 0;         ///< accepted, then shed at dequeue (kOverloaded)
  std::uint64_t errors = 0;       ///< anything else — must be zero
  std::uint64_t missing_hint = 0; ///< shed responses without retry_after_ms > 0
  double p99_ok_us = 0.0;         ///< p99 latency over the SERVED requests
  double naive_p99_us = 0.0;      ///< queueing-only alternative: burst/workers*latency
};

OverloadResult run_overload(service::SharedLayer& shared, std::size_t workers,
                            std::size_t queue_capacity, double injected_latency_us,
                            double max_queue_wait_ms, std::size_t bursts) {
  constexpr std::size_t kSessions = 8;
  service::SessionManager::Options session_options;
  session_options.max_sessions = kSessions + 1;
  service::SessionManager manager(shared, session_options);

  service::RequestExecutor::Options executor_options;
  executor_options.workers = workers;
  executor_options.queue_capacity = queue_capacity;
  executor_options.injected_latency_us = injected_latency_us;
  executor_options.max_queue_wait_ms = max_queue_wait_ms;
  service::RequestExecutor executor(manager, executor_options);

  std::uint64_t id = 0;
  // Warm phase: open every session before the bursts so overload traffic
  // measures steady-state reads, not session construction.
  for (std::size_t s = 0; s < kSessions; ++s) {
    service::Request request;
    request.id = ++id;
    request.session = cat("d", s);
    request.command = "open Operator.Modular.Multiplier";
    executor.submit(std::move(request), [](service::Response) {});
  }
  executor.drain();

  OverloadResult result;
  result.queue_capacity = queue_capacity;
  std::mutex latencies_lock;
  std::vector<double> ok_latencies;
  std::atomic<std::uint64_t> ok{0}, shed{0}, errors{0}, missing_hint{0};
  const std::size_t burst_size = 2 * queue_capacity;  // offered load: 2x capacity
  for (std::size_t burst = 0; burst < bursts; ++burst) {
    for (std::size_t i = 0; i < burst_size; ++i) {
      service::Request request;
      request.id = ++id;
      request.session = cat("d", i % kSessions);
      request.command = "range area";
      ++result.offered;
      const bool accepted =
          executor.try_submit(std::move(request), [&](service::Response response) {
            if (response.status == service::ResponseStatus::kOk) {
              ok.fetch_add(1, std::memory_order_relaxed);
              std::lock_guard<std::mutex> lock(latencies_lock);
              ok_latencies.push_back(response.latency_us);
            } else if (response.status == service::ResponseStatus::kRejected &&
                       response.code == service::ErrorCode::kOverloaded) {
              shed.fetch_add(1, std::memory_order_relaxed);
              if (!(response.retry_after_ms > 0.0)) {
                missing_hint.fetch_add(1, std::memory_order_relaxed);
              }
            } else {
              errors.fetch_add(1, std::memory_order_relaxed);
            }
          });
      if (!accepted) ++result.gate_rejected;
    }
    executor.drain();  // each burst hits a quiet executor at full offered load
  }
  executor.shutdown();

  result.ok = ok.load();
  result.shed = shed.load();
  result.errors = errors.load();
  result.missing_hint = missing_hint.load();
  if (!ok_latencies.empty()) {
    std::sort(ok_latencies.begin(), ok_latencies.end());
    const std::size_t index = std::min(ok_latencies.size() - 1, (ok_latencies.size() * 99) / 100);
    result.p99_ok_us = ok_latencies[index];
  }
  result.naive_p99_us =
      static_cast<double>(burst_size) / static_cast<double>(workers) * injected_latency_us;
  return result;
}

void print_run(const RunResult& r) {
  std::cout << "workers=" << r.workers << "  wall=" << format_double(r.wall_ms, 4)
            << "ms  req/s=" << format_double(r.requests_per_sec, 5)
            << "  p50=" << format_double(r.latency.p50_us, 4)
            << "us  p95=" << format_double(r.latency.p95_us, 4)
            << "us  max=" << format_double(r.latency.max_us, 4)
            << "us  peak_depth=" << r.peak_queue_depth << "  errors=" << r.errors << "\n";
}

void json_run(std::ostream& out, const RunResult& r, bool last) {
  out << "    {\n"
      << "      \"workers\": " << r.workers << ",\n"
      << "      \"wall_ms\": " << r.wall_ms << ",\n"
      << "      \"requests\": " << r.requests << ",\n"
      << "      \"requests_per_sec\": " << r.requests_per_sec << ",\n"
      << "      \"p50_us\": " << r.latency.p50_us << ",\n"
      << "      \"p95_us\": " << r.latency.p95_us << ",\n"
      << "      \"max_us\": " << r.latency.max_us << ",\n"
      << "      \"peak_queue_depth\": " << r.peak_queue_depth << ",\n"
      << "      \"errors\": " << r.errors << "\n"
      << "    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double injected_latency_us = 25000.0;
  std::size_t sessions = 16;
  std::size_t rounds = 2;
  std::size_t queue_capacity = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--latency-us" && i + 1 < argc) {
      injected_latency_us = std::strtod(argv[++i], nullptr);
    } else if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--queue-capacity" && i + 1 < argc) {
      queue_capacity = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--json <path>] [--latency-us X] [--rounds N] [--queue-capacity N]\n";
      return 2;
    }
  }

  auto layer = domains::build_crypto_layer();
  const std::size_t synthetic =
      bench::populate_synthetic_library(layer->add_library("syn-hardcores"), kTargetCores);
  service::SharedLayer shared(*layer);

  const std::size_t requests_per_run = sessions * session_script().size() * rounds;
  std::cout << "=== Service throughput benchmark ===\n";
  std::cout << "synthetic cores: " << synthetic
            << "; hardware_concurrency: " << std::thread::hardware_concurrency() << "\n";
  std::cout << "sessions: " << sessions << "; script: " << session_script().size()
            << " commands x " << rounds << " rounds = " << requests_per_run << " requests\n";
  std::cout << "injected per-request latency (remote-catalog model): "
            << format_double(injected_latency_us, 4) << "us; queue capacity: " << queue_capacity
            << "\n\n";

  std::vector<RunResult> runs;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    runs.push_back(run_one(shared, workers, sessions, rounds, injected_latency_us, queue_capacity));
    print_run(runs.back());
  }

  const double scaling = runs.front().requests_per_sec > 0.0
                             ? runs.back().requests_per_sec / runs.front().requests_per_sec
                             : 0.0;
  std::uint64_t total_errors = 0;
  for (const RunResult& r : runs) total_errors += r.errors;
  std::cout << "\n1 -> 4 worker scaling: " << format_double(scaling, 3) << "x "
            << (scaling >= 2.0 ? "(>= 2x: PASS)" : "(< 2x)") << "; errors: " << total_errors
            << "\n";

  // Overload scenario: 2x queue capacity offered per burst, shedding at
  // 20ms of queue wait, 2ms simulated remote-catalog latency.
  const double overload_max_wait_ms = 20.0;
  const double overload_latency_us = 2000.0;
  const OverloadResult overload =
      run_overload(shared, /*workers=*/4, /*queue_capacity=*/256, overload_latency_us,
                   overload_max_wait_ms, /*bursts=*/4);
  const bool overload_accounting_ok =
      overload.offered ==
      overload.gate_rejected + overload.ok + overload.shed + overload.errors;
  const bool overload_pass = overload.errors == 0 && overload.missing_hint == 0 &&
                             overload.ok > 0 && overload.shed > 0 && overload_accounting_ok &&
                             overload.p99_ok_us < overload.naive_p99_us;
  std::cout << "\n=== Overload degradation (offered = 2x queue capacity) ===\n"
            << "offered=" << overload.offered << "  gate_rejected=" << overload.gate_rejected
            << "  ok=" << overload.ok << "  shed=" << overload.shed
            << "  errors=" << overload.errors << "\n"
            << "accepted p99=" << format_double(overload.p99_ok_us, 5)
            << "us vs naive queueing p99=" << format_double(overload.naive_p99_us, 5)
            << "us; shed without retry-after hint: " << overload.missing_hint << "\n"
            << (overload_pass ? "overload degradation: PASS"
                              : "overload degradation: FAIL")
            << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"service_throughput\",\n"
        << "  \"synthetic_cores\": " << synthetic << ",\n"
        << bench::machine_json() << ",\n"
        << "  \"injected_latency_us\": " << injected_latency_us << ",\n"
        << "  \"queue_capacity\": " << queue_capacity << ",\n"
        << "  \"sessions\": " << sessions << ",\n"
        << "  \"requests_per_run\": " << requests_per_run << ",\n"
        << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) json_run(out, runs[i], i + 1 == runs.size());
    out << "  ],\n"
        << "  \"scaling_1_to_4\": " << scaling << ",\n"
        << "  \"overload\": {\n"
        << "    \"queue_capacity\": " << overload.queue_capacity << ",\n"
        << "    \"max_queue_wait_ms\": " << overload_max_wait_ms << ",\n"
        << "    \"injected_latency_us\": " << overload_latency_us << ",\n"
        << "    \"offered\": " << overload.offered << ",\n"
        << "    \"gate_rejected\": " << overload.gate_rejected << ",\n"
        << "    \"ok\": " << overload.ok << ",\n"
        << "    \"shed\": " << overload.shed << ",\n"
        << "    \"errors\": " << overload.errors << ",\n"
        << "    \"shed_without_hint\": " << overload.missing_hint << ",\n"
        << "    \"accepted_p99_us\": " << overload.p99_ok_us << ",\n"
        << "    \"naive_queueing_p99_us\": " << overload.naive_p99_us << ",\n"
        << "    \"pass\": " << (overload_pass ? "true" : "false") << "\n"
        << "  }\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return scaling >= 2.0 && total_errors == 0 && overload_pass ? 0 : 1;
}
