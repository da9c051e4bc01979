// Throughput and tail latency of the TCP front end under massive
// connection concurrency.
//
// Workload: --connections (default 1000) concurrent loopback sockets,
// driven by a few client threads each running its own epoll loop over
// non-blocking sockets — the same machinery as the server, pointed back
// at it. Every connection opens a designer session (64 distinct session
// names shared across connections, so the executor sees real strand
// contention) and then pipelines `range area` queries --pipeline deep
// (default 4), never waiting for one response before sending the next.
// Latency is measured client-side, send to response-header arrival;
// responses on one connection arrive in submission order (single
// session => single strand => FIFO), so a per-connection FIFO of send
// timestamps matches them exactly.
//
// Sizing note: the executor queue (8192) exceeds the worst-case global
// in-flight (connections x pipeline), so a clean run sheds nothing and
// the work counters are exactly deterministic — which is what
// check_bench_counters.py gates (connections/requests/responses/errors,
// never wall time). req/s and p50/p99 are reported for trend tracking.
//
// Pass/fail: every request answers ok (errors == 0, rejected == 0,
// responses == connections x requests), and the server accounting
// agrees with the client's.
//
// The workload runs TWICE against the same server: a baseline phase with
// tracing disabled, then a traced phase at the production default
// (--trace-sample 64, pinned seed). The traced phase's req/s cost over
// baseline is reported as tracing_overhead_pct — informational, wall
// time flaps with the machine — while the trace accounting
// (traced.started, traced.sampled) is exactly deterministic (ids 1..N
// against a pinned sampling seed) and gated by check_bench_counters.py.
// With --dump-metrics FILE the bench also writes one `!metrics`-style
// Prometheus scrape of the loaded server, which CI feeds to
// scripts/check_metrics_format.py.

#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "domains/crypto.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/metrics.hpp"
#include "service/request_executor.hpp"
#include "service/session_manager.hpp"
#include "service/shared_layer.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"
#include "machine_stamp.hpp"

using namespace dslayer;

namespace {

constexpr std::size_t kSessionNames = 64;

struct ClientConn {
  net::Socket sock;
  std::vector<std::string> script;  ///< request lines, sent in order
  std::size_t next_to_send = 0;
  std::string out_pending;
  std::size_t out_offset = 0;
  std::string in_buffer;
  std::size_t responses = 0;
  std::uint64_t errors = 0;    ///< non-ok response headers
  std::uint64_t rejected = 0;  ///< rejected headers (subset of non-ok)
  /// Send timestamps FIFO; one session per connection keeps responses in
  /// submission order, so front() always matches the next header.
  std::deque<std::chrono::steady_clock::time_point> sent_at;
  std::uint32_t interest = 0;

  bool done() const { return responses >= script.size(); }
  std::size_t in_flight() const { return sent_at.size(); }
};

struct ClientShard {
  std::vector<std::unique_ptr<ClientConn>> conns;
  std::vector<double> latencies_ms;
  std::size_t completed = 0;
};

void top_up(ClientConn& conn, std::size_t pipeline) {
  while (conn.next_to_send < conn.script.size() && conn.in_flight() < pipeline) {
    conn.out_pending += conn.script[conn.next_to_send++];
    conn.sent_at.push_back(std::chrono::steady_clock::now());
  }
}

/// Non-blocking flush; returns false on a dead socket.
bool flush(ClientConn& conn) {
  while (conn.out_offset < conn.out_pending.size()) {
    const ssize_t n = ::send(conn.sock.fd(), conn.out_pending.data() + conn.out_offset,
                             conn.out_pending.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (conn.out_offset == conn.out_pending.size()) {
    conn.out_pending.clear();
    conn.out_offset = 0;
  }
  return true;
}

/// Consumes complete lines, recording latency per response header.
void consume(ClientConn& conn, ClientShard& shard) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = conn.in_buffer.find('\n', start);
    if (nl == std::string::npos) break;
    if (conn.in_buffer.compare(start, 3, "== ") == 0) {
      const auto now = std::chrono::steady_clock::now();
      if (!conn.sent_at.empty()) {
        shard.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(now - conn.sent_at.front()).count());
        conn.sent_at.pop_front();
      }
      ++conn.responses;
      // Header shape: "== <id> <session> <status> ..."; sessions here
      // are "dN", so a substring match on the status is unambiguous.
      const std::string_view header(conn.in_buffer.data() + start, nl - start);
      if (header.find(" ok") == std::string_view::npos) {
        ++conn.errors;
        if (header.find(" rejected") != std::string_view::npos) ++conn.rejected;
      }
    }
    start = nl + 1;
  }
  conn.in_buffer.erase(0, start);
}

void run_shard(ClientShard& shard, std::size_t pipeline, std::atomic<bool>& failed) {
  net::Socket epoll(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll.valid()) {
    failed = true;
    return;
  }
  const auto set_interest = [&](ClientConn& conn, std::size_t index, std::uint32_t events) {
    if (conn.interest == events) return;
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = index;
    ::epoll_ctl(epoll.fd(), EPOLL_CTL_MOD, conn.sock.fd(), &ev);
    conn.interest = events;
  };
  for (std::size_t i = 0; i < shard.conns.size(); ++i) {
    ClientConn& conn = *shard.conns[i];
    net::set_nonblocking(conn.sock.fd());
    top_up(conn, pipeline);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u64 = i;
    ::epoll_ctl(epoll.fd(), EPOLL_CTL_ADD, conn.sock.fd(), &ev);
    conn.interest = EPOLLIN | EPOLLOUT;
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(5);
  epoll_event events[128];
  while (shard.completed < shard.conns.size()) {
    if (std::chrono::steady_clock::now() > deadline) {
      failed = true;
      return;
    }
    const int n = ::epoll_wait(epoll.fd(), events, 128, 1000);
    for (int e = 0; e < n; ++e) {
      const std::size_t index = events[e].data.u64;
      ClientConn& conn = *shard.conns[index];
      if (conn.done()) continue;
      bool alive = true;
      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        char buf[16384];
        for (;;) {
          const ssize_t r = ::read(conn.sock.fd(), buf, sizeof(buf));
          if (r > 0) {
            conn.in_buffer.append(buf, static_cast<std::size_t>(r));
            continue;
          }
          if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (r < 0 && errno == EINTR) continue;
          alive = false;  // EOF or error with requests outstanding
          break;
        }
        consume(conn, shard);
        top_up(conn, pipeline);
      }
      if (alive) alive = flush(conn);
      if (conn.done() || !alive) {
        if (!alive && !conn.done()) failed = true;
        ::epoll_ctl(epoll.fd(), EPOLL_CTL_DEL, conn.sock.fd(), nullptr);
        conn.sock.reset();
        ++shard.completed;
        continue;
      }
      set_interest(conn, index,
                   static_cast<std::uint32_t>(EPOLLIN) |
                       (conn.out_pending.empty() ? 0u : static_cast<std::uint32_t>(EPOLLOUT)));
    }
  }
}

/// One full pass of the workload: connect everything, drive the scripted
/// requests, collect client-side accounting.
struct LoadResult {
  double wall_ms = 0.0;
  double req_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t responses = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected = 0;
  bool failed = false;
};

LoadResult run_load(std::uint16_t port, std::size_t connections, std::size_t requests,
                    std::size_t pipeline, std::size_t client_threads) {
  LoadResult result;
  std::vector<ClientShard> shards(client_threads);
  std::string error;
  for (std::size_t c = 0; c < connections; ++c) {
    auto conn = std::make_unique<ClientConn>();
    conn->sock = net::connect_local(port, &error);
    if (!conn->sock.valid()) {
      std::cerr << "connect " << c << " failed: " << error << "\n";
      result.failed = true;
      return result;
    }
    const std::string session = cat("d", std::to_string(c % kSessionNames));
    conn->script.reserve(requests);
    conn->script.push_back(cat(session, " open Operator.Modular.Multiplier\n"));
    for (std::size_t r = 1; r < requests; ++r) {
      conn->script.push_back(cat(session, " range area\n"));
    }
    shards[c % client_threads].conns.push_back(std::move(conn));
  }

  std::atomic<bool> failed{false};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(client_threads);
  for (auto& shard : shards) {
    threads.emplace_back([&shard, &failed, pipeline] { run_shard(shard, pipeline, failed); });
  }
  for (auto& thread : threads) thread.join();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();

  std::vector<double> latencies;
  for (auto& shard : shards) {
    latencies.insert(latencies.end(), shard.latencies_ms.begin(), shard.latencies_ms.end());
    for (const auto& conn : shard.conns) {
      result.responses += conn->responses;
      result.errors += conn->errors;
      result.rejected += conn->rejected;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&](double p) {
    if (latencies.empty()) return 0.0;
    const std::size_t index = std::min(latencies.size() - 1,
                                       static_cast<std::size_t>(p * latencies.size() / 100.0));
    return latencies[index];
  };
  result.p50_ms = percentile(50.0);
  result.p99_ms = percentile(99.0);
  result.max_ms = latencies.empty() ? 0.0 : latencies.back();
  result.req_per_s =
      result.wall_ms > 0.0 ? static_cast<double>(result.responses) * 1000.0 / result.wall_ms : 0.0;
  result.failed = failed.load();
  return result;
}

void print_phase(const char* name, const LoadResult& r) {
  std::cout << name << ": wall=" << format_double(r.wall_ms, 5)
            << "ms  req/s=" << format_double(r.req_per_s, 5)
            << "  p50=" << format_double(r.p50_ms, 4) << "ms  p99=" << format_double(r.p99_ms, 4)
            << "ms  max=" << format_double(r.max_ms, 4) << "ms  responses=" << r.responses
            << "  errors=" << r.errors << "  rejected=" << r.rejected << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string metrics_path;
  std::size_t connections = 1000;
  std::size_t requests = 20;
  std::size_t pipeline = 4;
  std::size_t client_threads = 2;
  std::size_t workers = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--dump-metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--connections" && i + 1 < argc) {
      connections = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--requests" && i + 1 < argc) {
      requests = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--pipeline" && i + 1 < argc) {
      pipeline = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--client-threads" && i + 1 < argc) {
      client_threads = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = std::strtoul(argv[++i], nullptr, 10);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--json <path>] [--dump-metrics <path>] [--connections N] [--requests N]"
                   " [--pipeline N] [--client-threads N] [--workers N]\n";
      return 2;
    }
  }

  auto layer = domains::build_crypto_layer();
  service::SharedLayer shared(*layer);
  service::SessionManager::Options session_options;
  session_options.max_sessions = kSessionNames + 1;
  service::SessionManager manager(shared, session_options);
  service::RequestExecutor::Options executor_options;
  executor_options.workers = workers;
  // Over-provision the queue past worst-case global in-flight so a clean
  // run rejects nothing and the counters stay deterministic.
  executor_options.queue_capacity = std::max<std::size_t>(8192, connections * pipeline + 64);
  service::RequestExecutor executor(manager, executor_options);
  net::NetServer::Options net_options;
  net_options.max_connections = connections + 16;
  net_options.conn_inflight_cap = std::max<std::size_t>(pipeline, 16);
  net::NetServer server({&manager, &executor}, net_options);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "server start failed: " << error << "\n";
    return 2;
  }

  std::cout << "=== Network throughput benchmark ===\n"
            << "connections: " << connections << "; requests/conn: " << requests
            << "; pipeline depth: " << pipeline << "; client threads: " << client_threads
            << "; workers: " << workers
            << "; hardware_concurrency: " << std::thread::hardware_concurrency() << "\n";

  const std::uint64_t expected = static_cast<std::uint64_t>(connections) * requests;

  // Phase 1: baseline — tracing fully disabled (the pre-observability
  // configuration; unsampled hot-path cost is NOT in this phase at all).
  trace::Tracer::instance().reset();
  const LoadResult baseline = run_load(server.port(), connections, requests, pipeline,
                                       client_threads);
  print_phase("baseline", baseline);

  // Phase 2: the same workload with tracing at the production default —
  // 1-in-64 sampling, pinned seed so the sampled count is deterministic
  // (trace ids are 1..N: the baseline phase created no traces).
  trace::TracerConfig trace_config;
  trace_config.sample_every = 64;
  trace_config.slow_request_ms = 0.0;
  trace::Tracer::instance().configure(trace_config);
  const LoadResult traced = run_load(server.port(), connections, requests, pipeline,
                                     client_threads);
  print_phase("traced  ", traced);
  // finish() runs just after the response is enqueued, so the last few
  // traces can still be in flight when the clients disconnect; settle.
  const auto settle_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < settle_deadline) {
    const auto snapshot = trace::Tracer::instance().stats();
    if (snapshot.finished >= snapshot.started) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto trace_stats = trace::Tracer::instance().stats();
  const double overhead_pct =
      baseline.req_per_s > 0.0
          ? (baseline.req_per_s - traced.req_per_s) / baseline.req_per_s * 100.0
          : 0.0;
  std::cout << "tracing: started=" << trace_stats.started << " sampled=" << trace_stats.sampled
            << " finished=" << trace_stats.finished
            << "  overhead=" << format_double(overhead_pct, 3) << "% req/s (informational)\n";

  // Optional: one Prometheus scrape of the still-loaded server, exactly
  // what `!metrics` serves over the wire (CI format-checks this file).
  std::string metrics_payload;
  if (!metrics_path.empty()) {
    const auto server_snapshot = server.stats();
    metrics_payload = service::render_metrics(manager, executor,
                                              [server_snapshot] { return server_snapshot; });
  }

  const auto server_stats = server.stats();
  server.stop();
  executor.shutdown();
  trace::Tracer::instance().reset();

  const bool pass = !baseline.failed && !traced.failed && baseline.responses == expected &&
                    traced.responses == expected && baseline.errors == 0 && traced.errors == 0 &&
                    baseline.rejected == 0 && traced.rejected == 0 &&
                    server_stats.requests == 2 * expected && trace_stats.started == expected &&
                    trace_stats.finished == expected;
  std::cout << "server: accepted=" << server_stats.accepted
            << " requests=" << server_stats.requests << " responses=" << server_stats.responses
            << " faulted=" << server_stats.faulted << "\n"
            << (pass ? "net throughput: PASS" : "net throughput: FAIL") << "\n";

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "cannot write " << metrics_path << "\n";
      return 2;
    }
    out << metrics_payload;
    std::cout << "wrote " << metrics_path << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    const auto phase_json = [&out](const char* name, const LoadResult& r) {
      out << "  \"" << name << "\": {\n"
          << "    \"responses\": " << r.responses << ",\n"
          << "    \"errors\": " << r.errors << ",\n"
          << "    \"rejected\": " << r.rejected << ",\n"
          << "    \"wall_ms\": " << r.wall_ms << ",\n"
          << "    \"requests_per_sec\": " << r.req_per_s << ",\n"
          << "    \"p50_ms\": " << r.p50_ms << ",\n"
          << "    \"p99_ms\": " << r.p99_ms << ",\n"
          << "    \"max_ms\": " << r.max_ms << "\n"
          << "  },\n";
    };
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"net_throughput\",\n"
        << "  \"connections\": " << connections << ",\n"
        << "  \"requests_per_connection\": " << requests << ",\n"
        << "  \"pipeline_depth\": " << pipeline << ",\n"
        << "  \"client_threads\": " << client_threads << ",\n"
        << "  \"workers\": " << workers << ",\n"
        << bench::machine_json() << ",\n"
        << "  \"requests\": " << expected << ",\n";
    phase_json("baseline", baseline);
    phase_json("traced", traced);
    out << "  \"traced_started\": " << trace_stats.started << ",\n"
        << "  \"traced_sampled\": " << trace_stats.sampled << ",\n"
        << "  \"traced_finished\": " << trace_stats.finished << ",\n"
        << "  \"tracing_overhead_pct\": " << overhead_pct << ",\n"
        << "  \"server_accepted\": " << server_stats.accepted << ",\n"
        << "  \"server_requests\": " << server_stats.requests << ",\n"
        << "  \"server_responses\": " << server_stats.responses << ",\n"
        << "  \"server_faulted\": " << server_stats.faulted << ",\n"
        << "  \"pass\": " << (pass ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return pass ? 0 : 1;
}
