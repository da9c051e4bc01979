// Tier-2 chaos for the TCP front end: connection-level failpoints
// (accept-time faults, mid-line disconnects, write-path failures) armed
// under concurrent socket load, plus the slowloris/half-open shapes the
// idle sweep must defuse. Runs under ASan and TSan in CI; the loads are
// sized for a small machine — the point is interleaving coverage and
// lifecycle invariants, not throughput.
//
// The invariant under every fault: the SERVER survives. Individual
// connections may die abruptly (that is the injected fault), but the
// loop keeps serving, in-flight executor work completes harmlessly
// against closed connections, and a clean post-chaos connection gets
// clean service.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "domains/crypto.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/request_executor.hpp"
#include "service/session_manager.hpp"
#include "service/shared_layer.hpp"
#include "support/failpoint.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace dslayer {
namespace {

using net::NetServer;
using net::Socket;
using service::RequestExecutor;
using service::SessionManager;
using service::SharedLayer;

constexpr const char* kOmm = "Operator.Modular.Multiplier";

/// Disarms every failpoint when a test exits, pass or fail.
struct FailpointGuard {
  ~FailpointGuard() { support::FailpointRegistry::instance().reset(); }
  support::FailpointRegistry& registry = support::FailpointRegistry::instance();
};

class NetChaosTest : public ::testing::Test {
 protected:
  NetChaosTest() : layer_(domains::build_crypto_layer()), shared_(*layer_), manager_(shared_) {}

  void start(NetServer::Options net_options, RequestExecutor::Options exec_options) {
    executor_ = std::make_unique<RequestExecutor>(manager_, exec_options);
    net_options.port = 0;
    server_ = std::make_unique<NetServer>(service::DirectiveContext{&manager_, executor_.get()},
                                          net_options);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  std::unique_ptr<dsl::DesignSpaceLayer> layer_;
  SharedLayer shared_;
  SessionManager manager_;
  std::unique_ptr<RequestExecutor> executor_;  // outlives the server below
  std::unique_ptr<NetServer> server_;
};

/// One scripted client: connect, pipeline a few requests, read until the
/// server answers them all or hangs up. Returns completed responses.
std::size_t run_client(std::uint16_t port, int index, int requests) {
  std::string error;
  Socket sock = net::connect_local(port, &error);
  if (!sock.valid()) return 0;
  std::string burst = cat("c", std::to_string(index), " open ", kOmm, "\n");
  for (int i = 1; i < requests; ++i) {
    burst += cat("c", std::to_string(index), " range area\n");
  }
  std::size_t sent = 0;
  while (sent < burst.size()) {
    const ssize_t n = ::send(sock.fd(), burst.data() + sent, burst.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return 0;  // injected fault killed the connection mid-send
    sent += static_cast<std::size_t>(n);
  }
  std::string received;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::size_t headers = 0;
  while (headers < static_cast<std::size_t>(requests) &&
         std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{sock.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 200) <= 0) continue;
    char buf[8192];
    const ssize_t n = ::read(sock.fd(), buf, sizeof(buf));
    if (n <= 0) break;  // server hung up (fault) — fine, count what we got
    received.append(buf, static_cast<std::size_t>(n));
    headers = 0;
    for (std::size_t pos = 0; (pos = received.find("== ", pos)) != std::string::npos; pos += 3) {
      if (pos == 0 || received[pos - 1] == '\n') ++headers;
    }
  }
  return headers;
}

TEST_F(NetChaosTest, ServerSurvivesConnectionFailpointsUnderLoad) {
  FailpointGuard failpoints;
  NetServer::Options net_options;
  net_options.conn_inflight_cap = 8;
  RequestExecutor::Options exec_options;
  exec_options.workers = 2;
  exec_options.queue_capacity = 128;
  start(net_options, exec_options);

  // Faults at every connection boundary: some accepts die, some reads
  // cut the connection mid-stream, some writes fail while flushing.
  ASSERT_TRUE(failpoints.registry.arm_spec("net.conn.accept=error:3"));
  ASSERT_TRUE(failpoints.registry.arm_spec("net.conn.read=error:4"));
  ASSERT_TRUE(failpoints.registry.arm_spec("net.conn.write=error:3"));

  constexpr int kClients = 24;
  constexpr int kRequestsPerClient = 4;
  std::atomic<std::size_t> total_responses{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([this, i, &total_responses] {
      total_responses += run_client(server_->port(), i, kRequestsPerClient);
    });
  }
  for (auto& thread : clients) thread.join();

  // Faults hit, yet plenty of traffic still completed around them.
  const auto stats = server_->stats();
  EXPECT_GE(stats.faulted, 3u) << "failpoints never fired";
  EXPECT_GT(total_responses.load(), 0u);

  // Post-chaos, with failpoints spent/disarmed, a fresh connection gets
  // clean end-to-end service from the same loop.
  failpoints.registry.reset();
  EXPECT_EQ(run_client(server_->port(), 999, 3), 3u);

  // Nothing accepted by the executor was lost, whatever happened to the
  // connection that submitted it.
  server_->stop();
  const auto exec_stats = executor_->stats();
  EXPECT_EQ(exec_stats.accepted, exec_stats.executed);
}

TEST_F(NetChaosTest, TracingAtFullSamplingSurvivesConnectionChaos) {
  // Tracing's worst case: every request traced (sample=1), the flight
  // recorder armed with a threshold most requests beat, and connection
  // failpoints killing sockets mid-request — so traces finish via every
  // terminal path (normal delivery, rejected-at-door, connections that
  // died before their response). Run under ASan and TSan in CI; the
  // invariant is the same as the undecorated chaos test (the server
  // survives) plus trace accounting: every started trace finishes
  // exactly once, whatever happened to its connection.
  FailpointGuard failpoints;
  trace::Tracer::instance().reset();
  trace::TracerConfig trace_config;
  trace_config.sample_every = 1;
  trace_config.slow_request_ms = 1.0;
  trace_config.ring_capacity = 16;
  trace_config.flight_capacity = 32;
  trace::Tracer::instance().configure(trace_config);

  NetServer::Options net_options;
  net_options.conn_inflight_cap = 8;
  RequestExecutor::Options exec_options;
  exec_options.workers = 2;
  exec_options.queue_capacity = 128;
  exec_options.injected_latency_us = 2000.0;  // most requests cross the 1ms threshold
  start(net_options, exec_options);

  ASSERT_TRUE(failpoints.registry.arm_spec("net.conn.read=error:4"));
  ASSERT_TRUE(failpoints.registry.arm_spec("net.conn.write=error:3"));

  constexpr int kClients = 16;
  constexpr int kRequestsPerClient = 4;
  std::atomic<std::size_t> total_responses{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([this, i, &total_responses] {
      total_responses += run_client(server_->port(), i, kRequestsPerClient);
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_GT(total_responses.load(), 0u);

  failpoints.registry.reset();
  EXPECT_EQ(run_client(server_->port(), 999, 3), 3u);  // clean post-chaos service

  // Quiesce, then audit the trace accounting.
  server_->stop();
  const auto stats = trace::Tracer::instance().stats();
  EXPECT_GT(stats.started, 0u);
  EXPECT_EQ(stats.sampled, stats.started);    // sample=1: everything sampled
  EXPECT_EQ(stats.finished, stats.started);   // every trace reached a terminal path
  EXPECT_GT(stats.slow, 0u);                  // the 2ms requests beat the 1ms bar
  EXPECT_LE(trace::Tracer::instance().flight_records().size(), trace_config.flight_capacity);
  trace::Tracer::instance().reset();
}

TEST_F(NetChaosTest, SlowlorisAndHalfOpenSocketsAreSweptByTheIdleTimeout) {
  NetServer::Options net_options;
  net_options.idle_timeout_ms = 150.0;
  RequestExecutor::Options exec_options;
  exec_options.workers = 1;
  start(net_options, exec_options);

  // A slowloris drips bytes but never completes a line; a half-open
  // socket connects and goes silent forever. Both must be evicted while
  // an honest (if chatty) client keeps getting service.
  std::string error;
  Socket slowloris = net::connect_local(server_->port(), &error);
  ASSERT_TRUE(slowloris.valid()) << error;
  Socket half_open = net::connect_local(server_->port(), &error);
  ASSERT_TRUE(half_open.valid()) << error;

  std::atomic<bool> stop_drip{false};
  std::thread dripper([&] {
    // One byte every 400ms: each arrival resets last_activity, but the
    // gaps exceed the 150ms budget, so the sweep wins mid-gap.
    const char byte = 'x';
    while (!stop_drip.load()) {
      if (::send(slowloris.fd(), &byte, 1, MSG_NOSIGNAL) <= 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  });

  EXPECT_EQ(run_client(server_->port(), 1, 3), 3u);  // honest client unharmed

  // Both attackers die within a few sweep periods.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->stats().idle_closed < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  stop_drip = true;
  dripper.join();
  EXPECT_GE(server_->stats().idle_closed, 2u);

  // The partial slowloris line was discarded with its connection: no
  // request was ever forged from it.
  EXPECT_EQ(manager_.session_count(), 1u);  // just the honest client's
}

}  // namespace
}  // namespace dslayer
