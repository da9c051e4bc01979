// Tier-1 loopback tests for the TCP front end: LineBuffer framing,
// request pipelining on one socket, session interleaving across
// sockets, the connection lifecycle edges (idle timeout, half-close
// drain, oversized lines, connection caps), and how per-connection
// backpressure composes with executor shedding. Everything runs against
// a real NetServer on an ephemeral loopback port — fast (ms-scale
// latencies) and deterministic; the failpoint-driven chaos lives in
// net_chaos_test (tier-2).

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "domains/crypto.hpp"
#include "net/line_buffer.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/batch_runner.hpp"
#include "service/request_executor.hpp"
#include "service/session_manager.hpp"
#include "service/shared_layer.hpp"
#include "storage/durable_catalog.hpp"
#include "storage/file_io.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"

namespace dslayer {
namespace {

using net::LineBuffer;
using net::NetServer;
using net::Socket;
using service::RequestExecutor;
using service::SessionManager;
using service::SharedLayer;

constexpr const char* kOmm = "Operator.Modular.Multiplier";

// ---------------------------------------------------------------------------
// LineBuffer framing
// ---------------------------------------------------------------------------

TEST(LineBuffer, ReassemblesLinesAcrossArbitraryChunks) {
  LineBuffer buffer(64);
  const std::string stream = "first line\nsecond\r\nthird\n";
  // Feed one byte at a time: the cruelest chunking a socket can produce.
  std::vector<std::string> lines;
  std::string line;
  for (char c : stream) {
    buffer.append(&c, 1);
    while (buffer.next(line) == LineBuffer::Status::kLine) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "first line");
  EXPECT_EQ(lines[1], "second");  // '\r' stripped
  EXPECT_EQ(lines[2], "third");
  EXPECT_EQ(buffer.buffered(), 0u);
}

TEST(LineBuffer, OversizedLineIsReportedOnceAndDiscardedToNewline) {
  LineBuffer buffer(8);
  const std::string giant(40, 'x');
  std::string line;
  // Partial over-limit line: reported as soon as the limit is blown,
  // even before its '\n' arrives.
  buffer.append(giant.data(), giant.size());
  EXPECT_EQ(buffer.next(line), LineBuffer::Status::kOversized);
  EXPECT_EQ(buffer.next(line), LineBuffer::Status::kNeedMore);
  // The rest of the giant line (and its terminator) vanishes; the next
  // real line parses cleanly.
  const std::string tail = "yyy\nok\n";
  buffer.append(tail.data(), tail.size());
  EXPECT_EQ(buffer.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line, "ok");
  EXPECT_EQ(buffer.next(line), LineBuffer::Status::kNeedMore);
}

TEST(LineBuffer, CompleteButOversizedLineDoesNotEatItsNeighbors) {
  LineBuffer buffer(8);
  const std::string stream = "tiny\n0123456789abcdef\nafter\n";
  buffer.append(stream.data(), stream.size());
  std::string line;
  EXPECT_EQ(buffer.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line, "tiny");
  EXPECT_EQ(buffer.next(line), LineBuffer::Status::kOversized);
  EXPECT_EQ(buffer.next(line), LineBuffer::Status::kLine);
  EXPECT_EQ(line, "after");
}

// ---------------------------------------------------------------------------
// loopback harness
// ---------------------------------------------------------------------------

/// Response headers ("== " at line start) in a stream of responses.
std::size_t count_headers(const std::string& text) {
  std::size_t count = 0;
  for (std::size_t pos = 0; (pos = text.find("== ", pos)) != std::string::npos; pos += 3) {
    if (pos == 0 || text[pos - 1] == '\n') ++count;
  }
  return count;
}

/// Blocking test-side client with a read-until-predicate helper.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    std::string error;
    socket_ = net::connect_local(port, &error);
    EXPECT_TRUE(socket_.valid()) << error;
  }

  bool ok() const { return socket_.valid(); }
  int fd() const { return socket_.fd(); }

  void send_all(const std::string& text) {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = ::send(socket_.fd(), text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "send failed";
      sent += static_cast<std::size_t>(n);
    }
  }

  void half_close() { ::shutdown(socket_.fd(), SHUT_WR); }

  /// Reads until `received()` holds `count` response headers ("== " at
  /// line start) or the deadline passes. Returns what arrived so far.
  const std::string& read_responses(std::size_t count, int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (header_count() < count) {
      const int left = static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                            deadline - std::chrono::steady_clock::now())
                                            .count());
      if (left <= 0) break;
      pollfd pfd{socket_.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, left) <= 0) break;
      char buf[8192];
      const ssize_t n = ::read(socket_.fd(), buf, sizeof(buf));
      if (n <= 0) break;  // EOF or error: the caller's assertions decide
      received_.append(buf, static_cast<std::size_t>(n));
    }
    return received_;
  }

  /// True when the server closed its end (read() returns 0) within the
  /// timeout; trailing data is still collected into received().
  bool server_closed(int timeout_ms) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const int left = static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                            deadline - std::chrono::steady_clock::now())
                                            .count());
      if (left <= 0) return false;
      pollfd pfd{socket_.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, left) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(socket_.fd(), buf, sizeof(buf));
      if (n == 0) return true;
      if (n < 0) return true;  // RST counts as closed
      received_.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// Reads until `marker` appears in the stream (directive payloads like
  /// `!metrics`, which carry no "== " response headers) or the deadline
  /// passes. Returns what arrived so far.
  const std::string& read_until(const std::string& marker, int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (received_.find(marker) == std::string::npos) {
      const int left = static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                            deadline - std::chrono::steady_clock::now())
                                            .count());
      if (left <= 0) break;
      pollfd pfd{socket_.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, left) <= 0) break;
      char buf[8192];
      const ssize_t n = ::read(socket_.fd(), buf, sizeof(buf));
      if (n <= 0) break;
      received_.append(buf, static_cast<std::size_t>(n));
    }
    return received_;
  }

  std::size_t header_count() const { return count_headers(received_); }

  const std::string& received() const { return received_; }

 private:
  Socket socket_;
  std::string received_;
};

class NetTest : public ::testing::Test {
 protected:
  NetTest() : layer_(domains::build_crypto_layer()), shared_(*layer_), manager_(shared_) {}

  void start(NetServer::Options net_options = {}, RequestExecutor::Options exec_options = {}) {
    executor_ = std::make_unique<RequestExecutor>(manager_, exec_options);
    net_options.port = 0;  // ephemeral: tests never fight over a port
    server_ = std::make_unique<NetServer>(service::DirectiveContext{&manager_, executor_.get()},
                                          net_options);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  std::uint16_t port() const { return server_->port(); }

  std::unique_ptr<dsl::DesignSpaceLayer> layer_;
  SharedLayer shared_;
  SessionManager manager_;
  // Declaration order is the teardown contract: the server is destroyed
  // (and drains its worker callbacks) before the executor it feeds.
  std::unique_ptr<RequestExecutor> executor_;
  std::unique_ptr<NetServer> server_;
};

// ---------------------------------------------------------------------------
// pipelining and interleaving
// ---------------------------------------------------------------------------

TEST_F(NetTest, PipelinedRequestsOnOneSocketAllAnswerById) {
  start();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  // Ten requests written in one burst, no waiting: responses stream back
  // in completion order, each tagged with its per-connection id.
  std::string burst = cat("s1 open ", kOmm, "\n");
  for (int i = 0; i < 9; ++i) {
    burst += (i % 2 == 0) ? "s1 req EffectiveOperandLength 768\n" : "s1 retract EffectiveOperandLength\n";
  }
  client.send_all(burst);
  const std::string& text = client.read_responses(10);
  EXPECT_EQ(client.header_count(), 10u) << text;
  for (int id = 1; id <= 10; ++id) {
    EXPECT_NE(text.find(cat("== ", std::to_string(id), " s1 ok")), std::string::npos)
        << "missing response " << id << "\n" << text;
  }
  const auto stats = server_->stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.responses, 10u);
}

TEST_F(NetTest, InterleavedSessionsAcrossSocketsStayIsolated) {
  start();
  TestClient alice(port());
  TestClient bob(port());
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  // Same command stream, different sessions, interleaved submission:
  // each connection sees only its own responses, ids starting at 1.
  alice.send_all(cat("alice open ", kOmm, "\n"));
  bob.send_all(cat("bob open ", kOmm, "\n"));
  alice.send_all("alice req EffectiveOperandLength 768\n");
  bob.send_all("bob req EffectiveOperandLength 1024\n");
  const std::string& from_alice = alice.read_responses(2);
  const std::string& from_bob = bob.read_responses(2);
  EXPECT_NE(from_alice.find("== 1 alice ok"), std::string::npos) << from_alice;
  EXPECT_NE(from_alice.find("== 2 alice ok"), std::string::npos) << from_alice;
  EXPECT_EQ(from_alice.find(" bob "), std::string::npos) << from_alice;
  EXPECT_NE(from_bob.find("== 1 bob ok"), std::string::npos) << from_bob;
  EXPECT_NE(from_bob.find("== 2 bob ok"), std::string::npos) << from_bob;
  EXPECT_EQ(from_bob.find(" alice "), std::string::npos) << from_bob;
  // Both sessions live in the one shared SessionManager.
  EXPECT_EQ(manager_.session_count(), 2u);
}

TEST_F(NetTest, DirectiveIsACompletionOrderSyncPoint) {
  NetServer::Options net_options;
  RequestExecutor::Options exec_options;
  exec_options.workers = 2;
  exec_options.injected_latency_us = 20000.0;  // opens still in flight at '!'
  start(net_options, exec_options);
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.send_all(cat("s1 open ", kOmm, "\ns2 open ", kOmm, "\n!stats\ns1 help\n"));
  const std::string& text = client.read_responses(3);
  // The directive waited for both opens (drain), so the snapshot counts
  // exactly them — and its output lands after their responses.
  const auto stats_pos = text.find("executor: accepted=2 executed=2");
  ASSERT_NE(stats_pos, std::string::npos) << text;
  EXPECT_LT(text.find("== 1 s1 ok"), stats_pos) << text;
  EXPECT_LT(text.find("== 2 s2 ok"), stats_pos) << text;
  EXPECT_GT(text.find("== 3 s1 ok"), stats_pos) << text;
  EXPECT_EQ(server_->stats().directives, 1u);
}

// ---------------------------------------------------------------------------
// protocol edges over the wire
// ---------------------------------------------------------------------------

TEST_F(NetTest, OversizedLineAnswersInvalidRequestWithoutKillingTheConnection) {
  NetServer::Options net_options;
  net_options.max_line_bytes = 128;
  start(net_options);
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.send_all(std::string(4096, 'x') + "\ns1 help\n");
  const std::string& text = client.read_responses(2);
  EXPECT_NE(text.find("== 1 - error code=invalid-request"), std::string::npos) << text;
  EXPECT_NE(text.find("over 128 bytes"), std::string::npos) << text;
  // The connection survived the hostile line and served the next one.
  EXPECT_NE(text.find("== 2 s1 ok"), std::string::npos) << text;
  EXPECT_EQ(server_->stats().oversized_lines, 1u);
  EXPECT_EQ(server_->stats().open_connections, 1u);
}

TEST_F(NetTest, MalformedAndMisleadingLinesGetTypedErrors) {
  start();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.send_all("lonely\nuser@host report\ns1@250 help\n");
  const std::string& text = client.read_responses(3);
  EXPECT_NE(text.find("== 1 - error code=invalid-request"), std::string::npos) << text;
  EXPECT_NE(text.find("== 2 - error code=invalid-request"), std::string::npos) << text;
  // The '@' contract travels the wire: the old misleading "bad deadline
  // 'host'"-only message is now an explicit reserved-character error.
  EXPECT_NE(text.find("cannot appear in session names"), std::string::npos) << text;
  EXPECT_NE(text.find("== 3 s1 ok"), std::string::npos) << text;
  EXPECT_EQ(server_->stats().invalid_lines, 2u);
}

TEST_F(NetTest, DeadlineExpiryTravelsTheWire) {
  RequestExecutor::Options exec_options;
  exec_options.workers = 1;
  exec_options.injected_latency_us = 30000.0;
  start({}, exec_options);
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.send_all("s1 help\ns1@1 help\n");
  const std::string& text = client.read_responses(2);
  EXPECT_NE(text.find("== 1 s1 ok"), std::string::npos) << text;
  EXPECT_NE(text.find("== 2 s1 deadline-exceeded code=deadline-exceeded"), std::string::npos)
      << text;
}

TEST_F(NetTest, BatchServeAndTcpAccountOneScriptAlike) {
  // One script through all three front ends. Regression: run_serve
  // counted a malformed line as an error but not as a request, so its
  // summary disagreed with run_batch's for the same input.
  const std::string script =
      "\n"
      "# a comment\n"
      "lonely\n"
      "s1 help\n"
      "s1@1 help\n"  // expires queued behind the first request's latency
      "!sessions\n"
      "s2 help\n";
  RequestExecutor::Options exec_options;
  exec_options.workers = 1;
  exec_options.injected_latency_us = 30000.0;

  service::BatchSummary batch;
  std::string batch_text;
  {
    RequestExecutor executor(manager_, exec_options);
    std::istringstream in(script);
    std::ostringstream out;
    batch = service::run_batch(manager_, executor, in, out);
    batch_text = out.str();
  }
  service::BatchSummary serve;
  std::string serve_text;
  {
    RequestExecutor executor(manager_, exec_options);
    std::istringstream in(script);
    std::ostringstream out;
    serve = service::run_serve(manager_, executor, in, out);
    serve_text = out.str();
  }
  start({}, exec_options);
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.send_all(script);
  const std::string& wire = client.read_responses(4);

  EXPECT_EQ(batch.requests, 4u) << batch_text;
  EXPECT_EQ(batch.errors, 1u) << batch_text;
  EXPECT_EQ(batch.rejected, 0u) << batch_text;
  EXPECT_EQ(batch.deadline_expired, 1u) << batch_text;
  EXPECT_EQ(serve.requests, batch.requests) << serve_text;
  EXPECT_EQ(serve.errors, batch.errors) << serve_text;
  EXPECT_EQ(serve.rejected, batch.rejected) << serve_text;
  EXPECT_EQ(serve.deadline_expired, batch.deadline_expired) << serve_text;

  EXPECT_EQ(count_headers(batch_text), 4u) << batch_text;
  EXPECT_EQ(count_headers(serve_text), 4u) << serve_text;
  EXPECT_EQ(client.header_count(), 4u) << wire;
  const auto stats = server_->stats();
  EXPECT_EQ(stats.requests + stats.invalid_lines, batch.requests);
}

// ---------------------------------------------------------------------------
// lifecycle: idle timeout, half-close drain, connection cap
// ---------------------------------------------------------------------------

TEST_F(NetTest, IdleConnectionIsClosedAfterTheTimeout) {
  NetServer::Options net_options;
  net_options.idle_timeout_ms = 120.0;
  start(net_options);
  TestClient silent(port());
  ASSERT_TRUE(silent.ok());
  // Never sends a byte — the slowloris/half-open shape. The server must
  // hang up on its own initiative.
  EXPECT_TRUE(silent.server_closed(3000));
  EXPECT_EQ(server_->stats().idle_closed, 1u);
  EXPECT_EQ(server_->stats().open_connections, 0u);
}

TEST_F(NetTest, HalfClosedConnectionDrainsItsResponsesBeforeClosing) {
  RequestExecutor::Options exec_options;
  exec_options.workers = 1;
  exec_options.injected_latency_us = 15000.0;  // responses outlive the FIN
  start({}, exec_options);
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.send_all(cat("s1 open ", kOmm, "\ns1 help\ns1 quit\n"));
  client.half_close();  // FIN first, answers later
  EXPECT_TRUE(client.server_closed(5000));
  const std::string& text = client.received();
  EXPECT_EQ(client.header_count(), 3u) << text;
  EXPECT_NE(text.find("== 3 s1 ok"), std::string::npos) << text;
}

TEST_F(NetTest, ConnectionsPastTheCapAreRefusedWithAResponse) {
  NetServer::Options net_options;
  net_options.max_connections = 2;
  start(net_options);
  TestClient first(port());
  TestClient second(port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Make sure both are fully accepted before the third arrives.
  first.send_all("s1 help\n");
  second.send_all("s2 help\n");
  first.read_responses(1);
  second.read_responses(1);
  TestClient third(port());
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.server_closed(3000));
  EXPECT_NE(third.received().find("== 0 - rejected code=overloaded"), std::string::npos)
      << third.received();
  EXPECT_EQ(server_->stats().rejected_connects, 1u);
  EXPECT_EQ(server_->stats().open_connections, 2u);
}

// ---------------------------------------------------------------------------
// backpressure composition
// ---------------------------------------------------------------------------

TEST_F(NetTest, InflightCapPausesReadingInsteadOfRejecting) {
  // The per-connection cap (2) is far below the burst (10), but the
  // executor queue (256) never fills because the server stops READING
  // the connection at the cap: every request eventually answers ok and
  // nothing is rejected. This is backpressure composing, not shedding.
  NetServer::Options net_options;
  net_options.conn_inflight_cap = 2;
  RequestExecutor::Options exec_options;
  exec_options.workers = 1;
  exec_options.injected_latency_us = 5000.0;
  start(net_options, exec_options);
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  std::string burst;
  for (int i = 0; i < 10; ++i) burst += "s1 help\n";
  client.send_all(burst);
  const std::string& text = client.read_responses(10);
  EXPECT_EQ(client.header_count(), 10u) << text;
  EXPECT_EQ(text.find("rejected"), std::string::npos) << text;
  EXPECT_EQ(executor_->stats().rejected, 0u);
  EXPECT_EQ(executor_->stats().executed, 10u);
}

TEST_F(NetTest, ExecutorQueueFullAnswersRejectedWithRetryHint) {
  // Inverse composition: a generous per-connection cap lets the burst
  // reach a tiny executor queue, so overflow comes back as typed
  // rejected/overloaded responses with a retry-after hint — the
  // connection (and the accepted requests) are unharmed.
  NetServer::Options net_options;
  net_options.conn_inflight_cap = 64;
  RequestExecutor::Options exec_options;
  exec_options.workers = 1;
  exec_options.queue_capacity = 1;
  exec_options.injected_latency_us = 30000.0;
  start(net_options, exec_options);
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.send_all("s1 help\ns1 help\ns1 help\ns1 help\n");
  const std::string& text = client.read_responses(4);
  EXPECT_EQ(client.header_count(), 4u) << text;
  EXPECT_NE(text.find("rejected code=overloaded retry-after-ms="), std::string::npos) << text;
  EXPECT_NE(text.find("== 1 s1 ok"), std::string::npos) << text;
  EXPECT_GE(executor_->stats().executed, 1u);
}

// ---------------------------------------------------------------------------
// observability over the wire
// ---------------------------------------------------------------------------

TEST_F(NetTest, StatsDirectiveIncludesConnectionCounters) {
  start();
  TestClient client(port());
  ASSERT_TRUE(client.ok());
  client.send_all("s1 help\n!stats\n");
  const std::string& text = client.read_until("net: ");
  // The TCP front end injects its counter snapshot into the directive:
  // this connection is open, was accepted, and has one request/response.
  EXPECT_NE(text.find("net: open=1 accepted=1"), std::string::npos) << text;
  EXPECT_NE(text.find("requests=1 responses=1"), std::string::npos) << text;
}

TEST_F(NetTest, MetricsDirectiveServesPrometheusInlineWithoutDraining) {
  // A worker is wedged on a long request, so a draining directive would
  // block — but `!metrics` is served inline by the event loop from
  // thread-safe snapshots, so the scrape answers while the request is
  // still in flight. "# EOF" doubles as the framing terminator.
  RequestExecutor::Options exec_options;
  exec_options.workers = 1;
  exec_options.injected_latency_us = 300000.0;  // 300ms: wedged during the scrape
  start({}, exec_options);
  TestClient slow(port());
  ASSERT_TRUE(slow.ok());
  slow.send_all("s1 help\n");

  TestClient scraper(port());
  ASSERT_TRUE(scraper.ok());
  const auto scrape_start = std::chrono::steady_clock::now();
  scraper.send_all("!metrics\n");
  const std::string& payload = scraper.read_until("# EOF\n", 2000);
  const double scrape_ms = std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                               std::chrono::steady_clock::now() - scrape_start)
                               .count();
  ASSERT_NE(payload.find("# EOF\n"), std::string::npos) << payload;
  // The scrape did NOT wait out the 300ms request.
  EXPECT_LT(scrape_ms, 250.0);
  EXPECT_NE(payload.find("# TYPE dslayer_requests_accepted_total counter"), std::string::npos)
      << payload;
  EXPECT_NE(payload.find("dslayer_net_connections_open 2"), std::string::npos) << payload;
  EXPECT_NE(payload.find("dslayer_net_connections_accepted_total 2"), std::string::npos)
      << payload;
  // The slow request still completes normally afterwards.
  EXPECT_EQ(slow.read_responses(1).find("== 1 s1"), 0u);
}

TEST_F(NetTest, TracedRequestSpanChainAccountsForTheClientLatency) {
  // The acceptance shape for end-to-end tracing: a traced request's
  // top-level span chain (ingress + queue.wait + execute + respond)
  // must explain the client-observed latency — the spans cover the whole
  // path, with only scheduling gaps unaccounted. The injected 100ms
  // execution dominates, so the 5% tolerance is ~5ms of real slack.
  trace::Tracer::instance().reset();
  trace::TracerConfig config;
  config.sample_every = 1;
  trace::Tracer::instance().configure(config);
  RequestExecutor::Options exec_options;
  exec_options.injected_latency_us = 100000.0;
  start({}, exec_options);

  TestClient client(port());
  ASSERT_TRUE(client.ok());
  const auto sent = std::chrono::steady_clock::now();
  client.send_all("s1 help\n");
  client.read_responses(1);
  const double client_ms = std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
                               std::chrono::steady_clock::now() - sent)
                               .count();
  ASSERT_EQ(client.header_count(), 1u) << client.received();

  // The worker finishes the trace AFTER handing the rendered response to
  // the event loop, so the client can hold the answer a beat before the
  // trace lands in the ring — wait it out.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (trace::Tracer::instance().recent().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto recent = trace::Tracer::instance().recent();
  ASSERT_EQ(recent.size(), 1u);
  const auto spans = recent[0]->spans();
  double top_level_ms = 0.0;
  std::set<trace::SpanKind> kinds;
  for (const trace::Span& span : spans) {
    kinds.insert(span.kind);
    if (span.parent == trace::kNoParent) {
      top_level_ms += static_cast<double>(span.duration_ns) / 1.0e6;
    }
  }
  // The chain is complete: every hop of the request's life is present.
  EXPECT_TRUE(kinds.contains(trace::SpanKind::kIngress));
  EXPECT_TRUE(kinds.contains(trace::SpanKind::kParse));
  EXPECT_TRUE(kinds.contains(trace::SpanKind::kQueueWait));
  EXPECT_TRUE(kinds.contains(trace::SpanKind::kExecute));
  EXPECT_TRUE(kinds.contains(trace::SpanKind::kRespond));
  // And it sums to the client's view of the request within 5% (the spans
  // cannot exceed it: they are a subset of the client-observed window).
  EXPECT_GE(top_level_ms, client_ms * 0.95)
      << "span chain " << top_level_ms << "ms vs client " << client_ms << "ms\n"
      << trace::to_jsonl(*recent[0]);
  EXPECT_LE(top_level_ms, client_ms * 1.05)
      << "span chain " << top_level_ms << "ms vs client " << client_ms << "ms";
  trace::Tracer::instance().reset();
}

// ---------------------------------------------------------------------------
// durable catalog over the wire
// ---------------------------------------------------------------------------

TEST(NetDurable, SnapshotDirectiveOverTcpWritesTheDurableCatalog) {
  // Regression: the server built its directive context from the manager
  // and executor alone, so `!snapshot` over TCP answered "no durable
  // catalog" even in a process started with --data.
  const std::string dir = ::testing::TempDir() + "dslayer_net_snapshot";
  for (const std::string& name : storage::list_directory(dir)) {
    storage::remove_file(dir + "/" + name);
  }
  storage::ensure_directory(dir);
  auto layer = domains::build_crypto_layer();
  storage::DurableCatalog durable(*layer, {.dir = dir});
  SharedLayer shared(*layer, SharedLayer::Reindex::kFull);
  SessionManager manager(shared);
  RequestExecutor executor(manager);
  NetServer server({&manager, &executor, {}, &durable}, {});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  client.send_all("!snapshot\n");
  const std::string& text = client.read_until("\n");
  EXPECT_EQ(text.rfind("snapshot: ", 0), 0u) << text;
  EXPECT_TRUE(storage::path_exists(dir + "/catalog.snap"));
  server.stop();
}

}  // namespace
}  // namespace dslayer
