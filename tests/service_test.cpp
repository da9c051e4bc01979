// Unit tests for the concurrent exploration service: protocol parsing,
// SharedLayer epochs and priming, SessionManager lifecycle (create /
// execute / migrate / close / evict), executor submission, backpressure,
// per-session ordering, and the batch front end. Fast and deterministic —
// tier-1; the multi-threaded races live in service_stress_test (tier-2).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "domains/crypto.hpp"
#include "service/batch_runner.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/request_executor.hpp"
#include "service/session_manager.hpp"
#include "service/shared_layer.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace dslayer {
namespace {

using service::ErrorCode;
using service::Request;
using service::RequestExecutor;
using service::Response;
using service::ResponseStatus;
using service::ServiceClient;
using service::SessionManager;
using service::SharedLayer;

constexpr const char* kOmm = "Operator.Modular.Multiplier";

// ---------------------------------------------------------------------------
// protocol
// ---------------------------------------------------------------------------

TEST(Protocol, ParsesSessionAndCommand) {
  const auto request = service::parse_request("  s1   decide Algorithm Montgomery ");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->session, "s1");
  EXPECT_EQ(request->command, "decide Algorithm Montgomery");
}

TEST(Protocol, SkipsBlankAndCommentLines) {
  EXPECT_FALSE(service::parse_request("").has_value());
  EXPECT_FALSE(service::parse_request("   ").has_value());
  EXPECT_FALSE(service::parse_request("# comment").has_value());
}

TEST(Protocol, RejectsSessionWithoutCommandWithoutThrowing) {
  std::string error;
  EXPECT_FALSE(service::parse_request("lonely", &error).has_value());
  EXPECT_NE(error.find("no command"), std::string::npos);
  error.clear();
  EXPECT_FALSE(service::parse_request("s1    ", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Protocol, ParsesDeadlineSuffix) {
  const auto request = service::parse_request("s1@250 candidates");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->session, "s1");
  EXPECT_EQ(request->command, "candidates");
  EXPECT_DOUBLE_EQ(request->deadline_ms, 250.0);

  std::string error;
  EXPECT_FALSE(service::parse_request("s1@ candidates", &error).has_value());
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(service::parse_request("s1@-5 candidates", &error).has_value());
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(service::parse_request("s1@2x candidates", &error).has_value());
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(service::parse_request("@250 candidates", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Protocol, SessionNamesCannotContainAtSign) {
  // Regression: the session token used to split at the LAST '@', so a
  // session literally named "user@host" was rejected with a misleading
  // "bad deadline 'host'" message. The contract is now explicit: the
  // token splits at the FIRST '@', everything after it must be a whole
  // number of ms, and the error says '@' is reserved.
  std::string error;
  EXPECT_FALSE(service::parse_request("user@host report", &error).has_value());
  EXPECT_NE(error.find("cannot appear in session names"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(service::parse_request("a@b@5 report", &error).has_value());
  EXPECT_NE(error.find("cannot appear in session names"), std::string::npos) << error;

  // The deadline happy path is untouched.
  const auto request = service::parse_request("user@250 report");
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->session, "user");
  EXPECT_DOUBLE_EQ(request->deadline_ms, 250.0);

  // '@'-riddled tokens all fail loudly, never silently bind a deadline
  // to the wrong split point.
  for (const char* line : {"s@@5 x", "s@5@ x", "s@@ x", "s@5@5 x", "@ x"}) {
    error.clear();
    EXPECT_FALSE(service::parse_request(line, &error).has_value()) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(Protocol, RejectsOversizedLines) {
  std::string line = "s1 decide Algorithm ";
  line.append(service::kMaxRequestLineBytes, 'x');
  std::string error;
  EXPECT_FALSE(service::parse_request(line, &error).has_value());
  EXPECT_NE(error.find("exceeds"), std::string::npos);
}

TEST(Protocol, ErrorCodeRetryability) {
  using service::ErrorCode;
  EXPECT_TRUE(service::is_retryable(ErrorCode::kSessionsBusy));
  EXPECT_TRUE(service::is_retryable(ErrorCode::kOverloaded));
  EXPECT_TRUE(service::is_retryable(ErrorCode::kUnavailable));
  EXPECT_FALSE(service::is_retryable(ErrorCode::kNone));
  EXPECT_FALSE(service::is_retryable(ErrorCode::kInvalidRequest));
  EXPECT_FALSE(service::is_retryable(ErrorCode::kCommandFailed));
  EXPECT_FALSE(service::is_retryable(ErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(service::is_retryable(ErrorCode::kInternal));
}

TEST(Protocol, DetectsDirectives) {
  EXPECT_TRUE(service::is_directive("!stats"));
  EXPECT_TRUE(service::is_directive("  !close s1"));
  EXPECT_FALSE(service::is_directive("s1 help"));
}

TEST(Protocol, RendersHeaderPlusOutput) {
  Response response;
  response.id = 7;
  response.session = "s2";
  response.status = ResponseStatus::kError;
  response.output = "error: nope\n";
  EXPECT_EQ(service::render_response(response), "== 7 s2 error\nerror: nope\n");

  response.code = ErrorCode::kCommandFailed;
  EXPECT_EQ(service::render_response(response), "== 7 s2 error code=command-failed\nerror: nope\n");

  response.status = ResponseStatus::kRejected;
  response.code = ErrorCode::kOverloaded;
  response.retry_after_ms = 12.7;
  EXPECT_EQ(service::render_response(response),
            "== 7 s2 rejected code=overloaded retry-after-ms=12\nerror: nope\n");
}

// ---------------------------------------------------------------------------
// SharedLayer
// ---------------------------------------------------------------------------

TEST(SharedLayerTest, StartsAtEpochOneAndWriteBumps) {
  auto layer = domains::build_crypto_layer();
  SharedLayer shared(*layer);
  EXPECT_EQ(shared.epoch(), 1u);
  EXPECT_EQ(shared.write([](dsl::DesignSpaceLayer&) {}), 2u);
  EXPECT_EQ(shared.epoch(), 2u);
}

TEST(SharedLayerTest, PrimingCoversEveryCdo) {
  auto layer = domains::build_crypto_layer();
  SharedLayer shared(*layer);
  // After construction every per-CDO cache must answer as a pure hit:
  // the miss counters stay flat across a full read sweep.
  layer->reset_query_stats();
  const auto reader = shared.read_lock();
  for (const dsl::Cdo* cdo : shared.layer().space().all()) {
    (void)shared.layer().constraint_index(*cdo);
    (void)shared.layer().cores_under(*cdo);
  }
  EXPECT_EQ(shared.layer().query_stats().cache_misses, 0u);
  EXPECT_GT(shared.layer().query_stats().cache_hits, 0u);
}

TEST(SharedLayerTest, WriteSeesNewCoresAndReprimes) {
  auto layer = domains::build_crypto_layer();
  SharedLayer shared(*layer);
  const dsl::Cdo* omm = layer->space().find(kOmm);
  ASSERT_NE(omm, nullptr);
  std::size_t before = 0;
  {
    const auto reader = shared.read_lock();
    before = shared.layer().cores_under(*omm).size();
  }
  shared.write([&](dsl::DesignSpaceLayer& mutable_layer) {
    dsl::Core core("extra_core", kOmm);
    core.bind(domains::kImplStyle, dsl::Value::text("Hardware"));
    core.set_metric(domains::kMetricArea, 1234.0);
    mutable_layer.add_library("late-provider").add(std::move(core));
  });
  const auto reader = shared.read_lock();
  EXPECT_EQ(shared.layer().cores_under(*omm).size(), before + 1);
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

class SessionManagerTest : public ::testing::Test {
 protected:
  SessionManagerTest() : layer_(domains::build_crypto_layer()), shared_(*layer_) {}

  std::string run(SessionManager& manager, const std::string& session, const std::string& line) {
    std::ostringstream out;
    manager.execute(session, line, out);
    return out.str();
  }

  std::unique_ptr<dsl::DesignSpaceLayer> layer_;
  SharedLayer shared_;
};

TEST_F(SessionManagerTest, CreatesOnFirstUseAndExecutes) {
  SessionManager manager(shared_);
  const std::string output = run(manager, "alice", cat("open ", kOmm));
  EXPECT_NE(output.find("session at Operator.Modular.Multiplier"), std::string::npos) << output;
  EXPECT_EQ(manager.session_count(), 1u);
  EXPECT_EQ(manager.stats().created, 1u);
  EXPECT_NE(run(manager, "alice", "req EffectiveOperandLength 768").find("ok; scope"),
            std::string::npos);
}

TEST_F(SessionManagerTest, SessionsAreIsolated) {
  SessionManager manager(shared_);
  run(manager, "alice", cat("open ", kOmm));
  run(manager, "alice", "req EffectiveOperandLength 768");
  run(manager, "bob", cat("open ", kOmm));
  // bob's report must not contain alice's requirement.
  const std::string bob_report = run(manager, "bob", "report");
  EXPECT_EQ(bob_report.find("EffectiveOperandLength"), std::string::npos) << bob_report;
}

TEST_F(SessionManagerTest, QuitClosesTheSession) {
  SessionManager manager(shared_);
  run(manager, "alice", cat("open ", kOmm));
  EXPECT_EQ(run(manager, "alice", "quit"), "closed\n");
  EXPECT_EQ(manager.session_count(), 0u);
  EXPECT_EQ(manager.stats().closed, 1u);
}

TEST_F(SessionManagerTest, CommandErrorsAreReportedNotThrown) {
  SessionManager manager(shared_);
  std::ostringstream out;
  const auto status = manager.execute("alice", "candidates", out);
  EXPECT_EQ(status, dsl::ShellEngine::Status::kError);
  EXPECT_NE(out.str().find("error: no session"), std::string::npos) << out.str();
}

TEST_F(SessionManagerTest, EvictsLeastRecentlyUsedAtCapacity) {
  SessionManager::Options options;
  options.max_sessions = 2;
  SessionManager manager(shared_, options);
  run(manager, "a", cat("open ", kOmm));
  run(manager, "b", cat("open ", kOmm));
  run(manager, "c", cat("open ", kOmm));  // evicts "a" (LRU)
  EXPECT_EQ(manager.session_count(), 2u);
  EXPECT_EQ(manager.stats().evicted, 1u);
  const auto names = manager.session_names();
  EXPECT_EQ(names, (std::vector<std::string>{"b", "c"}));
}

TEST_F(SessionManagerTest, EvictIdleKeepsTheMostRecent) {
  SessionManager manager(shared_);
  run(manager, "a", cat("open ", kOmm));
  run(manager, "b", cat("open ", kOmm));
  run(manager, "c", cat("open ", kOmm));
  EXPECT_EQ(manager.evict_idle(1), 2u);
  EXPECT_EQ(manager.session_names(), std::vector<std::string>{"c"});
}

TEST_F(SessionManagerTest, MigratesAcrossWriterEpochPreservingState) {
  SessionManager manager(shared_);
  run(manager, "alice", cat("open ", kOmm));
  run(manager, "alice", "req EffectiveOperandLength 768");
  run(manager, "alice", "decide ImplementationStyle Hardware");
  const std::string before = run(manager, "alice", "report");

  shared_.write([](dsl::DesignSpaceLayer&) {});  // epoch bump only

  const std::string after = run(manager, "alice", "report");
  EXPECT_EQ(after, before);
  EXPECT_EQ(manager.stats().migrations, 1u);
  EXPECT_EQ(manager.stats().migration_failures, 0u);
}

TEST_F(SessionManagerTest, MigrationSeesCatalogUpdates) {
  SessionManager manager(shared_);
  run(manager, "alice", cat("open ", kOmm));
  const std::string before = run(manager, "alice", "req EffectiveOperandLength 8");
  shared_.write([](dsl::DesignSpaceLayer& layer) {
    dsl::Core core("hot_new_core", kOmm);
    core.bind(domains::kImplStyle, dsl::Value::text("Hardware"))
        .bind(domains::kSliceWidth, dsl::Value::number(8));
    core.set_metric(domains::kMetricArea, 99.0).set_metric(domains::kMetricWidth, 8);
    layer.add_library("late-provider").add(std::move(core));
  });
  // Same query after migration: one more candidate (the new core).
  const std::string after = run(manager, "alice", "retract EffectiveOperandLength");
  const std::string requery = run(manager, "alice", "req EffectiveOperandLength 8");
  EXPECT_NE(before, requery);
  EXPECT_EQ(manager.stats().migrations, 1u);
}

TEST_F(SessionManagerTest, FailedMigrationSurfacesAndLeavesFreshSession) {
  SessionManager manager(shared_);
  run(manager, "alice", cat("open ", kOmm));
  run(manager, "alice", "decide ImplementationStyle Hardware");

  // A new constraint that vetoes the already-decided option: the journal
  // no longer replays, so migration must fail loudly.
  shared_.write([](dsl::DesignSpaceLayer& layer) {
    layer.add_constraint(dsl::ConsistencyConstraint::inconsistent_when(
        "CCX", "hardware withdrawn by provider", {},
        {dsl::PropertyPath::parse(cat(domains::kImplStyle, "@", kOmm))},
        {dsl::PredicateAtom::equals(domains::kImplStyle, dsl::Value::text("Hardware"))}));
  });

  std::ostringstream out;
  const auto status = manager.execute("alice", "report", out);
  EXPECT_EQ(status, dsl::ShellEngine::Status::kError);
  EXPECT_NE(out.str().find("could not be migrated"), std::string::npos) << out.str();
  EXPECT_EQ(manager.stats().migration_failures, 1u);
  // The session survives, empty, at the new epoch: it can be re-opened.
  EXPECT_NE(run(manager, "alice", cat("open ", kOmm)).find("session at"), std::string::npos);
}

// ---------------------------------------------------------------------------
// RequestExecutor
// ---------------------------------------------------------------------------

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : layer_(domains::build_crypto_layer()), shared_(*layer_), manager_(shared_) {}

  Request make(std::uint64_t id, const std::string& session, const std::string& command) {
    Request request;
    request.id = id;
    request.session = session;
    request.command = command;
    return request;
  }

  std::unique_ptr<dsl::DesignSpaceLayer> layer_;
  SharedLayer shared_;
  SessionManager manager_;
};

TEST_F(ExecutorTest, ExecutesAndInvokesCallback) {
  RequestExecutor executor(manager_);
  std::atomic<int> done{0};
  std::string output;
  std::mutex output_lock;
  executor.submit(make(1, "s1", cat("open ", kOmm)), [&](Response response) {
    std::lock_guard<std::mutex> guard(output_lock);
    output = response.output;
    EXPECT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.id, 1u);
    EXPECT_GT(response.latency_us, 0.0);
    ++done;
  });
  executor.drain();
  EXPECT_EQ(done.load(), 1);
  EXPECT_NE(output.find("session at"), std::string::npos);
  EXPECT_EQ(executor.stats().executed, 1u);
  const auto timings = executor.telemetry().timings();
  EXPECT_EQ(timings.at("request").count, 1u);
  EXPECT_EQ(timings.at("request.open").count, 1u);
}

TEST_F(ExecutorTest, BackpressureRejectsWhenFullThenRecovers) {
  RequestExecutor::Options options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.injected_latency_us = 100000.0;  // hold the slot long enough to observe
  RequestExecutor executor(manager_, options);
  std::atomic<int> completed{0};
  const auto count = [&](Response) { ++completed; };

  ASSERT_TRUE(executor.try_submit(make(1, "s1", "help"), count));
  // The slot is taken until request 1 finishes its injected 100ms —
  // an immediate second submit must be refused, not dropped silently.
  EXPECT_FALSE(executor.try_submit(make(2, "s1", "help"), count));
  EXPECT_EQ(executor.stats().rejected, 1u);

  executor.drain();
  EXPECT_TRUE(executor.try_submit(make(3, "s1", "help"), count));
  executor.drain();
  EXPECT_EQ(completed.load(), 2);
  EXPECT_EQ(executor.stats().executed, 2u);
  EXPECT_EQ(executor.stats().rejected, 1u);
}

TEST_F(ExecutorTest, PreservesPerSessionOrderAcrossWorkers) {
  RequestExecutor::Options options;
  options.workers = 4;
  options.queue_capacity = 512;
  RequestExecutor executor(manager_, options);
  std::atomic<int> errors{0};
  const auto check = [&](Response response) {
    if (response.status != ResponseStatus::kOk) ++errors;
  };
  // req/retract pairs only succeed in exact submission order: a reordered
  // retract hits "no value" and a reordered req double-binds nothing —
  // any interleaving violation shows up as an error response.
  std::uint64_t id = 0;
  executor.submit(make(++id, "s1", cat("open ", kOmm)), check);
  for (int i = 0; i < 40; ++i) {
    executor.submit(make(++id, "s1", "req EffectiveOperandLength 768"), check);
    executor.submit(make(++id, "s1", "retract EffectiveOperandLength"), check);
  }
  executor.drain();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(executor.stats().executed, 81u);
}

TEST_F(ExecutorTest, SubmitAfterShutdownThrows) {
  RequestExecutor executor(manager_);
  executor.shutdown();
  EXPECT_FALSE(executor.try_submit(make(1, "s1", "help"), [](Response) {}));
  EXPECT_THROW(executor.submit(make(2, "s1", "help"), [](Response) {}), ServiceError);
}

TEST_F(ExecutorTest, ShutdownFencesQueueAgainstBlockedProducers) {
  // Regression: shutdown() used to wait for an empty queue *before*
  // refusing new work, so a producer blocked in submit() could keep the
  // queue occupied and shutdown() never returned. The fence must come
  // first: the blocked producer throws, accepted work still completes.
  RequestExecutor::Options options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.injected_latency_us = 20000.0;  // keep the single slot occupied
  RequestExecutor executor(manager_, options);
  std::atomic<std::uint64_t> completed{0};
  const auto count = [&](Response) { ++completed; };
  std::atomic<bool> threw{false};
  std::thread producer([&] {
    std::uint64_t id = 0;
    try {
      for (;;) executor.submit(make(++id, "s1", "help"), count);
    } catch (const ServiceError&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  executor.shutdown();
  producer.join();
  EXPECT_TRUE(threw.load());
  const auto stats = executor.stats();
  EXPECT_EQ(stats.executed, stats.accepted);  // nothing accepted was dropped
  EXPECT_EQ(completed.load(), stats.executed);
  EXPECT_GE(stats.executed, 1u);
}

// ---------------------------------------------------------------------------
// batch runner
// ---------------------------------------------------------------------------

TEST_F(ExecutorTest, BatchRunsInSubmissionOrderWithDirectives) {
  RequestExecutor::Options options;
  options.workers = 4;
  RequestExecutor executor(manager_, options);
  std::istringstream in(cat("s1 open ", kOmm,
                            "\n"
                            "s2 open ", kOmm,
                            "\n"
                            "# a comment\n"
                            "!sessions\n"
                            "s1 quit\n"
                            "!sessions\n"));
  std::ostringstream out;
  const auto summary = service::run_batch(manager_, executor, in, out);
  EXPECT_EQ(summary.requests, 3u);
  EXPECT_EQ(summary.errors, 0u);
  const std::string text = out.str();
  const auto pos1 = text.find("== 1 s1 ok");
  const auto pos2 = text.find("== 2 s2 ok");
  const auto list1 = text.find("  s1\n  s2\n");  // first !sessions: both live
  const auto pos3 = text.find("== 3 s1 ok");
  ASSERT_NE(pos1, std::string::npos) << text;
  ASSERT_NE(pos2, std::string::npos) << text;
  ASSERT_NE(list1, std::string::npos) << text;
  ASSERT_NE(pos3, std::string::npos) << text;
  EXPECT_LT(pos1, pos2);
  EXPECT_LT(pos2, list1);
  EXPECT_LT(list1, pos3);
  // Second !sessions sees only s2 (s1 quit closed it).
  EXPECT_NE(text.find("closed\n", pos3), std::string::npos) << text;
  EXPECT_EQ(text.find("  s1\n", pos3), std::string::npos) << text;
  EXPECT_NE(text.find("  s2\n", pos3), std::string::npos) << text;
}

TEST_F(ExecutorTest, ServeDirectiveWithRequestsInFlightDoesNotDeadlock) {
  // Regression: run_serve used to take the output lock and then drain
  // inside the directive handler — but in-flight requests deliver their
  // responses under that same lock, so a directive issued while requests
  // were executing deadlocked the service. The injected latency below
  // guarantees both opens are still in flight when '!stats' is read.
  RequestExecutor::Options options;
  options.workers = 2;
  options.injected_latency_us = 20000.0;
  RequestExecutor executor(manager_, options);
  std::istringstream in(cat("s1 open ", kOmm, "\ns2 open ", kOmm, "\n!stats\ns1 help\n"));
  std::ostringstream out;
  const auto summary = service::run_serve(manager_, executor, in, out);
  EXPECT_EQ(summary.requests, 3u);
  EXPECT_EQ(summary.errors, 0u);
  const std::string text = out.str();
  // The directive is a synchronization point: both opens completed (and
  // printed) before the stats snapshot, which therefore counts them.
  const auto stats_pos = text.find("executor: accepted=2 executed=2");
  ASSERT_NE(stats_pos, std::string::npos) << text;
  EXPECT_LT(text.find("== 1 s1 ok"), stats_pos) << text;
  EXPECT_LT(text.find("== 2 s2 ok"), stats_pos) << text;
}

TEST_F(ExecutorTest, BatchReportsMalformedLines) {
  RequestExecutor executor(manager_);
  std::istringstream in("lonely\n");
  std::ostringstream out;
  const auto summary = service::run_batch(manager_, executor, in, out);
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_NE(out.str().find("== 1 - error code=invalid-request"), std::string::npos) << out.str();
}

TEST_F(ExecutorTest, ServeCountsExecutorDeliveredRejectionsInSummary) {
  // Regression: run_serve's deliver callback only bumped summary.errors,
  // so rejections the EXECUTOR delivered (queue-wait shedding, busy
  // sessions, degraded layer) vanished from BatchSummary.rejected — only
  // the front end's own queue-full path was counted, and serve and batch
  // summaries disagreed for the same input. One worker stuck on a 30ms
  // request with a 1ms queue-wait budget sheds everything queued behind
  // it; every shed must land in `rejected`.
  RequestExecutor::Options options;
  options.workers = 1;
  options.injected_latency_us = 30000.0;
  options.max_queue_wait_ms = 1.0;
  RequestExecutor executor(manager_, options);
  std::istringstream in("s1 help\ns1 help\ns1 help\ns1 help\n");
  std::ostringstream out;
  const auto summary = service::run_serve(manager_, executor, in, out);
  EXPECT_EQ(summary.requests, 4u);
  const auto stats = executor.stats();
  EXPECT_GE(stats.shed, 1u);
  EXPECT_EQ(summary.rejected, stats.shed) << out.str();
  EXPECT_EQ(summary.errors, 0u) << out.str();
  EXPECT_NE(out.str().find("code=overloaded"), std::string::npos) << out.str();
}

TEST_F(ExecutorTest, BatchCountsDeadlineExpiredResponsesInSummary) {
  // Regression: run_batch's flush counted kError and kRejected terminals
  // but dropped kDeadlineExceeded on the floor — a batch whose
  // deadline'd requests all expired exited 0 with a clean summary. The
  // first request holds the lone worker 30ms, so the second's 1ms
  // deadline is long gone at dequeue; expired deadlines are terminal
  // (not retryable), so the client delivers them straight through.
  RequestExecutor::Options options;
  options.workers = 1;
  options.injected_latency_us = 30000.0;
  RequestExecutor executor(manager_, options);
  std::istringstream in("s1 help\ns1@1 help\n");
  std::ostringstream out;
  const auto summary = service::run_batch(manager_, executor, in, out);
  EXPECT_EQ(summary.requests, 2u);
  EXPECT_EQ(summary.deadline_expired, 1u) << out.str();
  EXPECT_EQ(summary.errors, 0u) << out.str();
  EXPECT_EQ(summary.rejected, 0u) << out.str();
  EXPECT_EQ(executor.stats().deadline_expired, 1u);
  EXPECT_NE(out.str().find("== 2 s1 deadline-exceeded"), std::string::npos) << out.str();
}

// ---------------------------------------------------------------------------
// fault tolerance: deadlines, degradation, failpoints, retrying client
// ---------------------------------------------------------------------------

/// Disarms every failpoint when a test exits, pass or fail.
struct FailpointGuard {
  ~FailpointGuard() { support::FailpointRegistry::instance().reset(); }
  support::FailpointRegistry& registry = support::FailpointRegistry::instance();
};

TEST_F(ExecutorTest, ExpiredAtDequeueAnswersWithoutTouchingASession) {
  RequestExecutor executor(manager_);
  Request request = make(1, "ghost", cat("open ", kOmm));
  request.deadline_ms = 1e-3;  // 1µs: expired long before any worker wakes
  Response terminal;
  executor.submit(request, [&](Response response) { terminal = std::move(response); });
  executor.drain();
  EXPECT_EQ(terminal.status, ResponseStatus::kDeadlineExceeded);
  EXPECT_EQ(terminal.code, ErrorCode::kDeadlineExceeded);
  EXPECT_NE(terminal.output.find("deadline expired"), std::string::npos) << terminal.output;
  // The cheap path: no session was created or acquired, and the answer
  // came back in queue-pop time, not command time.
  EXPECT_EQ(manager_.stats().created, 0u);
  EXPECT_EQ(manager_.stats().commands, 0u);
  EXPECT_LT(terminal.latency_us, 50000.0);
  const auto stats = executor.stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.executed, 1u);  // completed — with a deadline verdict
}

TEST_F(ExecutorTest, MidSweepCancellationLeavesSessionStateUnchanged) {
  FailpointGuard failpoints;
  RequestExecutor executor(manager_);
  std::atomic<int> errors{0};
  const auto expect_ok = [&](Response response) {
    if (response.status != ResponseStatus::kOk) ++errors;
  };
  // Twin sessions: identical histories, so any state damage from the
  // cancelled request shows up as a report divergence.
  std::uint64_t id = 0;
  for (const char* session : {"s1", "s2"}) {
    executor.submit(make(++id, session, cat("open ", kOmm)), expect_ok);
    executor.submit(make(++id, session, "req EffectiveOperandLength 768"), expect_ok);
    // open/req print the candidate count, warming the memo; a retract
    // prints none, so the doomed `candidates` below starts a cold sweep
    // and reaches the sweep failpoint.
    executor.submit(make(++id, session, "req PowerBudget 1000000"), expect_ok);
    executor.submit(make(++id, session, "retract PowerBudget"), expect_ok);
  }
  executor.drain();
  ASSERT_EQ(errors.load(), 0);

  // Stall the candidates sweep past the request's deadline: the first
  // checkpoint after the injected delay observes expiry and unwinds.
  ASSERT_TRUE(failpoints.registry.arm_spec("dsl.candidates.sweep=delay:80:1"));
  Request doomed = make(++id, "s1", "candidates");
  doomed.deadline_ms = 15;
  Response terminal;
  executor.submit(doomed, [&](Response response) { terminal = std::move(response); });
  executor.drain();
  EXPECT_EQ(terminal.status, ResponseStatus::kDeadlineExceeded) << terminal.output;
  EXPECT_EQ(terminal.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(failpoints.registry.fires("dsl.candidates.sweep"), 1u);
  EXPECT_EQ(executor.stats().deadline_expired, 1u);

  // Oracle: the cancelled session answers every query exactly like its
  // untouched twin.
  std::map<std::uint64_t, std::string> outputs;
  std::mutex outputs_lock;
  const auto collect = [&](Response response) {
    std::lock_guard<std::mutex> guard(outputs_lock);
    outputs[response.id] = std::move(response.output);
  };
  executor.submit(make(100, "s1", "report"), collect);
  executor.submit(make(101, "s2", "report"), collect);
  executor.submit(make(102, "s1", "candidates"), collect);
  executor.submit(make(103, "s2", "candidates"), collect);
  executor.drain();
  EXPECT_EQ(outputs.at(100), outputs.at(101));
  EXPECT_EQ(outputs.at(102), outputs.at(103));
  EXPECT_FALSE(outputs.at(102).empty());
}

TEST_F(SessionManagerTest, DegradedModeFailsFastBehindAStalledWriter) {
  SessionManager::Options options;
  options.degraded_after_ms = 20;
  SessionManager manager(shared_, options);
  run(manager, "alice", cat("open ", kOmm));

  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    shared_.write([&](dsl::DesignSpaceLayer&) {
      writer_in = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    });
  });
  while (!writer_in) std::this_thread::yield();

  // The writer holds the exclusive lock: a degraded-mode execute waits
  // its 20ms budget, then fails fast as retryable instead of queueing.
  const auto start = std::chrono::steady_clock::now();
  std::ostringstream out;
  EXPECT_THROW(manager.execute("alice", "report", out), UnavailableError);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(waited_ms, 250.0);  // did not ride out the full writer stall
  EXPECT_GT(shared_.writer_stall_ms(), 0.0);
  writer.join();

  // Once the writer publishes, the same session works again.
  EXPECT_NE(run(manager, "alice", "report").find("Operator"), std::string::npos);
  EXPECT_EQ(shared_.writer_stall_ms(), 0.0);
}

TEST_F(ExecutorTest, ShedsRequestsThatOutwaitedTheQueueLimit) {
  RequestExecutor::Options options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.injected_latency_us = 30000.0;  // 30ms per request
  options.max_queue_wait_ms = 5.0;
  RequestExecutor executor(manager_, options);
  std::vector<Response> responses(4);
  std::uint64_t id = 0;
  for (auto& slot : responses) {
    const std::uint64_t this_id = ++id;
    executor.submit(make(this_id, cat("s", this_id), "help"),
                    [&slot](Response response) { slot = std::move(response); });
  }
  executor.drain();
  // The first request waits ~0; everything behind it waits 30ms+ and is
  // shed as retryable overload with a back-off hint.
  EXPECT_EQ(responses[0].status, ResponseStatus::kOk) << responses[0].output;
  const auto stats = executor.stats();
  EXPECT_GE(stats.shed, 2u);
  EXPECT_EQ(stats.executed, 4u);
  for (const auto& response : responses) {
    if (response.status != ResponseStatus::kRejected) continue;
    EXPECT_EQ(response.code, ErrorCode::kOverloaded);
    EXPECT_GT(response.retry_after_ms, 0.0);
    EXPECT_NE(response.output.find("shed after"), std::string::npos) << response.output;
  }
}

TEST_F(SessionManagerTest, MigrationFailpointForcesTheFailurePath) {
  FailpointGuard failpoints;
  SessionManager manager(shared_);
  run(manager, "alice", cat("open ", kOmm));
  run(manager, "alice", "decide ImplementationStyle Hardware");
  shared_.write([](dsl::DesignSpaceLayer&) {});  // epoch bump

  ASSERT_TRUE(failpoints.registry.arm_spec("service.session.migrate=error:1"));
  std::ostringstream out;
  const auto status = manager.execute("alice", "report", out);
  EXPECT_EQ(status, dsl::ShellEngine::Status::kError);
  EXPECT_NE(out.str().find("could not be migrated"), std::string::npos) << out.str();
  EXPECT_EQ(manager.stats().migration_failures, 1u);
  // Failpoint spent: the session re-opens cleanly at the new epoch.
  EXPECT_NE(run(manager, "alice", cat("open ", kOmm)).find("session at"), std::string::npos);
  EXPECT_EQ(manager.stats().migration_failures, 1u);
}

TEST_F(SessionManagerTest, EvictionFailpointAbortsAcquireWithoutDamage) {
  FailpointGuard failpoints;
  SessionManager::Options options;
  options.max_sessions = 1;
  SessionManager manager(shared_, options);
  run(manager, "a", cat("open ", kOmm));

  ASSERT_TRUE(failpoints.registry.arm_spec("service.session.evict=error:1"));
  std::ostringstream out;
  EXPECT_THROW(manager.execute("b", "help", out), FailpointError);
  // The aborted acquire changed nothing: the victim survives, no session
  // was created for "b", the eviction counter is untouched.
  EXPECT_EQ(manager.session_names(), std::vector<std::string>{"a"});
  EXPECT_EQ(manager.stats().evicted, 0u);
  EXPECT_EQ(manager.stats().created, 1u);

  // Once the failpoint is spent the eviction goes through as usual.
  run(manager, "b", "help");
  EXPECT_EQ(manager.session_names(), std::vector<std::string>{"b"});
  EXPECT_EQ(manager.stats().evicted, 1u);
}

TEST_F(ExecutorTest, ClientRetriesBackpressureToCompletion) {
  RequestExecutor::Options options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.injected_latency_us = 5000.0;
  RequestExecutor executor(manager_, options);
  ServiceClient::Options client_options;
  client_options.max_attempts = 10;
  client_options.base_backoff_ms = 2.0;
  ServiceClient client(executor, client_options);

  constexpr int kRequests = 6;
  std::atomic<int> ok{0}, not_ok{0};
  for (int i = 0; i < kRequests; ++i) {
    client.submit(make(static_cast<std::uint64_t>(i + 1), "s1", "help"), [&](Response response) {
      (response.status == ResponseStatus::kOk ? ok : not_ok)++;
    });
  }
  client.drain();
  // A 1-slot queue cannot take 6 instant submissions: the client must
  // have retried, and every request still lands exactly one ok.
  EXPECT_EQ(ok.load(), kRequests);
  EXPECT_EQ(not_ok.load(), 0);
  const auto stats = client.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.delivered, static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.exhausted, 0u);
  client.shutdown();
}

TEST_F(ExecutorTest, ClientDeliversTerminalFailuresWithoutRetrying) {
  RequestExecutor executor(manager_);
  ServiceClient client(executor);
  Response terminal;
  client.submit(make(1, "s1", "definitely-not-a-command"),
                [&](Response response) { terminal = std::move(response); });
  client.drain();
  EXPECT_EQ(terminal.status, ResponseStatus::kError);
  EXPECT_EQ(terminal.code, ErrorCode::kCommandFailed);
  EXPECT_EQ(client.stats().retries, 0u);
  client.shutdown();
}

TEST_F(ExecutorTest, ClientExhaustsRetriesAgainstAStoppedExecutor) {
  RequestExecutor executor(manager_);
  executor.shutdown();
  ServiceClient::Options client_options;
  client_options.max_attempts = 3;
  client_options.base_backoff_ms = 1.0;
  client_options.max_backoff_ms = 2.0;
  ServiceClient client(executor, client_options);
  Response terminal;
  client.submit(make(1, "s1", "help"), [&](Response response) { terminal = std::move(response); });
  client.drain();
  EXPECT_EQ(terminal.status, ResponseStatus::kRejected);
  EXPECT_EQ(terminal.code, ErrorCode::kOverloaded);
  const auto stats = client.stats();
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.exhausted, 1u);
  EXPECT_EQ(stats.retries, 2u);  // attempts 2 and 3
  client.shutdown();
}

TEST(ClientBackoff, FirstRetryFloorIsTheConfiguredBase) {
  // Regression: the back-off exponent was taken from `attempt` AFTER the
  // first submission had already bumped it, so the first retry slept
  // around base*2 and the configured base delay was never used. The
  // floor before the N-th retry is base * 2^(N-1), capped.
  ServiceClient::Options options;
  options.base_backoff_ms = 2.0;
  options.max_backoff_ms = 100.0;
  EXPECT_DOUBLE_EQ(ServiceClient::backoff_floor_ms(options, 1), 2.0);
  EXPECT_DOUBLE_EQ(ServiceClient::backoff_floor_ms(options, 2), 4.0);
  EXPECT_DOUBLE_EQ(ServiceClient::backoff_floor_ms(options, 3), 8.0);
  EXPECT_DOUBLE_EQ(ServiceClient::backoff_floor_ms(options, 6), 64.0);
  EXPECT_DOUBLE_EQ(ServiceClient::backoff_floor_ms(options, 7), 100.0);  // 2*2^6 = 128, capped
  EXPECT_DOUBLE_EQ(ServiceClient::backoff_floor_ms(options, 40), 100.0);  // no shift overflow
}

TEST_F(ExecutorTest, ClientFirstRetryDelayMatchesThePinnedJitter) {
  // End-to-end check of the same off-by-one: with the jitter stream
  // pinned, the single retry's delay is exactly floor * (0.5 + j0) where
  // the floor is base_backoff_ms (a fresh executor's retry-after hint is
  // ~1ms and never wins). Pre-fix the floor was 2x base, which pushes
  // the measured wall time past the upper bound below for any jitter.
  FailpointGuard failpoints;
  RequestExecutor executor(manager_);
  ServiceClient::Options options;
  options.max_attempts = 2;
  options.base_backoff_ms = 400.0;
  options.max_backoff_ms = 400.0;
  ServiceClient client(executor, options);
  Rng pinned(options.jitter_seed);
  const double expected_ms = options.base_backoff_ms * (0.5 + pinned.next_double());

  ASSERT_TRUE(failpoints.registry.arm_spec("service.executor.enqueue=error:1"));
  const auto start = std::chrono::steady_clock::now();
  std::atomic<double> elapsed_ms{0.0};
  std::atomic<int> status{-1};
  client.submit(make(1, "s1", "help"), [&](Response response) {
    elapsed_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                           start)
                     .count();
    status = static_cast<int>(response.status);
  });
  client.drain();
  client.shutdown();
  EXPECT_EQ(status.load(), static_cast<int>(ResponseStatus::kOk));
  // Lower bound: the retry cannot mature before its due time. Upper
  // bound: generous scheduling slack, but well under the pre-fix wall
  // time of 2 * expected_ms (>= expected_ms + 400ms).
  EXPECT_GE(elapsed_ms.load(), expected_ms - 1.0);
  EXPECT_LE(elapsed_ms.load(), expected_ms + 150.0);
}

TEST_F(ExecutorTest, EnqueueFailpointReadsAsBackpressure) {
  FailpointGuard failpoints;
  RequestExecutor executor(manager_);
  ASSERT_TRUE(failpoints.registry.arm_spec("service.executor.enqueue=error:1"));
  EXPECT_FALSE(executor.try_submit(make(1, "s1", "help"), [](Response) {}));
  EXPECT_EQ(executor.stats().rejected, 1u);
  // Spent: the next submit is accepted and completes normally.
  std::atomic<int> done{0};
  ASSERT_TRUE(executor.try_submit(make(2, "s1", "help"), [&](Response) { ++done; }));
  executor.drain();
  EXPECT_EQ(done.load(), 1);
}

TEST_F(ExecutorTest, DequeueFailpointBecomesAnInternalErrorResponse) {
  FailpointGuard failpoints;
  RequestExecutor executor(manager_);
  ASSERT_TRUE(failpoints.registry.arm_spec("service.executor.dequeue=error:1"));
  Response terminal;
  executor.submit(make(1, "s1", "help"), [&](Response response) { terminal = std::move(response); });
  executor.drain();
  EXPECT_EQ(terminal.status, ResponseStatus::kError);
  EXPECT_EQ(terminal.code, ErrorCode::kInternal);
  EXPECT_NE(terminal.output.find("failpoint"), std::string::npos) << terminal.output;
  // The worker survived the injected fault and serves the next request.
  std::atomic<int> done{0};
  executor.submit(make(2, "s1", "help"), [&](Response) { ++done; });
  executor.drain();
  EXPECT_EQ(done.load(), 1);
}

TEST_F(ExecutorTest, FailpointDirectiveArmsAndLists) {
  FailpointGuard failpoints;
  RequestExecutor executor(manager_);
  std::istringstream in(
      "!failpoint\n"
      "!failpoint service.executor.dequeue=error:1\n"
      "!failpoint\n"
      "!failpoint bogus-spec\n");
  std::ostringstream out;
  service::run_serve(manager_, executor, in, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("no failpoints armed"), std::string::npos) << text;
  EXPECT_NE(text.find("armed service.executor.dequeue=error:1"), std::string::npos) << text;
  EXPECT_NE(text.find("service.executor.dequeue mode=error"), std::string::npos) << text;
  EXPECT_NE(text.find("error: "), std::string::npos) << text;
}

TEST_F(ExecutorTest, WriteFailureStillPublishesAnEpochAndReprimes) {
  FailpointGuard failpoints;
  ASSERT_TRUE(failpoints.registry.arm_spec("service.shared_layer.prime=error:1"));
  const std::uint64_t before = shared_.epoch();
  EXPECT_THROW(shared_.write([](dsl::DesignSpaceLayer& layer) {
                 dsl::Core core("late_core", kOmm);
                 core.bind(domains::kImplStyle, dsl::Value::text("Hardware"));
                 core.set_metric(domains::kMetricArea, 7.0);
                 layer.add_library("chaos-provider").add(std::move(core));
               }),
               FailpointError);
  // The failed write still published (conservative: sessions migrate off
  // the suspect epoch) and the recovery re-prime ran, so reads are safe.
  EXPECT_EQ(shared_.epoch(), before + 1);
  std::ostringstream out;
  EXPECT_EQ(manager_.execute("reader", cat("open ", kOmm), out), dsl::ShellEngine::Status::kOk);
  EXPECT_EQ(manager_.execute("reader", "candidates", out), dsl::ShellEngine::Status::kOk);
}

}  // namespace
}  // namespace dslayer
