// Tests for end-to-end request tracing (support/trace) and the metrics
// exposition built on it (service/metrics):
//
//   * Trace span mechanics — nesting, parents, retroactive spans,
//     finish() force-closing and stamping the total;
//   * TraceScope install/restore/suppression and SpanTimer null-safety;
//   * deterministic sampling (pinned seed => pinned sampled set);
//   * Tracer lifecycle — disabled until configured, ring retention,
//     reset();
//   * the slow-request flight recorder — records REGARDLESS of the
//     sampling decision, bounded in memory and on disk, and catches
//     every over-threshold request when a failpoint delay stalls the
//     executor;
//   * trace-id propagation — across RequestExecutor strand hops (the
//     queue.wait / execute spans land on the request's own trace, and
//     the sweep span nests under execute);
//   * the `!metrics` Prometheus rendering (format details are checked
//     exhaustively by scripts/check_metrics_format.py — here we pin the
//     load-bearing series and the "# EOF" framing terminator).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "domains/crypto.hpp"
#include "service/batch_runner.hpp"
#include "service/metrics.hpp"
#include "service/request_executor.hpp"
#include "service/session_manager.hpp"
#include "service/shared_layer.hpp"
#include "support/failpoint.hpp"
#include "support/trace.hpp"

namespace dslayer::trace {
namespace {

using Clock = Trace::Clock;

/// Every test starts and ends with a disabled, empty tracer: the tracer
/// is a process-global singleton shared by all tests in this binary.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Tracer::instance().reset(); }
  void TearDown() override {
    Tracer::instance().reset();
    support::FailpointRegistry::instance().reset();
  }
};

// ---------------------------------------------------------------------------
// span mechanics
// ---------------------------------------------------------------------------

TEST_F(TraceTest, SpansNestUnderTheOpenStack) {
  Trace trace(1, true, "s1", 7, Clock::now());
  const auto ingress = trace.open_span(SpanKind::kIngress);
  const auto parse = trace.open_span(SpanKind::kParse, "line");
  trace.close_span(parse);
  trace.close_span(ingress);
  const auto execute = trace.open_span(SpanKind::kExecute, "candidates");
  const auto sweep = trace.open_span(SpanKind::kSweep);
  trace.close_span(sweep);
  trace.close_span(execute);

  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[ingress].kind, SpanKind::kIngress);
  EXPECT_EQ(spans[ingress].parent, kNoParent);
  EXPECT_EQ(spans[parse].parent, ingress);      // nested while ingress was open
  EXPECT_EQ(spans[execute].parent, kNoParent);  // ingress closed by then
  EXPECT_EQ(spans[sweep].parent, execute);
  EXPECT_EQ(spans[parse].detail, "line");
  for (const Span& span : spans) EXPECT_FALSE(span.open);
}

TEST_F(TraceTest, RetroactiveSpansDoNotDisturbNesting) {
  const auto origin = Clock::now();
  Trace trace(1, true, "s1", 7, origin);
  const auto execute = trace.open_span(SpanKind::kExecute);
  // queue.wait is recorded after the fact from the executor's stamps; it
  // must not become the parent of anything subsequently opened.
  trace.add_span(SpanKind::kQueueWait, origin, origin + std::chrono::milliseconds(3));
  const auto sweep = trace.open_span(SpanKind::kSweep);
  trace.close_span(sweep);
  trace.close_span(execute);

  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].kind, SpanKind::kQueueWait);
  EXPECT_EQ(spans[1].parent, kNoParent);
  EXPECT_NEAR(static_cast<double>(spans[1].duration_ns), 3.0e6, 1.0e3);
  EXPECT_EQ(spans[2].kind, SpanKind::kSweep);
  EXPECT_EQ(spans[2].parent, execute);  // still nests under execute
}

TEST_F(TraceTest, FinishForceClosesOpenSpansAndStampsTheTotal) {
  Tracer& tracer = Tracer::instance();
  tracer.configure({.sample_every = 1});
  const auto origin = Clock::now() - std::chrono::milliseconds(10);
  const auto trace = tracer.start("s1", 1, origin);
  ASSERT_NE(trace, nullptr);
  trace->open_span(SpanKind::kExecute);  // never closed by the "crash"
  EXPECT_FALSE(trace->finished());
  EXPECT_EQ(trace->total_ms(), 0.0);

  tracer.finish(trace);
  EXPECT_TRUE(trace->finished());
  EXPECT_GE(trace->total_ms(), 10.0);  // origin was 10ms in the past
  for (const Span& span : trace->spans()) EXPECT_FALSE(span.open);

  // finish() is idempotent: the second call neither re-stamps nor
  // double-counts.
  const double total = trace->total_ms();
  tracer.finish(trace);
  EXPECT_EQ(trace->total_ms(), total);
  EXPECT_EQ(tracer.stats().finished, 1u);
}

TEST_F(TraceTest, JsonlRenderingContainsTheWholeBreakdown) {
  Tracer& tracer = Tracer::instance();
  tracer.configure({.sample_every = 1});
  const auto trace = tracer.start("sesh \"quoted\"", 9, Clock::now());
  ASSERT_NE(trace, nullptr);
  const auto span = trace->open_span(SpanKind::kQueueWait);
  trace->close_span(span);
  tracer.finish(trace);

  const std::string line = to_jsonl(*trace);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line
  EXPECT_NE(line.find("\"request\":9"), std::string::npos) << line;
  EXPECT_NE(line.find("\"sesh \\\"quoted\\\"\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"sampled\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"kind\":\"queue.wait\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"total_ms\":"), std::string::npos) << line;
}

// ---------------------------------------------------------------------------
// TraceScope / SpanTimer
// ---------------------------------------------------------------------------

TEST_F(TraceTest, TraceScopeInstallsRestoresAndSuppresses) {
  EXPECT_EQ(TraceScope::current(), nullptr);
  Trace outer(1, true, "s", 1, Clock::now());
  Trace inner(2, true, "s", 2, Clock::now());
  {
    TraceScope a(&outer);
    EXPECT_EQ(TraceScope::current(), &outer);
    {
      TraceScope b(&inner);
      EXPECT_EQ(TraceScope::current(), &inner);
    }
    EXPECT_EQ(TraceScope::current(), &outer);
    {
      TraceScope null_scope(nullptr);  // suppression, like DeadlineScope
      EXPECT_EQ(TraceScope::current(), nullptr);
    }
    EXPECT_EQ(TraceScope::current(), &outer);
  }
  EXPECT_EQ(TraceScope::current(), nullptr);
}

TEST_F(TraceTest, SpanTimerIsNullSafeAndRecordsOnDestruction) {
  { SpanTimer noop(nullptr, SpanKind::kSweep, "ignored"); }  // must not crash

  Trace trace(1, true, "s", 1, Clock::now());
  {
    SpanTimer timer(&trace, SpanKind::kSweep, "rows=64");
    EXPECT_TRUE(trace.spans()[0].open);
  }
  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].open);
  EXPECT_EQ(spans[0].detail, "rows=64");
}

// ---------------------------------------------------------------------------
// sampling
// ---------------------------------------------------------------------------

TEST_F(TraceTest, SamplingDecisionIsDeterministicAndRespectsTheRate) {
  // Pinned: the decision is a pure function of (seed, id, every).
  for (std::uint64_t id = 0; id < 200; ++id) {
    EXPECT_EQ(Tracer::sample_decision(42, id, 8), Tracer::sample_decision(42, id, 8));
    EXPECT_FALSE(Tracer::sample_decision(42, id, 0));  // 0 = never
    EXPECT_TRUE(Tracer::sample_decision(42, id, 1));   // 1 = always
  }
  // The long-run rate is close to 1-in-N (the hash is SplitMix64: the
  // bound below is ~6 sigma for 64000 draws at p=1/64).
  constexpr std::uint32_t kEvery = 64;
  constexpr std::uint64_t kDraws = 64000;
  std::uint64_t sampled = 0;
  for (std::uint64_t id = 0; id < kDraws; ++id) {
    if (Tracer::sample_decision(0x7ace5eedULL, id, kEvery)) ++sampled;
  }
  EXPECT_GT(sampled, 750u) << "way under the 1-in-64 rate";
  EXPECT_LT(sampled, 1250u) << "way over the 1-in-64 rate";

  // Different seeds pick different sets (deterministic != constant).
  std::uint64_t disagreements = 0;
  for (std::uint64_t id = 0; id < 1000; ++id) {
    if (Tracer::sample_decision(1, id, 4) != Tracer::sample_decision(2, id, 4)) ++disagreements;
  }
  EXPECT_GT(disagreements, 0u);
}

TEST_F(TraceTest, TracerIsDisabledUntilConfigured) {
  Tracer& tracer = Tracer::instance();
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.start("s1", 1, Clock::now()), nullptr);
  EXPECT_EQ(tracer.stats().started, 0u);

  tracer.configure({.sample_every = 1});
  EXPECT_TRUE(tracer.enabled());
  EXPECT_NE(tracer.start("s1", 1, Clock::now()), nullptr);

  tracer.reset();
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.start("s1", 2, Clock::now()), nullptr);
}

TEST_F(TraceTest, SampledTracesAreRetainedInRecentUpToTheRingCapacity) {
  Tracer& tracer = Tracer::instance();
  TracerConfig config;
  config.sample_every = 1;
  config.ring_capacity = 4;
  tracer.configure(config);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    const auto trace = tracer.start("s1", i + 1, Clock::now());
    ids.push_back(trace->id());
    tracer.finish(trace);
  }
  const auto recent = tracer.recent();
  ASSERT_EQ(recent.size(), 4u);  // drop-oldest at capacity
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recent[i]->id(), ids[ids.size() - 4 + i]);  // the newest four, oldest first
  }
  EXPECT_EQ(tracer.stats().ring_dropped, 6u);
  EXPECT_EQ(tracer.stats().started, 10u);
  EXPECT_EQ(tracer.stats().sampled, 10u);
}

// ---------------------------------------------------------------------------
// flight recorder
// ---------------------------------------------------------------------------

TEST_F(TraceTest, FlightRecorderCatchesSlowRequestsRegardlessOfSampling) {
  Tracer& tracer = Tracer::instance();
  TracerConfig config;
  config.sample_every = 0;  // sampling OFF entirely...
  config.slow_request_ms = 5.0;  // ...but the flight recorder is armed
  tracer.configure(config);
  ASSERT_TRUE(tracer.enabled());

  // A 20ms request (origin backdated) and a fast one.
  const auto slow = tracer.start("s1", 1, Clock::now() - std::chrono::milliseconds(20));
  ASSERT_NE(slow, nullptr);
  EXPECT_FALSE(slow->sampled());
  tracer.finish(slow);
  const auto fast = tracer.start("s1", 2, Clock::now());
  tracer.finish(fast);

  EXPECT_EQ(tracer.stats().slow, 1u);
  const auto records = tracer.flight_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].find("\"request\":1"), std::string::npos) << records[0];
  EXPECT_NE(records[0].find("\"sampled\":false"), std::string::npos) << records[0];
  // The unsampled trace stayed out of the rings — the recorder and the
  // sampler are independent sinks.
  EXPECT_TRUE(tracer.recent().empty());
}

TEST_F(TraceTest, FlightRecorderIsBoundedInMemoryAndOnDisk) {
  const std::string path = testing::TempDir() + "/trace_flight_test.jsonl";
  std::remove(path.c_str());
  Tracer& tracer = Tracer::instance();
  TracerConfig config;
  config.sample_every = 0;
  config.slow_request_ms = 1.0;
  config.flight_capacity = 2;
  config.flight_path = path;
  tracer.configure(config);

  for (int i = 1; i <= 5; ++i) {
    const auto trace = tracer.start("s1", i, Clock::now() - std::chrono::milliseconds(10));
    tracer.finish(trace);
  }
  // Memory keeps the most recent 2; the excess counts as dropped.
  const auto records = tracer.flight_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0].find("\"request\":4"), std::string::npos) << records[0];
  EXPECT_NE(records[1].find("\"request\":5"), std::string::npos) << records[1];
  EXPECT_EQ(tracer.stats().flight_dropped, 3u);
  EXPECT_EQ(tracer.stats().slow, 5u);

  // The file keeps the FIRST 2 plus one truncation notice — an append-only
  // sink cannot drop-oldest, so it stops instead of growing unboundedly.
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"request\":1"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"request\":2"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find("\"truncated\":true"), std::string::npos) << lines[2];
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// propagation: the full service chain
// ---------------------------------------------------------------------------

class ServiceTraceTest : public TraceTest {
 protected:
  ServiceTraceTest() : layer_(domains::build_crypto_layer()), shared_(*layer_), manager_(shared_) {}

  std::unique_ptr<dsl::DesignSpaceLayer> layer_;
  service::SharedLayer shared_;
  service::SessionManager manager_;
};

TEST_F(ServiceTraceTest, SpanChainCrossesExecutorStrandHopsAndReachesTheSweep) {
  Tracer::instance().configure({.sample_every = 1});
  service::RequestExecutor::Options options;
  options.workers = 2;
  service::RequestExecutor executor(manager_, options);

  std::istringstream in(
      "s1 open Operator.Modular.Multiplier\n"
      "s1 candidates\n");
  std::ostringstream out;
  const auto summary = service::run_batch(manager_, executor, in, out);
  executor.shutdown();
  EXPECT_EQ(summary.errors, 0u);

  const auto recent = Tracer::instance().recent();
  ASSERT_EQ(recent.size(), 2u);
  for (const auto& trace : recent) {
    // Front-end spans (main thread) and executor spans (worker strand)
    // landed on the same trace: the id crossed the queue handoff.
    const auto spans = trace->spans();
    std::set<SpanKind> kinds;
    std::uint32_t execute_index = kNoParent;
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      kinds.insert(spans[i].kind);
      if (spans[i].kind == SpanKind::kExecute) execute_index = i;
    }
    EXPECT_TRUE(kinds.contains(SpanKind::kIngress)) << to_jsonl(*trace);
    EXPECT_TRUE(kinds.contains(SpanKind::kParse)) << to_jsonl(*trace);
    EXPECT_TRUE(kinds.contains(SpanKind::kQueueWait)) << to_jsonl(*trace);
    ASSERT_TRUE(kinds.contains(SpanKind::kExecute)) << to_jsonl(*trace);
    // Sweep spans (from the candidate filter, which runs on the same
    // worker) nest under the worker's execute span.
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      if (spans[i].kind == SpanKind::kSweep) {
        EXPECT_EQ(spans[i].parent, execute_index) << to_jsonl(*trace);
      }
    }
    EXPECT_TRUE(trace->finished());
  }
  // Both commands compute the candidate set, so both traces swept.
  std::size_t traces_with_sweeps = 0;
  for (const auto& trace : recent) {
    for (const Span& span : trace->spans()) {
      if (span.kind == SpanKind::kSweep) {
        ++traces_with_sweeps;
        break;
      }
    }
  }
  EXPECT_GE(traces_with_sweeps, 1u);
  // The execute span names the verb it ran.
  bool saw_candidates_verb = false;
  for (const auto& trace : recent) {
    for (const Span& span : trace->spans()) {
      if (span.kind == SpanKind::kExecute && span.detail == "candidates") {
        saw_candidates_verb = true;
      }
    }
  }
  EXPECT_TRUE(saw_candidates_verb);
}

TEST_F(ServiceTraceTest, UnsampledRequestsKeepCoarseSpansButNoSweepDetail) {
  // sample_every=0 with the flight recorder armed: traces exist (the
  // recorder needs them) but no TraceScope is installed on the workers,
  // so sweep spans are absent. This is the unsampled hot path.
  Tracer::instance().configure({.sample_every = 0, .slow_request_ms = 60000.0});
  service::RequestExecutor executor(manager_, {});

  std::istringstream in("s1 open Operator.Modular.Multiplier\n");
  std::ostringstream out;
  service::run_batch(manager_, executor, in, out);
  executor.shutdown();

  const auto stats = Tracer::instance().stats();
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.sampled, 0u);
  EXPECT_EQ(stats.finished, 1u);
  EXPECT_TRUE(Tracer::instance().recent().empty());  // nothing retained
}

TEST_F(ServiceTraceTest, ServeModeRecordsARespondSpan) {
  Tracer::instance().configure({.sample_every = 1});
  service::RequestExecutor executor(manager_, {});

  std::istringstream in("s1 help\n");
  std::ostringstream out;
  service::run_serve(manager_, executor, in, out);
  executor.shutdown();

  const auto recent = Tracer::instance().recent();
  ASSERT_EQ(recent.size(), 1u);
  bool saw_respond = false;
  for (const Span& span : recent[0]->spans()) {
    if (span.kind == SpanKind::kRespond) saw_respond = true;
  }
  EXPECT_TRUE(saw_respond) << to_jsonl(*recent[0]);
}

TEST_F(ServiceTraceTest, FailpointStallProducesAFlightRecordForEverySlowRequest) {
  // The acceptance shape: a delay failpoint in the executor's dequeue
  // path makes EVERY request exceed the slow threshold, and every one of
  // them must land in the flight recorder even though none is sampled.
  Tracer::instance().configure({.sample_every = 0, .slow_request_ms = 5.0});
  ASSERT_TRUE(
      support::FailpointRegistry::instance().arm_spec("service.executor.dequeue=delay:15"));
  service::RequestExecutor executor(manager_, {});

  std::istringstream in(
      "s1 help\n"
      "s2 help\n"
      "s3 help\n");
  std::ostringstream out;
  service::run_batch(manager_, executor, in, out);
  executor.shutdown();
  support::FailpointRegistry::instance().reset();

  EXPECT_EQ(Tracer::instance().stats().slow, 3u);
  const auto records = Tracer::instance().flight_records();
  ASSERT_EQ(records.size(), 3u);
  for (const std::string& record : records) {
    EXPECT_NE(record.find("\"kind\":\"queue.wait\""), std::string::npos) << record;
  }
}

// ---------------------------------------------------------------------------
// metrics exposition
// ---------------------------------------------------------------------------

TEST_F(ServiceTraceTest, MetricsRenderingExposesTheServiceState) {
  Tracer::instance().configure({.sample_every = 1});
  service::RequestExecutor executor(manager_, {});
  std::istringstream in(
      "s1 open Operator.Modular.Multiplier\n"
      "s1 help\n");
  std::ostringstream out;
  service::run_batch(manager_, executor, in, out);

  const std::string payload = service::render_metrics(manager_, executor);
  executor.shutdown();

  // Families, with HELP/TYPE headers.
  EXPECT_NE(payload.find("# HELP dslayer_requests_accepted_total"), std::string::npos);
  EXPECT_NE(payload.find("# TYPE dslayer_requests_accepted_total counter"), std::string::npos);
  EXPECT_NE(payload.find("dslayer_requests_accepted_total 2"), std::string::npos) << payload;
  EXPECT_NE(payload.find("dslayer_requests_executed_total 2"), std::string::npos) << payload;
  EXPECT_NE(payload.find("dslayer_sessions_live 1"), std::string::npos) << payload;
  // The latency histogram: per-verb series with cumulative buckets, a
  // mandatory +Inf, and seconds units.
  EXPECT_NE(payload.find("# TYPE dslayer_request_latency_seconds histogram"), std::string::npos);
  EXPECT_NE(payload.find("dslayer_request_latency_seconds_bucket{verb=\"all\",le=\"+Inf\"} 2"),
            std::string::npos)
      << payload;
  EXPECT_NE(payload.find("dslayer_request_latency_seconds_count{verb=\"all\"} 2"),
            std::string::npos)
      << payload;
  // Tracer state rides along.
  EXPECT_NE(payload.find("dslayer_traces_started_total 2"), std::string::npos) << payload;
  // No front-end provider => no net family.
  EXPECT_EQ(payload.find("dslayer_net_"), std::string::npos);
  // The framing terminator is the last line.
  ASSERT_GE(payload.size(), 6u);
  EXPECT_EQ(payload.substr(payload.size() - 6), "# EOF\n");
}

TEST_F(ServiceTraceTest, MetricsIncludeFrontEndCountersWhenProvided) {
  service::RequestExecutor executor(manager_, {});
  service::FrontEndCounters counters;
  counters.accepted = 5;
  counters.open_connections = 2;
  const std::string payload =
      service::render_metrics(manager_, executor, [&] { return counters; });
  executor.shutdown();
  EXPECT_NE(payload.find("dslayer_net_connections_accepted_total 5"), std::string::npos)
      << payload;
  EXPECT_NE(payload.find("dslayer_net_connections_open 2"), std::string::npos) << payload;
}

TEST_F(ServiceTraceTest, MetricsDirectiveWorksWithoutDraining) {
  // `!metrics` is the one directive front ends may serve inline; the
  // directive entry point itself must render from snapshots.
  service::RequestExecutor executor(manager_, {});
  std::ostringstream out;
  service::DirectiveContext context{&manager_, &executor, {}};
  EXPECT_TRUE(service::run_directive(context, "!metrics", out));
  executor.shutdown();
  EXPECT_NE(out.str().find("dslayer_queue_depth 0"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("# EOF\n"), std::string::npos);
}

}  // namespace
}  // namespace dslayer::trace
