// Unit tests for the telemetry substrate (support/telemetry): event-kind
// naming, JSONL round-trips, the JSONL file sink, per-kind counters,
// latency histograms, and the RAII timer.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/telemetry.hpp"

namespace dslayer::telemetry {
namespace {

TEST(EventKindNames, RoundTripAndReject) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    const auto parsed = parse_event_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_event_kind("NoSuchKind").has_value());
  EXPECT_FALSE(parse_event_kind("").has_value());
}

TEST(Jsonl, RoundTripsEveryField) {
  Event event;
  event.seq = 42;
  event.kind = EventKind::kDecision;
  event.subject = "Algorithm";
  event.detail = "txt:Montgomery";
  const auto parsed = parse_event_jsonl(to_jsonl(event));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, event);
}

TEST(Jsonl, RoundTripsEscapesAndControlCharacters) {
  Event event;
  event.seq = 1;
  event.kind = EventKind::kRequirementSet;
  event.subject = "quote \" backslash \\ tab\t";
  event.detail = "line\nbreak \x01 bell\x07 end";
  const std::string line = to_jsonl(event);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // stays a single line
  const auto parsed = parse_event_jsonl(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, event);
}

TEST(Jsonl, ToleratesReorderedAndUnknownKeys) {
  const auto parsed = parse_event_jsonl(
      R"(  {"detail":"d","kind":"Retract","extra":"ignored","n":7,"subject":"Radix","seq":3}  )");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, EventKind::kRetract);
  EXPECT_EQ(parsed->subject, "Radix");
  EXPECT_EQ(parsed->detail, "d");
  EXPECT_EQ(parsed->seq, 3u);

  // Journals written before the duration field was retired still parse.
  const auto legacy = parse_event_jsonl(
      R"({"seq":2,"kind":"Decision","subject":"Algorithm","detail":"txt:Montgomery","us":0})");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->kind, EventKind::kDecision);
  EXPECT_EQ(legacy->subject, "Algorithm");
  EXPECT_EQ(legacy->detail, "txt:Montgomery");
  EXPECT_EQ(legacy->seq, 2u);
}

TEST(Jsonl, RejectsMalformedLines) {
  for (const char* line :
       {"", "not json", "{", "{}", R"({"kind":"NoSuchKind"})", R"({"seq":1})",
        R"({"kind":"Decision")", R"({"kind":"Decision"} trailing)",
        R"({"kind":"Decision","subject":"unterminated)"}) {
    EXPECT_FALSE(parse_event_jsonl(line).has_value()) << line;
  }
}

TEST(JsonlFileSink, WritesParseableLinesAndRejectsBadPaths) {
  const std::string path = testing::TempDir() + "/telemetry_sink_test.jsonl";
  {
    JsonlFileSink sink(path);
    Event event;
    event.seq = 5;
    event.kind = EventKind::kSessionOpened;
    event.subject = "Operator.Modular.Multiplier";
    sink.write(event);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto parsed = parse_event_jsonl(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->subject, "Operator.Modular.Multiplier");
  std::remove(path.c_str());

  EXPECT_THROW(JsonlFileSink("/no/such/dir/telemetry.jsonl"), Error);
}

// A failing journal device must lose events LOUDLY — counted, warned once
// on stderr — and resume cleanly when the device recovers. The failure is
// injected at the "telemetry.jsonl_write" failpoint so the test needs no
// real broken filesystem.
TEST(JsonlFileSink, CountsInjectedWriteFailuresAndResumesAfterRecovery) {
  struct FailpointGuard {
    ~FailpointGuard() { support::FailpointRegistry::instance().reset(); }
    support::FailpointRegistry& registry = support::FailpointRegistry::instance();
  } failpoints;

  const std::string path = testing::TempDir() + "/telemetry_sink_failure_test.jsonl";
  JsonlFileSink sink(path);
  ASSERT_TRUE(failpoints.registry.arm_spec("telemetry.jsonl_write=error:2"));

  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    Event event;
    event.seq = seq;
    event.kind = EventKind::kSessionOpened;
    event.subject = "Operator.Modular.Multiplier";
    sink.write(event);
  }
  // Events 1 and 2 hit the injected fault: dropped but counted. The
  // point self-disarmed after two fires, so 3 and 4 reach the file —
  // the sink recovered without being recreated.
  EXPECT_EQ(sink.write_failures(), 2u);

  std::ifstream in(path);
  std::string line;
  std::vector<std::uint64_t> surviving;
  while (std::getline(in, line)) {
    const auto parsed = parse_event_jsonl(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    surviving.push_back(parsed->seq);
  }
  EXPECT_EQ(surviving, (std::vector<std::uint64_t>{3, 4}));
  std::remove(path.c_str());
}

// Regression for the flush-batching contract: flush_every=N buffers up to
// N-1 events in the ofstream; crossing N flushes them to the file, and an
// explicit flush() makes the buffered tail visible immediately.
TEST(JsonlFileSink, FlushEveryBatchesAndExplicitFlushDrains) {
  const std::string path = testing::TempDir() + "/telemetry_sink_flush_test.jsonl";
  {
    JsonlFileSink sink(path, /*flush_every=*/3);
    EXPECT_EQ(sink.flush_every(), 3u);
    const auto emit = [&sink](std::uint64_t seq) {
      Event event;
      event.seq = seq;
      event.kind = EventKind::kSessionOpened;
      sink.write(event);
    };
    const auto lines_on_disk = [&path]() {
      std::ifstream in(path);
      std::string line;
      std::size_t count = 0;
      while (std::getline(in, line)) ++count;
      return count;
    };
    emit(1);
    emit(2);
    emit(3);  // third event crosses the threshold: all three flushed
    EXPECT_EQ(lines_on_disk(), 3u);
    emit(4);  // buffered (no guarantee it is on disk yet)...
    sink.flush();  // ...until an explicit flush drains the tail
    EXPECT_EQ(lines_on_disk(), 4u);
    EXPECT_EQ(sink.write_failures(), 0u);
    emit(5);
  }  // destructor flushes the buffered tail
  std::ifstream in(path);
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    ASSERT_TRUE(parse_event_jsonl(line).has_value()) << line;
    ++count;
  }
  EXPECT_EQ(count, 5u);
  std::remove(path.c_str());

  // flush_every=0 is coerced to 1 (per-event flushing, the old default).
  JsonlFileSink per_event(path, 0);
  EXPECT_EQ(per_event.flush_every(), 1u);
  std::remove(path.c_str());
}

TEST(TelemetryHub, CountsEachKindSeparately) {
  Telemetry hub;
  hub.count(EventKind::kSessionOpened);
  hub.count(EventKind::kDecision);
  hub.count(EventKind::kDecision);
  EXPECT_EQ(hub.count_of(EventKind::kSessionOpened), 1u);
  EXPECT_EQ(hub.count_of(EventKind::kDecision), 2u);
  EXPECT_EQ(hub.count_of(EventKind::kRetract), 0u);
  // A timing sample feeds its histogram and the QueryTimed counter.
  hub.record_timing("candidates", 10.0);
  EXPECT_EQ(hub.count_of(EventKind::kQueryTimed), 1u);
  EXPECT_EQ(hub.timings().at("candidates").count, 1u);
}

TEST(TelemetryHub, CountIsAggregateOnly) {
  Telemetry hub;
  hub.count(EventKind::kConstraintEvaluated, 7);
  hub.count(EventKind::kConstraintEvaluated);
  EXPECT_EQ(hub.count_of(EventKind::kConstraintEvaluated), 8u);
  EXPECT_TRUE(hub.timings().empty());  // counting records no timing
}

TEST(TelemetryHub, ResetCountersZeroesCountersAndHistograms) {
  Telemetry hub;
  hub.count(EventKind::kDecision);
  hub.record_timing("candidates", 10.0);
  hub.reset_counters();
  EXPECT_EQ(hub.count_of(EventKind::kDecision), 0u);
  EXPECT_EQ(hub.count_of(EventKind::kQueryTimed), 0u);
  EXPECT_TRUE(hub.timings().empty());
  EXPECT_TRUE(hub.histogram_snapshots().empty());
  // Counting resumes from zero.
  hub.count(EventKind::kDecision);
  EXPECT_EQ(hub.count_of(EventKind::kDecision), 1u);
}

// Pins the histogram bucket convention: bucket i covers [2^i, 2^(i+1))
// nanoseconds, with 0ns folded into bucket 0. Exact powers of two start
// a NEW bucket; one past a power of two stays in that same bucket. The
// metrics exposition (service/metrics.cpp) and quantile estimation both
// assume exactly this mapping via bucket_upper_bound_ns.
TEST(HistogramBuckets, PinsTheLog2BucketConvention) {
  EXPECT_EQ(latency_bucket_ns(0), 0u);
  EXPECT_EQ(latency_bucket_ns(1), 0u);
  EXPECT_EQ(latency_bucket_ns(2), 1u);
  EXPECT_EQ(latency_bucket_ns(3), 1u);
  for (std::size_t k = 2; k < 63; ++k) {
    const std::uint64_t pow = 1ULL << k;
    EXPECT_EQ(latency_bucket_ns(pow - 1), k - 1) << "2^" << k << " - 1";
    EXPECT_EQ(latency_bucket_ns(pow), k) << "2^" << k;
    EXPECT_EQ(latency_bucket_ns(pow + 1), k) << "2^" << k << " + 1";
  }
  EXPECT_EQ(latency_bucket_ns(~0ULL), 63u);  // saturates at the last bucket
}

TEST(HistogramBuckets, UpperBoundsAreExclusiveAndMonotone) {
  // A sample always lands strictly below its bucket's upper bound and at
  // or above the previous bucket's.
  for (std::size_t bucket = 0; bucket < kHistogramBuckets - 1; ++bucket) {
    EXPECT_EQ(bucket_upper_bound_ns(bucket), 1ULL << (bucket + 1));
    EXPECT_EQ(latency_bucket_ns(bucket_upper_bound_ns(bucket) - 1), bucket);
    EXPECT_EQ(latency_bucket_ns(bucket_upper_bound_ns(bucket)), bucket + 1);
  }
  // The last bucket is open-ended; its reported bound saturates at the
  // all-ones value, keeping the sequence strictly monotone.
  EXPECT_EQ(bucket_upper_bound_ns(kHistogramBuckets - 1), ~0ULL);
  EXPECT_GT(bucket_upper_bound_ns(63), bucket_upper_bound_ns(62));
}

TEST(TelemetryHub, HistogramSnapshotsExposeRawBuckets) {
  Telemetry hub;
  hub.record_timing("verb", 0.001);  // 1ns -> bucket 0
  hub.record_timing("verb", 1.0);    // 1000ns -> bucket 9 ([512, 1024))
  const auto snapshots = hub.histogram_snapshots();
  ASSERT_TRUE(snapshots.contains("verb"));
  const HistogramSnapshot& s = snapshots.at("verb");
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[9], 1u);
  EXPECT_DOUBLE_EQ(s.total_us, 1.001);
}

TEST(TelemetryHub, TimingHistogramQuantiles) {
  Telemetry hub;
  for (int i = 0; i < 99; ++i) hub.record_timing("fast", 1.0);
  hub.record_timing("fast", 1000.0);
  const auto timings = hub.timings();
  ASSERT_TRUE(timings.contains("fast"));
  const TimingSummary& t = timings.at("fast");
  EXPECT_EQ(t.count, 100u);
  EXPECT_EQ(t.max_us, 1000.0);
  EXPECT_DOUBLE_EQ(t.total_us, 99.0 + 1000.0);
  // Bucketed quantiles are upper bounds accurate to 2x: the p50/p95 of a
  // population of 1us samples sit in the [1024, 2048) ns bucket.
  EXPECT_GE(t.p50_us, 1.0);
  EXPECT_LE(t.p50_us, 2.048);
  EXPECT_LE(t.p50_us, t.p95_us);
  EXPECT_LE(t.p95_us, t.max_us);
  // The outlier owns the tail beyond p95 only.
  EXPECT_LT(t.p95_us, 1000.0);
}

TEST(TelemetryHub, TimingZeroAndHugeSamplesAreSafe) {
  Telemetry hub;
  hub.record_timing("edge", 0.0);
  hub.record_timing("edge", 1.0e12);
  const TimingSummary t = hub.timings().at("edge");
  EXPECT_EQ(t.count, 2u);
  EXPECT_EQ(t.max_us, 1.0e12);
  EXPECT_LE(t.p50_us, t.p95_us);
}

TEST(ScopedTimer, RecordsOnDestructionAndIsNullSafe) {
  Telemetry hub;
  {
    ScopedTimer timer(&hub, "probe");
    EXPECT_TRUE(hub.timings().empty());  // nothing until scope exit
  }
  const auto timings = hub.timings();
  ASSERT_TRUE(timings.contains("probe"));
  EXPECT_EQ(timings.at("probe").count, 1u);
  EXPECT_GT(timings.at("probe").max_us, 0.0);
  EXPECT_EQ(hub.count_of(EventKind::kQueryTimed), 1u);

  { ScopedTimer disabled(nullptr, "ignored"); }  // must not crash
}

}  // namespace
}  // namespace dslayer::telemetry
