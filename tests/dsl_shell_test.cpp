#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "domains/crypto.hpp"
#include "dsl/shell.hpp"
#include "support/strings.hpp"

namespace dslayer::dsl {
namespace {

struct ShellRun {
  int failures;
  std::string output;
};

ShellRun run(const DesignSpaceLayer& layer, const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  const int failures = run_shell(layer, in, out);
  return {failures, out.str()};
}

class ShellTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { layer_ = domains::build_crypto_layer().release(); }
  static void TearDownTestSuite() {
    delete layer_;
    layer_ = nullptr;
  }
  static DesignSpaceLayer* layer_;
};

DesignSpaceLayer* ShellTest::layer_ = nullptr;

TEST_F(ShellTest, HelpListsCommands) {
  const ShellRun r = run(*layer_, "help\n");
  EXPECT_EQ(r.failures, 0);
  for (const char* cmd : {"open", "req", "decide", "ranges", "decompose", "trace", "stats",
                          "timings", "trace export", "trace replay", "pending",
                          "report", "candidates", "derived", "rank", "retract", "reaffirm",
                          "options", "range", "doc", "tree", "quit", "help"}) {
    EXPECT_NE(r.output.find(cmd), std::string::npos) << cmd;
  }
}

TEST_F(ShellTest, StatsAndCacheCommands) {
  const ShellRun r = run(*layer_,
                         "stats\n"
                         "open Operator.Modular.Multiplier\n"
                         "candidates\n"
                         "candidates\n"
                         "stats\n"
                         "stats reset\n"
                         "cache off\n");
  EXPECT_EQ(r.failures, 1);  // only `cache off` fails: memoization has no switch
  EXPECT_NE(r.output.find("layer:"), std::string::npos);
  EXPECT_NE(r.output.find("session:"), std::string::npos);
  EXPECT_NE(r.output.find("cache hits"), std::string::npos);
  EXPECT_NE(r.output.find("counters reset"), std::string::npos);
  EXPECT_NE(r.output.find("unknown command 'cache'"), std::string::npos);
}

TEST_F(ShellTest, TreeShowsHierarchyAndCensus) {
  const ShellRun r = run(*layer_, "tree\n");
  EXPECT_EQ(r.failures, 0);
  EXPECT_NE(r.output.find("Operator"), std::string::npos);
  EXPECT_NE(r.output.find("Montgomery"), std::string::npos);
  EXPECT_NE(r.output.find("cores)"), std::string::npos);
}

TEST_F(ShellTest, FullWalkthroughScript) {
  const ShellRun r = run(*layer_,
                         "open Operator.Modular.Multiplier\n"
                         "req EffectiveOperandLength 768\n"
                         "req ModuloIsOdd Guaranteed\n"
                         "req LatencySingleOperation 8\n"
                         "decide ImplementationStyle Hardware\n"
                         "decide Algorithm Montgomery\n"
                         "decide LoopAdder CSA\n"
                         "derived LatencyCycles\n"
                         "range area\n"
                         "report\n"
                         "quit\n");
  EXPECT_EQ(r.failures, 0) << r.output;
  EXPECT_NE(r.output.find("scope Operator.Modular.Multiplier.Hardware.Montgomery"),
            std::string::npos);
  EXPECT_NE(r.output.find("769"), std::string::npos);  // CC2 at radix default 2
  EXPECT_NE(r.output.find("Candidate cores"), std::string::npos);
}

TEST_F(ShellTest, MultiWordOptionTextSurvives) {
  const ShellRun r = run(*layer_,
                         "open Operator.Modular.Multiplier\n"
                         "req OperandCoding 2's complement\n"
                         "report\n");
  EXPECT_EQ(r.failures, 0) << r.output;
  EXPECT_NE(r.output.find("OperandCoding = 2's complement"), std::string::npos);
}

TEST_F(ShellTest, ErrorsAreReportedNotFatal) {
  const ShellRun r = run(*layer_,
                         "candidates\n"                 // no session yet
                         "open No.Such.Path\n"          // unknown path
                         "open Operator.Modular.Multiplier\n"
                         "decide NoSuchIssue X\n"       // unknown issue
                         "bogus-command\n"
                         "candidates\n");               // still works
  EXPECT_EQ(r.failures, 4);
  EXPECT_NE(r.output.find("no session"), std::string::npos);
  EXPECT_NE(r.output.find("unknown command"), std::string::npos);
  // The final candidates listing ran after all the errors.
  EXPECT_NE(r.output.find("mm1_w8"), std::string::npos);
}

TEST_F(ShellTest, VetoedDecisionReportsConstraint) {
  const ShellRun r = run(*layer_,
                         "open Operator.Modular.Multiplier.Hardware\n"
                         "req EffectiveOperandLength 768\n"
                         "req ModuloIsOdd NotGuaranteed\n"
                         "decide Algorithm Montgomery\n"
                         "options Algorithm\n");
  EXPECT_EQ(r.failures, 1);
  EXPECT_NE(r.output.find("CC1"), std::string::npos);
  EXPECT_NE(r.output.find("Brickell"), std::string::npos);
}

TEST_F(ShellTest, RangesCommandShowsWhatIf) {
  const ShellRun r = run(*layer_,
                         "open Operator.Modular.Multiplier.Hardware\n"
                         "req EffectiveOperandLength 768\n"
                         "ranges Algorithm clock_ns\n");
  EXPECT_EQ(r.failures, 0) << r.output;
  EXPECT_NE(r.output.find("Montgomery: ["), std::string::npos);
  EXPECT_NE(r.output.find("Brickell: ["), std::string::npos);
}

TEST_F(ShellTest, DocAndTraceAndComments) {
  const ShellRun r = run(*layer_,
                         "# a comment line\n"
                         "doc Operator.Modular.Multiplier\n"
                         "open Operator.Modular.Multiplier\n"
                         "req EffectiveOperandLength 1024\n"
                         "trace\n"
                         "trace legacy\n");
  EXPECT_EQ(r.failures, 0);
  EXPECT_NE(r.output.find("ModuloIsOdd"), std::string::npos);            // Fig. 8 doc
  // Structured view: typed events with sequence numbers...
  EXPECT_NE(r.output.find("#1 SessionOpened Operator.Modular.Multiplier"), std::string::npos);
  EXPECT_NE(r.output.find("RequirementSet EffectiveOperandLength num:1024"), std::string::npos);
  // ...and the legacy prose log is still reachable.
  EXPECT_NE(r.output.find("requirement set: EffectiveOperandLength"), std::string::npos);
}

TEST_F(ShellTest, TraceFiltersByKindGroup) {
  // `trace` shows the journal: the decisions, numbered 1..n, and none of
  // the query-layer kinds, which are counted only.
  const ShellRun r = run(*layer_,
                         "open Operator.Modular.Multiplier\n"
                         "req EffectiveOperandLength 768\n"
                         "decide ImplementationStyle Hardware\n"
                         "candidates\n"
                         "trace\n");
  EXPECT_EQ(r.failures, 0) << r.output;
  EXPECT_NE(r.output.find("#2 RequirementSet EffectiveOperandLength num:768"),
            std::string::npos);
  EXPECT_NE(r.output.find("#3 Decision ImplementationStyle txt:Hardware"), std::string::npos);
  EXPECT_EQ(r.output.find("CacheMiss"), std::string::npos);
  EXPECT_EQ(r.output.find("QueryTimed"), std::string::npos);

  // The cache traffic shows up in the `stats` counters instead.
  const ShellRun c = run(*layer_,
                         "open Operator.Modular.Multiplier\n"
                         "stats\n"
                         "candidates\n"
                         "candidates\n"
                         "stats\n");
  EXPECT_EQ(c.failures, 0) << c.output;
  // `open` fills both memos (bindings, candidates); each repeat is a hit.
  EXPECT_NE(c.output.find("session: constraint evaluations: 56  compliance checks: 56  "
                          "cache hits: 0  cache misses: 2"),
            std::string::npos)
      << c.output;
  EXPECT_NE(c.output.find("session: constraint evaluations: 56  compliance checks: 56  "
                          "cache hits: 2  cache misses: 2"),
            std::string::npos)
      << c.output;
}

TEST_F(ShellTest, TraceExactKindFilterAndBadFilter) {
  // Only `trace` and `trace legacy` render; kind filters are gone.
  const ShellRun r = run(*layer_,
                         "open Operator.Modular.Multiplier\n"
                         "trace QueryTimed\n"
                         "trace bogus-filter\n");
  EXPECT_EQ(r.failures, 2);
  EXPECT_NE(r.output.find("unknown trace filter 'QueryTimed'"), std::string::npos);
  EXPECT_NE(r.output.find("unknown trace filter 'bogus-filter'"), std::string::npos);
}

TEST_F(ShellTest, TimingsReportNonZeroHistograms) {
  const ShellRun r = run(*layer_,
                         "timings\n"  // before any session: layer section only
                         "open Operator.Modular.Multiplier\n"
                         "req EffectiveOperandLength 768\n"
                         "decide ImplementationStyle Hardware\n"
                         "candidates\n"
                         "range area\n"
                         "ranges Algorithm clock_ns\n"
                         "timings\n");
  EXPECT_EQ(r.failures, 0) << r.output;
  EXPECT_NE(r.output.find("layer:"), std::string::npos);
  EXPECT_NE(r.output.find("session:"), std::string::npos);
  for (const char* kind : {"candidates", "bindings", "metric_range", "option_ranges"}) {
    EXPECT_NE(r.output.find(cat("  ", kind, "  n=")), std::string::npos) << kind;
  }
  EXPECT_EQ(r.output.find("n=0"), std::string::npos);  // every histogram has samples
  EXPECT_NE(r.output.find("p50="), std::string::npos);
  EXPECT_NE(r.output.find("p95="), std::string::npos);
  EXPECT_NE(r.output.find("max="), std::string::npos);
}

TEST_F(ShellTest, TraceExportAndReplayRoundTrip) {
  const std::string path = testing::TempDir() + "/shell_journal.jsonl";
  const ShellRun original = run(*layer_,
                                cat("open Operator.Modular.Multiplier\n",
                                    "req EffectiveOperandLength 768\n",
                                    "req ModuloIsOdd Guaranteed\n",
                                    "decide ImplementationStyle Hardware\n",
                                    "decide Algorithm Montgomery\n",
                                    "trace export ", path, "\n", "report\n"));
  EXPECT_EQ(original.failures, 0) << original.output;
  EXPECT_NE(original.output.find(cat("exported 5 events to ", path)), std::string::npos);

  const ShellRun replayed =
      run(*layer_, cat("trace replay ", path, "\n", "report\n"));
  EXPECT_EQ(replayed.failures, 0) << replayed.output;
  EXPECT_NE(replayed.output.find("replayed 5 events"), std::string::npos);

  // The replayed session's report is byte-identical to the original's.
  const auto report_of = [](const std::string& output) {
    return output.substr(output.find("Exploration of"));
  };
  ASSERT_NE(original.output.find("Exploration of"), std::string::npos);
  ASSERT_NE(replayed.output.find("Exploration of"), std::string::npos);
  EXPECT_EQ(report_of(original.output), report_of(replayed.output));
  std::remove(path.c_str());
}

TEST_F(ShellTest, TraceAndExportNeedASessionAndAReadableFile) {
  const ShellRun r = run(*layer_,
                         "trace\n"
                         "trace export /tmp/never_written.jsonl\n"
                         "timings\n"
                         "trace replay /no/such/journal.jsonl\n");
  EXPECT_EQ(r.failures, 3);  // timings without a session is fine (layer view)
  EXPECT_NE(r.output.find("no session"), std::string::npos);
  EXPECT_NE(r.output.find("cannot read journal"), std::string::npos);
  EXPECT_NE(r.output.find("layer:"), std::string::npos);
}

TEST_F(ShellTest, ReplayRejectsMalformedJournal) {
  const std::string path = testing::TempDir() + "/broken_journal.jsonl";
  {
    std::ofstream out(path);
    out << "this is not json\n";
  }
  const ShellRun r = run(*layer_, cat("trace replay ", path, "\n"));
  EXPECT_EQ(r.failures, 1);
  EXPECT_NE(r.output.find("not a telemetry event"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ShellTest, QuitStopsProcessing) {
  const ShellRun r = run(*layer_, "quit\nbogus\n");
  EXPECT_EQ(r.failures, 0);  // bogus never ran
}

}  // namespace
}  // namespace dslayer::dsl
