// Tier-2 concurrency stress tests for the exploration service. These are
// the tests the ThreadSanitizer CI stage runs: many threads hammering one
// SharedLayer through the SessionManager and RequestExecutor, with writer
// epochs racing readers. Semantic correctness is checked with the replay
// oracle — after a multi-threaded fuzz walk, each session's exported
// journal must rebuild the exact state the live session reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "domains/crypto.hpp"
#include "dsl/shell.hpp"
#include "service/request_executor.hpp"
#include "service/session_manager.hpp"
#include "service/shared_layer.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/strings.hpp"

namespace dslayer {
namespace {

using service::Request;
using service::RequestExecutor;
using service::Response;
using service::ResponseStatus;
using service::SessionManager;
using service::SharedLayer;

constexpr const char* kOmm = "Operator.Modular.Multiplier";

Request make_request(std::uint64_t id, std::string session, std::string command) {
  Request request;
  request.id = id;
  request.session = std::move(session);
  request.command = std::move(command);
  return request;
}

/// Same splitmix-style generator as the exploration fuzz test: cheap,
/// seedable, and identical on every platform.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// A deterministic per-session walk: mostly-legal commands whose failures
/// (double decide, retract of nothing, ...) are themselves deterministic.
std::vector<std::string> scripted_walk(std::uint64_t seed, std::size_t steps) {
  Rng rng(seed);
  std::vector<std::string> walk;
  walk.push_back(cat("open ", kOmm));
  const std::vector<std::string> pool = {
      "req EffectiveOperandLength 512",
      "req EffectiveOperandLength 768",
      "req EffectiveOperandLength 1024",
      "req ModuloIsOdd Guaranteed",
      "decide ImplementationStyle Hardware",
      "decide ImplementationStyle Software",
      "retract EffectiveOperandLength",
      "retract ImplementationStyle",
      "reaffirm EffectiveOperandLength",
      "options ImplementationStyle",
      "range area",
      "candidates",
      "pending",
      "report",
  };
  for (std::size_t i = 0; i < steps; ++i) walk.push_back(pool[rng.below(pool.size())]);
  return walk;
}

// Many threads banging on a small session table: creation, execution,
// eviction at capacity, and explicit closes all race. The invariant under
// test is accounting (every created session is eventually live, closed, or
// evicted) and the absence of crashes/TSan reports — command-level errors
// are expected and fine.
TEST(ServiceStress, ConcurrentSessionChurn) {
  auto layer = domains::build_crypto_layer();
  SharedLayer shared(*layer);
  SessionManager::Options options;
  options.max_sessions = 4;
  SessionManager manager(shared, options);

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 150;
  std::atomic<std::uint64_t> busy_rejections{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xc0ffee + static_cast<std::uint64_t>(t));
      const std::vector<std::string> pool = {
          cat("open ", kOmm),
          "req EffectiveOperandLength 768",
          "retract EffectiveOperandLength",
          "range area",
          "report",
          "quit",
      };
      for (int i = 0; i < kItersPerThread; ++i) {
        const std::string session = cat("churn", rng.below(8));
        std::ostringstream sink;
        try {
          manager.execute(session, pool[rng.below(pool.size())], sink);
        } catch (const ServiceError&) {
          ++busy_rejections;  // table full of busy sessions — legal outcome
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const SessionManager::Stats stats = manager.stats();
  EXPECT_LE(manager.session_count(), 4u);
  EXPECT_EQ(stats.created, stats.closed + stats.evicted + manager.session_count());
  EXPECT_EQ(stats.commands + busy_rejections.load(),
            static_cast<std::uint64_t>(kThreads) * kItersPerThread);
  EXPECT_EQ(stats.migration_failures, 0u);
}

// Backpressure must reject loudly, never drop: across competing producers,
// every attempt is either accepted (and later executed, exactly once) or
// visibly rejected.
TEST(ServiceStress, BackpressureAccountingUnderContention) {
  auto layer = domains::build_crypto_layer();
  SharedLayer shared(*layer);
  SessionManager manager(shared);
  RequestExecutor::Options options;
  options.workers = 2;
  options.queue_capacity = 8;
  options.injected_latency_us = 300.0;
  RequestExecutor executor(manager, options);

  constexpr int kProducers = 3;
  constexpr int kAttemptsPerProducer = 200;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> callbacks{0};
  std::atomic<std::uint64_t> id{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kAttemptsPerProducer; ++i) {
        const bool ok = executor.try_submit(
            make_request(++id, cat("producer", p), "help"), [&](Response) { ++callbacks; });
        if (ok) ++accepted;
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  executor.drain();

  const RequestExecutor::Stats stats = executor.stats();
  constexpr std::uint64_t kAttempts = kProducers * kAttemptsPerProducer;
  EXPECT_EQ(stats.accepted, accepted.load());
  EXPECT_EQ(stats.accepted + stats.rejected, kAttempts);
  EXPECT_EQ(stats.executed, stats.accepted);
  EXPECT_EQ(callbacks.load(), accepted.load());
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GT(stats.rejected, 0u);  // a 8-deep queue cannot absorb 600 rushed attempts
}

// The tentpole semantic check: deterministic per-session walks submitted
// through the full concurrent stack (4 workers, interleaved strands, a
// writer thread bumping epochs mid-walk), then each session's journal is
// exported and replayed on a fresh engine. The replayed report must equal
// the live session's report — concurrency and migration may not corrupt
// per-session state.
TEST(ServiceStress, FuzzWalkReplayOracle) {
  auto layer = domains::build_crypto_layer();
  SharedLayer shared(*layer);
  SessionManager manager(shared);
  RequestExecutor::Options options;
  options.workers = 4;
  options.queue_capacity = 512;
  RequestExecutor executor(manager, options);

  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kSteps = 40;
  std::vector<std::vector<std::string>> walks;
  walks.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    walks.push_back(scripted_walk(0xfeed + s, kSteps));
  }

  // Writer thread: no-op catalog transactions racing the walk. Each bump
  // forces every live session to migrate (journal replay) on its next
  // command; with an unchanged layer the replays must all succeed.
  std::atomic<bool> walking{true};
  std::thread writer([&] {
    while (walking.load()) {
      shared.write([](dsl::DesignSpaceLayer&) {});
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::uint64_t id = 0;
  for (std::size_t step = 0; step <= kSteps; ++step) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      executor.submit(make_request(++id, cat("walker", s), walks[s][step]), [](Response) {});
    }
  }
  executor.drain();
  walking.store(false);
  writer.join();

  // One more deterministic epoch bump so the final export/report pair
  // below definitely crosses a migration.
  shared.write([](dsl::DesignSpaceLayer&) {});

  EXPECT_EQ(executor.stats().executed, id);
  EXPECT_EQ(manager.stats().migration_failures, 0u);

  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::string journal_path = cat(::testing::TempDir(), "service_stress_walk", s, ".jsonl");
    std::ostringstream export_out;
    manager.execute(cat("walker", s), cat("trace export ", journal_path), export_out);
    std::ostringstream live_report;
    ASSERT_EQ(manager.execute(cat("walker", s), "report", live_report),
              dsl::ShellEngine::Status::kOk);

    std::ifstream journal_file(journal_path);
    ASSERT_TRUE(journal_file.good()) << journal_path;
    std::stringstream journal;
    journal << journal_file.rdbuf();

    dsl::ShellEngine oracle(*layer);
    oracle.restore_from_journal(journal.str());
    std::ostringstream replayed_report;
    ASSERT_EQ(oracle.execute("report", replayed_report), dsl::ShellEngine::Status::kOk);
    EXPECT_EQ(replayed_report.str(), live_report.str()) << "session walker" << s;
  }
  EXPECT_GE(manager.stats().migrations, kSessions);  // the final bump alone forces one each
}

// Racing reindex against the columnar candidate engine: a writer keeps
// growing the catalog through shared.write() — each epoch re-indexes and
// re-primes the per-CDO CoreFilterPlans pre-publish — while reader sessions
// hammer candidates-heavy commands on the columnar path. Each sweep runs on
// its reader's thread, so ThreadSanitizer sees the plan rebuilds racing the
// sweeps that read the previous epoch's plans, and the epoch migrations
// that move the readers' sessions onto the new one. Candidate counts are
// checked per command only for sanity (> 0); the semantic oracle is the
// columnar test suite — here the invariant is no race, no crash, no failed
// migration.
TEST(ServiceStress, RacingReindexColumnarSweeps) {
  auto layer = domains::build_crypto_layer();
  SharedLayer shared(*layer);
  // Seed several mask words of rows under the walked CDO, so every sweep
  // runs its word loops over a table the writer keeps replacing.
  shared.write([](dsl::DesignSpaceLayer& l) {
    dsl::ReuseLibrary& lib = l.add_library("stress");
    for (int i = 0; i < 256; ++i) {
      dsl::Core core(cat("stress", i), kOmm);
      core.bind("ImplementationStyle", dsl::Value::text(i % 2 ? "Hardware" : "Software"));
      core.set_metric("area", 100.0 + i);
      lib.add(std::move(core));
    }
  });
  SessionManager manager(shared);

  constexpr int kReaders = 3;
  constexpr int kItersPerReader = 120;
  std::atomic<bool> walking{true};
  std::thread writer([&] {
    int added = 0;
    while (walking.load()) {
      shared.write([&added](dsl::DesignSpaceLayer& l) {
        dsl::ReuseLibrary* lib = l.library("stress");
        dsl::Core core(cat("stress_late", added++), kOmm);
        core.set_metric("area", 10.0 + added);
        lib->add(std::move(core));
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0xace + static_cast<std::uint64_t>(t));
      const std::vector<std::string> pool = {
          "candidates",
          "candidates",
          "range area",
          "req EffectiveOperandLength 768",
          "retract EffectiveOperandLength",
      };
      const std::string session = cat("sweeper", t);
      std::ostringstream open_sink;
      manager.execute(session, cat("open ", kOmm), open_sink);
      for (int i = 0; i < kItersPerReader; ++i) {
        std::ostringstream sink;
        manager.execute(session, pool[rng.below(pool.size())], sink);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  walking.store(false);
  writer.join();

  EXPECT_EQ(manager.stats().migration_failures, 0u);
  // The catalog only ever grew, so the candidate census must see at least
  // the seeded stress cores.
  std::ostringstream sink;
  ASSERT_EQ(manager.execute("sweeper0", "candidates", sink), dsl::ShellEngine::Status::kOk);
}

// A pinned session (command in flight) must survive any amount of
// eviction pressure: the LRU scan skips pinned entries and throws
// SessionsBusyError only when EVERY entry is pinned. A sweep-delay
// failpoint holds one session's pin open for an entire churn phase while
// other threads force create-evict cycles through the remaining slot.
TEST(ServiceStress, EvictionUnderPinChurnNeverYanksAPinnedSession) {
  struct FailpointGuard {
    ~FailpointGuard() { support::FailpointRegistry::instance().reset(); }
    support::FailpointRegistry& registry = support::FailpointRegistry::instance();
  } failpoints;

  auto layer = domains::build_crypto_layer();
  SharedLayer shared(*layer);
  SessionManager::Options options;
  options.max_sessions = 2;  // one slot for "pinned", one contested
  SessionManager manager(shared, options);

  // Warm the pinned session first (open/req print candidate counts and
  // would otherwise fire the delay below), THEN arm the stall. The retract
  // prints no count, so the `candidates` below starts a cold sweep.
  std::ostringstream warm;
  ASSERT_EQ(manager.execute("pinned", cat("open ", kOmm), warm), dsl::ShellEngine::Status::kOk);
  ASSERT_EQ(manager.execute("pinned", "req PowerBudget 1000000", warm),
            dsl::ShellEngine::Status::kOk);
  ASSERT_EQ(manager.execute("pinned", "retract PowerBudget", warm),
            dsl::ShellEngine::Status::kOk);
  ASSERT_TRUE(failpoints.registry.arm_spec("dsl.candidates.sweep=delay:150:1"));

  std::thread holder([&] {
    std::ostringstream sink;
    EXPECT_EQ(manager.execute("pinned", "candidates", sink), dsl::ShellEngine::Status::kOk);
  });
  // The fire counter bumps before the injected sleep begins, so from here
  // the pin is provably held for the whole delay window.
  while (failpoints.registry.fires("dsl.candidates.sweep") == 0) std::this_thread::yield();

  constexpr int kChurners = 2;
  constexpr int kItersPerChurner = 30;
  std::atomic<std::uint64_t> all_busy{0};
  std::vector<std::thread> churners;
  churners.reserve(kChurners);
  for (int t = 0; t < kChurners; ++t) {
    churners.emplace_back([&, t] {
      for (int i = 0; i < kItersPerChurner; ++i) {
        std::ostringstream sink;
        try {
          manager.execute(cat("cold", t, "_", i % 4), "help", sink);
        } catch (const SessionsBusyError&) {
          ++all_busy;  // both slots pinned at that instant — legal
        }
      }
    });
  }
  for (std::thread& churner : churners) churner.join();

  // The churn is over well inside the 150ms stall: the pinned session is
  // still registered mid-command, untouched by every eviction above.
  const auto names = manager.session_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "pinned"), names.end());
  holder.join();

  const SessionManager::Stats stats = manager.stats();
  EXPECT_GE(stats.evicted, 1u);  // the contested slot actually churned
  EXPECT_LE(manager.session_count(), 2u);
  EXPECT_EQ(stats.created, stats.closed + stats.evicted + manager.session_count());
  // open + req + retract + candidates on "pinned", then the churn.
  EXPECT_EQ(stats.commands + all_busy.load(),
            4u + static_cast<std::uint64_t>(kChurners) * kItersPerChurner);
}

}  // namespace
}  // namespace dslayer
