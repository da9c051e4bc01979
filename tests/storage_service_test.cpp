// Service-level durability: named sessions that survive a manager
// restart via SessionStore journals, persistence-failure accounting, and
// the `!snapshot` / `!restore` / `!failpoint list` front-end directives.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "domains/crypto.hpp"
#include "dsl/serialize.hpp"
#include "service/batch_runner.hpp"
#include "service/request_executor.hpp"
#include "service/session_manager.hpp"
#include "service/shared_layer.hpp"
#include "snapshot_layout.hpp"
#include "storage/counters.hpp"
#include "storage/durable_catalog.hpp"
#include "storage/file_io.hpp"
#include "storage/session_store.hpp"
#include "support/failpoint.hpp"
#include "support/strings.hpp"

namespace dslayer {
namespace {

using service::RequestExecutor;
using service::SessionManager;
using service::SharedLayer;

constexpr const char* kOmm = "Operator.Modular.Multiplier";

std::string scratch_dir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "dslayer_storage_svc/" +
                          info->test_suite_name() + "." + info->name() + "." + tag;
  for (const std::string& name : storage::list_directory(dir)) {
    storage::remove_file(dir + "/" + name);
  }
  storage::ensure_directory(dir);
  return dir;
}

/// Disarms every failpoint when a test exits, pass or fail.
struct FailpointGuard {
  ~FailpointGuard() { support::FailpointRegistry::instance().reset(); }
  support::FailpointRegistry& registry = support::FailpointRegistry::instance();
};

class DurableSessionTest : public ::testing::Test {
 protected:
  DurableSessionTest() : layer_(domains::build_crypto_layer()), shared_(*layer_) {}

  SessionManager::Options with_store(storage::SessionStore& store) {
    SessionManager::Options options;
    options.store = &store;
    return options;
  }

  std::string run(SessionManager& manager, const std::string& session, const std::string& line) {
    std::ostringstream out;
    manager.execute(session, line, out);
    return out.str();
  }

  std::unique_ptr<dsl::DesignSpaceLayer> layer_;
  SharedLayer shared_;
};

TEST_F(DurableSessionTest, SessionSurvivesManagerRestart) {
  storage::SessionStore store(scratch_dir("restart"));
  std::string before;
  {
    SessionManager manager(shared_, with_store(store));
    run(manager, "alice", cat("open ", kOmm));
    run(manager, "alice", "req EffectiveOperandLength 768");
    run(manager, "alice", "decide ImplementationStyle Hardware");
    before = run(manager, "alice", "report");
    EXPECT_TRUE(store.load("alice").has_value());
  }
  // A new manager (fresh process, same data dir): the first command replays
  // the journal, so the session picks up exactly where it stopped.
  SessionManager manager(shared_, with_store(store));
  const std::string after = run(manager, "alice", "report");
  EXPECT_EQ(after, before);
  EXPECT_EQ(manager.stats().restored, 1u);
  EXPECT_EQ(manager.stats().restore_failures, 0u);
}

TEST_F(DurableSessionTest, QuitAndCloseDeleteTheJournal) {
  storage::SessionStore store(scratch_dir("quit"));
  SessionManager manager(shared_, with_store(store));
  run(manager, "alice", cat("open ", kOmm));
  EXPECT_TRUE(store.load("alice").has_value());
  run(manager, "alice", "quit");
  EXPECT_FALSE(store.load("alice").has_value());

  run(manager, "bob", cat("open ", kOmm));
  EXPECT_TRUE(store.load("bob").has_value());
  EXPECT_TRUE(manager.close("bob"));
  EXPECT_FALSE(store.load("bob").has_value());
}

TEST_F(DurableSessionTest, EvictionKeepsTheJournalAndTheNameResumes) {
  storage::SessionStore store(scratch_dir("evict"));
  auto options = with_store(store);
  options.max_sessions = 1;
  SessionManager manager(shared_, options);
  run(manager, "alice", cat("open ", kOmm));
  run(manager, "alice", "decide ImplementationStyle Hardware");
  const std::string before = run(manager, "alice", "report");

  run(manager, "bob", cat("open ", kOmm));  // evicts alice (LRU)
  EXPECT_EQ(manager.stats().evicted, 1u);
  EXPECT_TRUE(store.load("alice").has_value());  // eviction is not forgetting

  // alice comes back from disk (this evicts bob in turn).
  EXPECT_EQ(run(manager, "alice", "report"), before);
  EXPECT_EQ(manager.stats().restored, 1u);
}

TEST_F(DurableSessionTest, CorruptJournalFailsRestoreLoudly) {
  storage::SessionStore store(scratch_dir("corrupt"));
  store.save("alice", "this is not a journal line\n");
  SessionManager manager(shared_, with_store(store));
  std::ostringstream out;
  const auto status = manager.execute("alice", "report", out);
  EXPECT_EQ(status, dsl::ShellEngine::Status::kError);
  EXPECT_NE(out.str().find("could not be restored"), std::string::npos) << out.str();
  EXPECT_EQ(manager.stats().restore_failures, 1u);

  // The name is usable again immediately — as a fresh session whose next
  // save overwrites the stale journal.
  EXPECT_NE(run(manager, "alice", cat("open ", kOmm)).find("session at"), std::string::npos);
  ASSERT_TRUE(store.load("alice").has_value());
  EXPECT_EQ(store.load("alice")->find("not a journal"), std::string::npos);
}

TEST_F(DurableSessionTest, PersistFailureCountsButNeverFailsTheCommand) {
  FailpointGuard guard;
  storage::SessionStore store(scratch_dir("flushfail"));
  SessionManager manager(shared_, with_store(store));
  run(manager, "alice", cat("open ", kOmm));

  const std::uint64_t before = storage::counters().session_flush_failures.get();
  guard.registry.arm("storage.session.flush", support::FailpointMode::kError, 0.0, 1);
  std::ostringstream out;
  const auto status = manager.execute("alice", "decide ImplementationStyle Hardware", out);
  EXPECT_EQ(status, dsl::ShellEngine::Status::kOk);  // the designer never sees it
  EXPECT_GT(storage::counters().session_flush_failures.get(), before);

  // The next successful persist self-heals (full rewrite), so a restart
  // still restores the full state including the command whose flush failed.
  run(manager, "alice", "req EffectiveOperandLength 768");
  const std::string report = run(manager, "alice", "report");
  SessionManager manager2(shared_, with_store(store));
  EXPECT_EQ(run(manager2, "alice", "report"), report);
}

// ---------------------------------------------------------------------------
// directives
// ---------------------------------------------------------------------------

TEST_F(DurableSessionTest, SnapshotDirectiveRequiresDurableCatalog) {
  SessionManager manager(shared_);
  RequestExecutor executor(manager);
  std::ostringstream out;
  // Directive errors report on `out` and return false, like `!close`
  // with a missing operand.
  EXPECT_FALSE(service::run_directive({&manager, &executor}, "!snapshot", out));
  EXPECT_NE(out.str().find("error: no durable catalog"), std::string::npos) << out.str();
  out.str("");
  EXPECT_FALSE(service::run_directive({&manager, &executor}, "!restore", out));
  EXPECT_NE(out.str().find("error: no durable catalog"), std::string::npos) << out.str();
}

TEST_F(DurableSessionTest, FailpointListShowsNeverArmedStorageSites) {
  SessionManager manager(shared_);
  RequestExecutor executor(manager);
  std::ostringstream out;
  EXPECT_TRUE(service::run_directive({&manager, &executor}, "!failpoint list", out));
  const std::string text = out.str();
  for (const char* site : {"storage.wal.append", "storage.snapshot.rename",
                           "storage.session.flush", "service.session.migrate"}) {
    EXPECT_NE(text.find(site), std::string::npos) << "missing " << site << " in:\n" << text;
  }
}

TEST(DurableDirectives, SnapshotAndRestoreRoundTrip) {
  const std::string dir = scratch_dir("roundtrip");
  auto layer = domains::build_crypto_layer();
  storage::DurableCatalog durable(*layer, {.dir = dir});
  SharedLayer shared(*layer, SharedLayer::Reindex::kFull);
  SessionManager manager(shared);
  RequestExecutor executor(manager);
  const service::DirectiveContext context{&manager, &executor, {}, &durable};

  // Journal a catalog mutation through the WAL, then checkpoint it.
  shared.write([&](dsl::DesignSpaceLayer&) {
    dsl::Core core("snap_core", kOmm);
    core.bind(domains::kImplStyle, dsl::Value::text("Hardware"));
    core.set_metric(domains::kMetricArea, 42.0);
    durable.apply_and_log(storage::CatalogRecord::add_cores(
        "provider", {storage::to_record(core)}));
  });
  const std::string journaled = dsl::export_layer(*layer);

  std::ostringstream out;
  EXPECT_TRUE(service::run_directive(context, "!snapshot", out));
  EXPECT_NE(out.str().find("snapshot:"), std::string::npos) << out.str();
  EXPECT_TRUE(storage::path_exists(dir + "/catalog.snap"));

  // Un-journaled mutation: a provider writes directly to the live layer.
  shared.write([&](dsl::DesignSpaceLayer& mutable_layer) {
    dsl::Core rogue("rogue_core", kOmm);
    rogue.bind(domains::kImplStyle, dsl::Value::text("Software"));
    mutable_layer.add_library("rogue").add(std::move(rogue));
  });
  EXPECT_NE(dsl::export_layer(*layer), journaled);

  // !restore re-boots from disk inside a writer epoch: the rogue state is
  // gone and sessions migrate at their next command.
  out.str("");
  EXPECT_TRUE(service::run_directive(context, "!restore", out));
  EXPECT_NE(out.str().find("restored"), std::string::npos) << out.str();
  EXPECT_EQ(dsl::export_layer(*layer), journaled);
  EXPECT_TRUE(durable.boot_report().loaded_snapshot);
}

TEST(DurableDirectives, FailedRestoreLeavesTheCatalogUntouched) {
  const std::string dir = scratch_dir("failed_restore");
  auto layer = domains::build_crypto_layer();
  storage::DurableCatalog durable(*layer, {.dir = dir});
  SharedLayer shared(*layer, SharedLayer::Reindex::kFull);
  SessionManager manager(shared);
  RequestExecutor executor(manager);
  const service::DirectiveContext context{&manager, &executor, {}, &durable};
  const auto add_core = [&](const char* name) {
    shared.write([&](dsl::DesignSpaceLayer&) {
      dsl::Core core(name, kOmm);
      core.bind(domains::kImplStyle, dsl::Value::text("Hardware"));
      durable.apply_and_log(storage::CatalogRecord::add_cores("provider",
                                                              {storage::to_record(core)}));
    });
  };
  add_core("kept_core");
  std::ostringstream out;
  ASSERT_TRUE(service::run_directive(context, "!snapshot", out)) << out.str();

  // Flip one value-kind tag inside a kCores record of a copy of the
  // snapshot, and put the copy in its place.
  const std::string snapshot = dir + "/catalog.snap";
  const std::string pristine = testing_support::read_bytes(snapshot);
  std::string damaged = pristine;
  damaged[testing_support::first_core_record(damaged).binding_kind] = '\x7F';
  testing_support::write_bytes(snapshot + ".copy", damaged);
  storage::rename_into_place(snapshot + ".copy", snapshot);

  const std::string before = dsl::export_layer(*layer);
  out.str("");
  EXPECT_FALSE(service::run_directive(context, "!restore", out));
  EXPECT_NE(out.str().find("error: restore failed"), std::string::npos) << out.str();
  EXPECT_EQ(dsl::export_layer(*layer), before);

  // The journal stays open and keeps numbering after the snapshot's mark:
  // a core journaled now survives a reboot from the repaired snapshot.
  add_core("after_failed_restore");
  testing_support::write_bytes(snapshot, pristine);
  auto rebooted = domains::build_crypto_layer();
  storage::DurableCatalog again(*rebooted, {.dir = dir});
  EXPECT_EQ(again.boot_report().replayed_records, 1u);
  EXPECT_EQ(dsl::export_layer(*rebooted), dsl::export_layer(*layer));
}

TEST(DurableDirectives, RestoreReportsLockTimeAndCatalogGauges) {
  const std::string dir = scratch_dir("gauges");
  auto layer = domains::build_crypto_layer();
  storage::DurableCatalog durable(*layer, {.dir = dir});
  SharedLayer shared(*layer, SharedLayer::Reindex::kFull);
  SessionManager manager(shared);
  RequestExecutor executor(manager);
  const service::DirectiveContext context{&manager, &executor, {}, &durable};
  const std::string cores = std::to_string(layer->catalog_counts().cores);
  std::ostringstream out;
  ASSERT_TRUE(service::run_directive(context, "!stats", out));
  // Code-built cores are born filled.
  EXPECT_NE(out.str().find("catalog: cores=" + cores + " hydrated=" + cores + "\n"),
            std::string::npos)
      << out.str();

  out.str("");
  ASSERT_TRUE(service::run_directive(context, "!snapshot", out)) << out.str();
  out.str("");
  ASSERT_TRUE(service::run_directive(context, "!restore", out)) << out.str();
  EXPECT_NE(out.str().find(" lock_ms="), std::string::npos) << out.str();

  // The restored catalog is lazy: the restore and its re-prime fill nothing.
  out.str("");
  ASSERT_TRUE(service::run_directive(context, "!stats", out));
  EXPECT_NE(out.str().find("catalog: cores=" + cores + " hydrated=0\n"), std::string::npos)
      << out.str();
  out.str("");
  ASSERT_TRUE(service::run_directive(context, "!metrics", out));
  EXPECT_NE(out.str().find("\ndslayer_catalog_cores " + cores + "\n"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("\ndslayer_catalog_hydrated_cores 0\n"), std::string::npos)
      << out.str();
}

TEST(DurableBoot, RebootWithSnapshotPreservesPrimedPlans) {
  const std::string dir = scratch_dir("preserve");
  std::string journaled;
  {
    auto layer = domains::build_crypto_layer();
    storage::DurableCatalog durable(*layer, {.dir = dir});
    dsl::Core core("boot_core", kOmm);
    core.bind(domains::kImplStyle, dsl::Value::text("Hardware"));
    durable.apply_and_log(storage::CatalogRecord::add_cores("provider",
                                                            {storage::to_record(core)}));
    durable.apply_and_log(storage::CatalogRecord::index_cores());
    // Prime a plan so the snapshot persists a filter table.
    (void)layer->filter_plan(*layer->space().find(kOmm));
    durable.checkpoint();
    journaled = dsl::export_layer(*layer);
  }
  // Reboot: snapshot restores the index + tables; SharedLayer kPreserve
  // must not clobber them with a cold re-index.
  auto layer = domains::build_crypto_layer();
  storage::DurableCatalog durable(*layer, {.dir = dir});
  ASSERT_TRUE(durable.boot_report().loaded_snapshot);
  EXPECT_NE(layer->peek_filter_plan(*layer->space().find(kOmm)), nullptr);
  SharedLayer shared(*layer, SharedLayer::Reindex::kPreserve);
  {
    const auto reader = shared.read_lock();
    EXPECT_EQ(dsl::export_layer(shared.layer()), journaled);
    EXPECT_NE(shared.layer().peek_filter_plan(*layer->space().find(kOmm)), nullptr);
  }
  // And the preserved state still answers queries.
  SessionManager manager(shared);
  std::ostringstream out;
  EXPECT_EQ(manager.execute("alice", cat("open ", kOmm), out), dsl::ShellEngine::Status::kOk);
}

}  // namespace
}  // namespace dslayer
