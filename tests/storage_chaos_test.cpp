// Kill-anywhere crash-recovery chaos (tier-2).
//
// Each iteration forks a child that applies a seed-derived mutation
// history to a DurableCatalog and — after a random number of completed
// operations — arms one random storage failpoint in crash-once mode, so
// the process std::abort()s at that write/fsync/rename boundary. The
// child appends the index of every ACKNOWLEDGED operation to a progress
// file (write + fsync) before moving on.
//
// The parent then reboots the catalog from the same directory and checks
// the recovered bytes (dsl::export_layer) against the oracle: replaying
// the operation prefix the child acknowledged, or that prefix plus the
// single in-flight operation — never anything else. Crashes land inside
// appends, checkpoint snapshot writes/renames, and WAL resets; recovery
// must be byte-identical every time, for at least 500 iterations.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "dsl/layer.hpp"
#include "dsl/serialize.hpp"
#include "storage/catalog_journal.hpp"
#include "storage/durable_catalog.hpp"
#include "storage/file_io.hpp"
#include "storage/wal.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace dslayer::storage {
namespace {

using dsl::Cdo;
using dsl::Core;
using dsl::DesignSpaceLayer;
using dsl::PredicateAtom;
using dsl::Property;
using dsl::PropertyPath;
using dsl::Value;
using dsl::ValueDomain;
using dslayer::Rng;

constexpr const char* kCrashSites[] = {
    "storage.wal.open",      "storage.wal.append",       "storage.wal.sync",
    "storage.wal.truncate",  "storage.snapshot.write",   "storage.snapshot.sync",
    "storage.snapshot.rename",
};

std::string scratch_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "dslayer_storage_chaos/" + tag;
  for (const std::string& name : list_directory(dir)) remove_file(dir + "/" + name);
  ensure_directory(dir);
  return dir;
}

std::unique_ptr<DesignSpaceLayer> make_layer() {
  auto layer = std::make_unique<DesignSpaceLayer>("chaos");
  Cdo& root = layer->space().add_root("Block");
  root.add_property(Property::generalized_issue("Speed", {"Fast", "Slow"}, ""));
  root.add_property(Property::design_issue("Width", ValueDomain::powers_of_two(), ""));
  root.specialize("Fast");
  root.specialize("Slow");
  return layer;
}

/// One step of the seed-derived history. kCheckpoint has no layer effect;
/// everything else is a CatalogRecord.
struct Op {
  bool checkpoint = false;
  CatalogRecord record;
};

std::vector<Op> make_ops(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  const std::uint64_t count = rng.next_in(2, 10);
  std::uint64_t core_serial = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t roll = rng.next_below(10);
    Op op;
    if (roll < 6) {
      std::vector<CoreRecord> cores;
      const std::uint64_t batch = rng.next_in(1, 4);
      for (std::uint64_t b = 0; b < batch; ++b) {
        Core core(cat("core_", seed, "_", core_serial++), "Block");
        core.bind("Speed", Value::text(rng.next_bool() ? "Fast" : "Slow"));
        if (rng.next_bool(0.7)) {
          core.bind("Width", Value::number(static_cast<double>(1u << rng.next_in(0, 7))));
        }
        if (rng.next_bool(0.5)) {
          core.set_metric("area", static_cast<double>(rng.next_in(1, 10000)));
        }
        cores.push_back(to_record(core));
      }
      op.record = CatalogRecord::add_cores(cat("lib", rng.next_below(2)), std::move(cores));
    } else if (roll < 7) {
      op.record = CatalogRecord::add_constraint(dsl::ConsistencyConstraint::inconsistent_when(
          cat("CC_", i), "chaos", {PropertyPath::parse("Speed@Block")},
          {PropertyPath::parse("Width@Block")},
          {PredicateAtom::equals("Speed", Value::text("Fast")),
           PredicateAtom::compares("Width", PredicateAtom::Cmp::kGe,
                                   static_cast<double>(1u << rng.next_in(4, 7)))}));
    } else if (roll < 8) {
      op.checkpoint = true;
    } else {
      op.record = CatalogRecord::index_cores();
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Oracle: the export after applying the first `prefix` ops to a fresh
/// layer (checkpoints skipped — they do not change the catalog).
std::string oracle_export(const std::vector<Op>& ops, std::size_t prefix) {
  auto layer = make_layer();
  for (std::size_t i = 0; i < prefix; ++i) {
    if (!ops[i].checkpoint) apply_record(*layer, ops[i].record);
  }
  return dsl::export_layer(*layer);
}

/// Child body: runs the history with a crash-once failpoint armed after
/// `arm_after` acknowledged ops, recording every ack in `progress_path`.
/// Never returns normally into gtest — _exit()s.
[[noreturn]] void run_child(const std::string& dir, const std::string& progress_path,
                            const std::vector<Op>& ops, const char* site,
                            std::size_t arm_after) {
  // A crash-once abort must not spend seconds dumping a million-core
  // address space per iteration.
  struct rlimit no_core = {0, 0};
  setrlimit(RLIMIT_CORE, &no_core);
  try {
    auto layer = make_layer();
    DurableCatalog durable(*layer, {.dir = dir});
    File progress = File::open_readwrite(progress_path);
    progress.seek_end();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i == arm_after) {
        support::FailpointRegistry::instance().arm(site, support::FailpointMode::kCrashOnce);
      }
      if (ops[i].checkpoint) {
        durable.checkpoint();
      } else {
        durable.apply_and_log(ops[i].record);
      }
      // Ack AFTER the operation is on disk: the oracle's lower bound.
      progress.write_all(cat(i, "\n"));
      progress.sync();
    }
    _exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos child failed: %s\n", e.what());
    _exit(3);
  }
}

/// Highest acknowledged op index + 1 (i.e. the acked prefix length).
std::size_t read_acked(const std::string& progress_path) {
  if (!path_exists(progress_path)) return 0;
  const std::string text = read_file(progress_path);
  std::size_t acked = 0;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) break;  // torn ack line: not acknowledged
    acked = std::stoull(text.substr(begin, end - begin)) + 1;
    begin = end + 1;
  }
  return acked;
}

TEST(StorageChaos, KillAnywhereRecoversByteIdentical) {
  Rng seed_rng(0xC4A05u);
  const int kIterations = 520;
  int crashes = 0;
  int clean_runs = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const std::uint64_t seed = seed_rng.next_u64();
    Rng rng(seed);
    const std::vector<Op> ops = make_ops(seed ^ 0x5eed);
    const char* site = kCrashSites[rng.next_below(std::size(kCrashSites))];
    const std::size_t arm_after = rng.next_below(ops.size());

    const std::string dir = scratch_dir(cat("iter", iteration));
    const std::string progress_path = cat(dir, "/progress");

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) run_child(dir, progress_path, ops, site, arm_after);

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    if (WIFSIGNALED(status)) {
      ASSERT_EQ(WTERMSIG(status), SIGABRT) << "iteration " << iteration;
      ++crashes;
    } else {
      ASSERT_TRUE(WIFEXITED(status));
      ASSERT_EQ(WEXITSTATUS(status), 0)
          << "iteration " << iteration << " child error (site " << site << ")";
      ++clean_runs;
    }

    // Reboot from whatever the crash left on disk.
    const std::size_t acked = read_acked(progress_path);
    auto rebooted = make_layer();
    std::string recovered;
    try {
      DurableOptions boot_options;
      boot_options.dir = dir;
      boot_options.verify_snapshot_payloads = true;
      DurableCatalog durable(*rebooted, boot_options);
      recovered = dsl::export_layer(*rebooted);
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iteration << " site " << site << " acked " << acked
             << ": recovery threw: " << e.what();
    }

    // The recovered catalog is the acked prefix, or acked + the single
    // in-flight op (acked but the crash hit between WAL append and the
    // progress-file ack). Nothing else is acceptable.
    const std::string at_acked = oracle_export(ops, acked);
    if (recovered != at_acked) {
      const std::size_t attempted = std::min(acked + 1, ops.size());
      EXPECT_EQ(recovered, oracle_export(ops, attempted))
          << "iteration " << iteration << " site " << site << " acked " << acked << "/"
          << ops.size();
    }
  }
  // The schedule must actually exercise crashes (and some clean runs, when
  // the armed site is never reached).
  EXPECT_GT(crashes, kIterations / 4) << "crashes " << crashes << " clean " << clean_runs;
  EXPECT_GT(clean_runs, 0);
  std::printf("chaos: %d crashes, %d clean runs across %d iterations\n", crashes, clean_runs,
              kIterations);
}

TEST(StorageChaos, RepeatedCrashesOnOneDirectoryConverge) {
  // A catalog that keeps crashing at different points must still converge
  // to the full history once a run completes: rerun the SAME history over
  // the SAME directory, crashing somewhere new each time, skipping the
  // already-acked prefix like a resuming importer would.
  const std::string dir = scratch_dir("converge");
  const std::string progress_path = cat(dir, "/progress");
  const std::vector<Op> ops = make_ops(424242);
  Rng rng(31337);
  int attempts = 0;
  for (; attempts < 200; ++attempts) {
    const char* site = kCrashSites[rng.next_below(std::size(kCrashSites))];
    const std::size_t already = read_acked(progress_path);
    if (already >= ops.size()) break;
    const std::size_t arm_after = already + rng.next_below(ops.size() - already);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Resume: replay recovery happens inside DurableCatalog's boot; the
      // child just continues from the acked prefix.
      struct rlimit no_core = {0, 0};
      setrlimit(RLIMIT_CORE, &no_core);
      try {
        auto layer = make_layer();
        DurableCatalog durable(*layer, {.dir = dir});
        File progress = File::open_readwrite(progress_path);
        progress.seek_end();
        for (std::size_t i = already; i < ops.size(); ++i) {
          if (i == arm_after) {
            support::FailpointRegistry::instance().arm(site,
                                                       support::FailpointMode::kCrashOnce);
          }
          if (ops[i].checkpoint) {
            durable.checkpoint();
          } else {
            durable.apply_and_log(ops[i].record);
          }
          progress.write_all(cat(i, "\n"));
          progress.sync();
        }
        _exit(0);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "converge child failed: %s\n", e.what());
        _exit(3);
      }
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    if (WIFEXITED(status)) {
      ASSERT_EQ(WEXITSTATUS(status), 0);
    }
  }
  ASSERT_LT(attempts, 200) << "history never completed";

  auto rebooted = make_layer();
  DurableCatalog durable(*rebooted, {.dir = dir});
  EXPECT_EQ(dsl::export_layer(*rebooted), oracle_export(ops, ops.size()));
}

}  // namespace
}  // namespace dslayer::storage
