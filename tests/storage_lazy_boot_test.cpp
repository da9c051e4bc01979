// Lazy snapshot boot: load_snapshot builds no Core. Each restored core is
// an unfilled slot that decodes itself on first read (dsl/core_library.hpp).
// These tests pin the contract: boot and prime fill nothing, what a
// lazily booted layer renders is byte-identical to the code-built
// original, a checkpoint after a lazy boot reproduces the snapshot's bytes
// without filling, and concurrent readers fill each slot exactly once.
// The concurrency case also runs under ThreadSanitizer (scripts/ci.sh).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "domains/crypto.hpp"
#include "dsl/exploration.hpp"
#include "dsl/serialize.hpp"
#include "service/shared_layer.hpp"
#include "snapshot_layout.hpp"
#include "storage/file_io.hpp"
#include "storage/snapshot.hpp"
#include "support/error.hpp"

namespace dslayer {
namespace {

using service::SharedLayer;

std::string scratch_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "dslayer_lazy_boot/" +
                          info->test_suite_name() + "." + info->name();
  for (const std::string& name : storage::list_directory(dir)) {
    storage::remove_file(dir + "/" + name);
  }
  storage::ensure_directory(dir);
  return dir;
}

std::size_t hydrated(const dsl::DesignSpaceLayer& layer) {
  return layer.catalog_counts().hydrated;
}

/// The crypto layer as a serving process checkpoints it: indexed, with
/// every CDO's filter plan primed, so the snapshot carries every table.
struct Fixture {
  Fixture() : original(domains::build_crypto_layer()), path(scratch_dir() + "/catalog.snap") {
    const SharedLayer primed(*original);
    storage::write_snapshot(*original, path);
  }

  std::unique_ptr<dsl::DesignSpaceLayer> boot() const {
    auto layer = domains::build_crypto_layer();
    storage::load_snapshot(*layer, path);
    return layer;
  }

  std::unique_ptr<dsl::DesignSpaceLayer> original;
  std::string path;
};

TEST(LazyBoot, BootAndPrimeFillNoCore) {
  const Fixture fixture;
  const auto layer = fixture.boot();
  const dsl::DesignSpaceLayer::CatalogCounts counts = layer->catalog_counts();
  EXPECT_EQ(counts.cores, fixture.original->catalog_counts().cores);
  EXPECT_GT(counts.cores, 0u);
  EXPECT_EQ(counts.hydrated, 0u);

  const SharedLayer shared(*layer, SharedLayer::Reindex::kPreserve);
  EXPECT_EQ(shared.catalog_counts().hydrated, 0u);
  // Counting and sweeping a session reads columns, not cores.
  dsl::ExplorationSession session(*layer, domains::kPathOMM);
  EXPECT_GT(session.candidate_count(), 0u);
  EXPECT_GT(session.candidates().size(), 0u);
  EXPECT_EQ(hydrated(*layer), 0u);
}

TEST(LazyBoot, RenderingMatchesTheCodeBuiltLayer) {
  const Fixture fixture;
  const auto layer = fixture.boot();
  const SharedLayer shared(*layer, SharedLayer::Reindex::kPreserve);

  std::set<const dsl::Core*> touched;
  for (const dsl::Cdo* cdo : fixture.original->space().all()) {
    dsl::ExplorationSession want(*fixture.original, cdo->path());
    dsl::ExplorationSession got(*layer, cdo->path());
    const std::vector<const dsl::Core*>& want_rows = want.candidates();
    const std::vector<const dsl::Core*>& got_rows = got.candidates();
    ASSERT_EQ(got_rows.size(), want_rows.size()) << cdo->path();
    for (std::size_t i = 0; i < want_rows.size(); ++i) {
      EXPECT_EQ(got_rows[i]->describe(), want_rows[i]->describe()) << cdo->path();
      touched.insert(got_rows[i]);
    }
  }
  EXPECT_GT(touched.size(), 0u);
  EXPECT_EQ(hydrated(*layer), touched.size());

  EXPECT_EQ(dsl::export_layer(*layer), dsl::export_layer(*fixture.original));
  EXPECT_EQ(hydrated(*layer), layer->catalog_counts().cores);
}

TEST(LazyBoot, CheckpointAfterLazyBootIsByteIdenticalAndFillsNothing) {
  const Fixture fixture;
  const auto layer = fixture.boot();
  const SharedLayer shared(*layer, SharedLayer::Reindex::kPreserve);
  const std::string again = fixture.path + ".again";
  storage::write_snapshot(*layer, again);
  EXPECT_EQ(hydrated(*layer), 0u);
  EXPECT_EQ(testing_support::read_bytes(again), testing_support::read_bytes(fixture.path));

  // A partly filled catalog writes the same bytes too.
  const dsl::Cdo& omm = *layer->space().find(domains::kPathOMM);
  const std::vector<const dsl::Core*>& rows = layer->cores_under(omm);
  ASSERT_GE(rows.size(), 2u);
  (void)rows.front()->describe();
  (void)rows.back()->name();
  EXPECT_EQ(hydrated(*layer), 2u);
  storage::write_snapshot(*layer, again);
  EXPECT_EQ(hydrated(*layer), 2u);
  EXPECT_EQ(testing_support::read_bytes(again), testing_support::read_bytes(fixture.path));
}

TEST(LazyBoot, RestoredLibraryRejectsDuplicatesWithoutFilling) {
  const Fixture fixture;
  const auto layer = fixture.boot();
  dsl::ReuseLibrary* library = nullptr;
  for (const dsl::ReuseLibrary* lib : layer->libraries()) {
    if (lib->size() > 0) library = layer->library(lib->name());
  }
  ASSERT_NE(library, nullptr);
  const dsl::Core* first = library->cores().front();
  const std::string name = fixture.original->library(library->name())->cores().front()->name();

  dsl::Core twin(name, domains::kPathOMM);
  EXPECT_THROW(library->add(twin), DefinitionError);
  EXPECT_EQ(hydrated(*layer), 0u);

  const std::size_t before = library->size();
  library->add(dsl::Core("lazy_boot_new_core", domains::kPathOMM));
  EXPECT_EQ(library->size(), before + 1);
  EXPECT_EQ(hydrated(*layer), 1u);  // the added core is born filled
  EXPECT_EQ(first->name(), name);   // slots keep their address across add()
  EXPECT_EQ(hydrated(*layer), 2u);
}

TEST(LazyBoot, ConcurrentReadersFillEachCoreOnce) {
  const Fixture fixture;
  const auto layer = fixture.boot();
  const SharedLayer shared(*layer, SharedLayer::Reindex::kPreserve);
  dsl::ExplorationSession reference(*fixture.original, domains::kPathOMM);
  const std::vector<const dsl::Core*>& expected = reference.candidates();
  const std::size_t n = expected.size();
  ASSERT_GT(n, 16u);

  // Thread t renders rows [t*n/16, t*n/16 + n/2): every row is read by
  // several threads, and neighbouring windows overlap.
  constexpr std::size_t kThreads = 8;
  const auto window = [n](std::size_t t) { return std::pair{t * n / 16, t * n / 16 + n / 2}; };
  std::set<std::size_t> distinct;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = window(t).first; i < window(t).second; ++i) distinct.insert(i);
  }

  std::vector<std::vector<std::string>> seen(kThreads);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      const auto lock = shared.read_lock();
      dsl::ExplorationSession session(shared.layer(), domains::kPathOMM);
      const std::vector<const dsl::Core*>& rows = session.candidates();
      for (std::size_t i = window(t).first; i < window(t).second; ++i) {
        seen[t].push_back(rows[i]->describe());
      }
    });
  }
  for (std::thread& reader : readers) reader.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), n / 2);
    for (std::size_t k = 0; k < seen[t].size(); ++k) {
      EXPECT_EQ(seen[t][k], expected[window(t).first + k]->describe()) << "thread " << t;
    }
  }
  EXPECT_EQ(hydrated(*layer), distinct.size());
}

}  // namespace
}  // namespace dslayer
