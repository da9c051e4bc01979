#include "fixture.hpp"

#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "domains/crypto.hpp"
#include "dsl/serialize.hpp"
#include "synthetic_library.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dslayer;

namespace {

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Identity of the running harness binary (size and mtime): a rebuilt
/// program may write or read snapshots differently, so its fixtures are
/// rebuilt too.
std::string binary_identity() {
  struct stat st {};
  if (::stat("/proc/self/exe", &st) != 0) return "unknown";
  return std::to_string(st.st_size) + "-" + std::to_string(st.st_mtim.tv_sec) + "." +
         std::to_string(st.st_mtim.tv_nsec);
}

std::string fixture_stamp(std::size_t synthetic_cores) {
  const auto layer = domains::build_crypto_layer();
  std::ostringstream stamp;
  stamp << "perfbench-fixture 1 cores=" << synthetic_cores << " hierarchy=" << std::hex
        << fnv1a(dsl::export_hierarchy(*layer)) << std::dec << " binary=" << binary_identity()
        << "\n";
  return stamp.str();
}

}  // namespace

std::string ensure_fixture(const std::string& cache_dir, std::size_t synthetic_cores,
                           double* built_s) {
  const std::string dir = cache_dir + "/cores-" + std::to_string(synthetic_cores);
  const std::string snapshot = dir + "/catalog.snap";
  const std::string stamp_path = dir + "/stamp";
  const std::string stamp = fixture_stamp(synthetic_cores);
  *built_s = 0.0;
  if (fs::exists(snapshot) && read_text(stamp_path) == stamp) return snapshot;

  const std::int64_t start = now_ns();
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    auto layer = domains::build_crypto_layer();
    bench::populate_synthetic_library(layer->add_library("syn-hardcores"), synthetic_cores);
    // The SharedLayer indexes the catalog and primes every CDO's filter
    // plan, exactly as a serving process has done before it checkpoints,
    // so the snapshot carries every table a booted server would hold.
    const service::SharedLayer primed(*layer);
    storage::write_snapshot(*layer, snapshot);
  }
  std::ofstream(stamp_path, std::ios::binary) << stamp;
  *built_s = ms_between(start, now_ns()) / 1000.0;
  return snapshot;
}

Catalog load_catalog(const std::string& snapshot_path) {
  Catalog catalog;
  catalog.layer = domains::build_crypto_layer();
  auto reindex = service::SharedLayer::Reindex::kFull;
  if (!snapshot_path.empty()) {
    const std::int64_t start = now_ns();
    catalog.boot = storage::load_snapshot(*catalog.layer, snapshot_path);
    catalog.boot_ms = ms_between(start, now_ns());
    reindex = service::SharedLayer::Reindex::kPreserve;
  }
  catalog.shared = std::make_unique<service::SharedLayer>(*catalog.layer, reindex);
  for (const dsl::ReuseLibrary* library : catalog.layer->libraries()) {
    catalog.cores += library->size();
  }
  return catalog;
}

void prepare_data_dir(const std::string& snapshot, const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = fs::path(dir) / "catalog.snap";
  std::error_code ec;
  fs::create_hard_link(snapshot, target, ec);
  if (ec) fs::copy_file(snapshot, target);
}

}  // namespace perfbench
