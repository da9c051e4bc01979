#include "service/shared_layer.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::service {

SharedLayer::SharedLayer(dsl::DesignSpaceLayer& layer, Reindex reindex) : layer_(&layer) {
  std::unique_lock<std::shared_timed_mutex> exclusive(mutex_);
  reindex_and_prime(/*inject=*/false, reindex);
  epoch_.store(1, std::memory_order_release);
}

std::int64_t SharedLayer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SharedLayer::writer_stall_ms() const {
  const std::int64_t since = writer_since_ns_.load(std::memory_order_acquire);
  if (since == 0) return 0.0;
  return static_cast<double>(now_ns() - since) / 1e6;
}

std::shared_lock<std::shared_timed_mutex> SharedLayer::read_lock_or_unavailable(
    double max_wait_ms) const {
  std::shared_lock<std::shared_timed_mutex> lock(mutex_, std::defer_lock);
  const auto budget =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(max_wait_ms));
  if (lock.try_lock_for(budget)) return lock;
  throw UnavailableError(
      cat("layer is degraded: a catalog writer has held the layer for ",
          format_double(writer_stall_ms(), 1), "ms (waited ", format_double(max_wait_ms, 1),
          "ms) — retry after the update publishes"));
}

dsl::DesignSpaceLayer::CatalogCounts SharedLayer::catalog_counts() const {
  std::shared_lock<std::shared_timed_mutex> lock(mutex_, std::try_to_lock);
  if (lock.owns_lock()) remember_catalog_counts();
  return {last_cores_.load(std::memory_order_relaxed),
          last_hydrated_.load(std::memory_order_relaxed)};
}

void SharedLayer::remember_catalog_counts() const {
  const dsl::DesignSpaceLayer::CatalogCounts counts = layer_->catalog_counts();
  last_cores_.store(counts.cores, std::memory_order_relaxed);
  last_hydrated_.store(counts.hydrated, std::memory_order_relaxed);
}

void SharedLayer::reindex_and_prime(bool inject, Reindex reindex) {
  if (inject) DSLAYER_FAILPOINT("service.shared_layer.prime");
  if (reindex == Reindex::kFull) layer_->index_cores();
  // Touch every lazily-built per-CDO cache so no reader ever takes the
  // map-inserting miss path. cores_under() also covers cores_at() (both
  // read indexes index_cores() just rebuilt).
  for (const dsl::Cdo* cdo : layer_->space().all()) {
    (void)layer_->constraint_index(*cdo);
    (void)layer_->cores_under(*cdo);
    // Rebuild the columnar filter plan (table + compiled predicate
    // programs) too, so post-publish candidate queries are pure hits.
    (void)layer_->filter_plan(*cdo);
  }
  remember_catalog_counts();
}

}  // namespace dslayer::service
