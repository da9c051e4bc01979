// Thread-safe shared access to one DesignSpaceLayer (DESIGN.md §9).
//
// The paper's Fig. 1 shows several designers and IP providers around one
// design space layer: designers explore (read) while providers update
// catalogs (write). SharedLayer turns that picture into a concurrency
// contract over the single-threaded DesignSpaceLayer:
//
//   * readers — exploration sessions executing queries/decisions — hold a
//     SHARED lock, so any number run at once;
//   * writers — catalog updates (`library()->add(...)` + re-index) and
//     add_constraint() — get an EXCLUSIVE epoch: the writer runs alone,
//     the layer is re-indexed and every lazily-filled query cache is
//     re-primed, and the epoch counter is bumped.
//
// The epoch bump is the coherence signal: session-side memoized query
// caches keyed to the old epoch are stale, and SessionManager rebuilds
// such sessions deterministically from their replay journals before
// letting them touch the new layer (migration-by-replay).
//
// Why prime()? DesignSpaceLayer fills its per-CDO constraint and subtree
// indexes lazily inside logically-const queries. A first-touch miss under
// a shared lock would be a data race (two readers inserting into the same
// std::map). prime() walks every CDO under the exclusive lock and touches
// every such cache, so readers only ever hit the populated, structurally
// immutable fast path (const find + relaxed-atomic counter bumps).
//
// Failure model (DESIGN.md §11): a writer that throws — its own fault or
// an injected "service.shared_layer.prime" failpoint — must not strand
// readers on half-primed caches. write() re-primes best-effort, STILL
// publishes a new epoch (forcing every session through migration, the
// conservative direction), and only then rethrows. A stalled writer is
// observable via writer_stall_ms(); readers that refuse to block behind
// it use read_lock_or_unavailable(), which fails fast with
// UnavailableError once the wait budget is spent — the service's
// degraded read-only path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "dsl/layer.hpp"
#include "support/failpoint.hpp"

namespace dslayer::service {

class SharedLayer {
 public:
  /// How a writer epoch rebuilds the layer's indexes before publishing.
  enum class Reindex {
    kFull,      ///< index_cores() + prime — any mutation may have happened
    kPreserve,  ///< prime only — the writer restored a snapshot index
                ///< (dsl::DesignSpaceLayer::restore_index) that a re-index
                ///< would discard, wasting the mmap'd tables it aliased
  };

  /// Wraps (does not own) a fully built layer. Primes every query cache
  /// immediately so readers can start at epoch 1. `reindex` is kPreserve
  /// when the caller already indexed the layer (snapshot boot).
  explicit SharedLayer(dsl::DesignSpaceLayer& layer, Reindex reindex = Reindex::kFull);

  SharedLayer(const SharedLayer&) = delete;
  SharedLayer& operator=(const SharedLayer&) = delete;

  /// The current coherence generation. Bumped once per write() — even a
  /// failed write publishes (see class comment); a session built at an
  /// older epoch must be migrated before its next command.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Acquires the shared (reader) lock for the caller's scope, waiting as
  /// long as it takes. Every access to layer() outside write() must
  /// happen under one of these.
  std::shared_lock<std::shared_timed_mutex> read_lock() const {
    return std::shared_lock<std::shared_timed_mutex>(mutex_);
  }

  /// Bounded-wait reader lock: waits up to `max_wait_ms`, then throws
  /// UnavailableError (retryable) naming how long the current writer has
  /// been stalling. This is the degraded-mode entry: callers convert the
  /// throw into a fast kUnavailable response instead of queueing designer
  /// requests behind a wedged catalog update.
  std::shared_lock<std::shared_timed_mutex> read_lock_or_unavailable(double max_wait_ms) const;

  /// Milliseconds the current exclusive writer has held the layer, or 0
  /// when no writer is active. Thread-safe; monotonic-clock based.
  double writer_stall_ms() const;

  /// How long the most recent write() held the exclusive lock, in ms.
  double last_write_hold_ms() const {
    return static_cast<double>(last_hold_ns_.load(std::memory_order_acquire)) / 1e6;
  }

  /// The layer's catalog gauges (cores, hydrated cores) for `!stats` and
  /// `!metrics`. Never waits: while a writer holds the layer it returns
  /// the figures of the last call that got the read lock.
  dsl::DesignSpaceLayer::CatalogCounts catalog_counts() const;

  /// The wrapped layer. Const: readers cannot mutate it by construction.
  const dsl::DesignSpaceLayer& layer() const { return *layer_; }

  /// One exclusive writer epoch: runs `fn` on the mutable layer with all
  /// readers excluded, then re-indexes cores, re-primes every query
  /// cache, and publishes the new epoch. `fn` may add cores, libraries,
  /// constraints, CDOs — anything a layer author could do.
  ///
  /// Exception safety: if `fn` (or an injected fault) throws, the caches
  /// are re-primed best-effort and a new epoch is still published before
  /// the exception escapes, so readers never observe a half-written
  /// un-published layer. The "service.shared_layer.publish" failpoint
  /// fires before `fn` (an error there aborts the write untouched, but
  /// still costs an epoch); "service.shared_layer.prime" fires inside the
  /// re-prime (an error there exercises the partial-write recovery path);
  /// a delay at either site is the stalled-writer scenario.
  template <typename Fn>
  std::uint64_t write(Fn&& fn, Reindex reindex = Reindex::kFull) {
    std::unique_lock<std::shared_timed_mutex> exclusive(mutex_);
    const WriterMark mark(*this);
    DSLAYER_FAILPOINT("service.shared_layer.publish");
    try {
      fn(*layer_);
      reindex_and_prime(/*inject=*/true, reindex);
    } catch (...) {
      // fn may have partially mutated the layer, or prime may have been
      // interrupted: restore the readers-only-see-primed-caches invariant
      // (swallowing nested faults — this path must complete), publish so
      // every session migrates off the suspect epoch, then surface the
      // original fault to the writer.
      try {
        // Always the full rebuild here: the failed writer may have left
        // any restored index half-applied.
        reindex_and_prime(/*inject=*/false, Reindex::kFull);
      } catch (...) {
      }
      publish_next_epoch();
      throw;
    }
    return publish_next_epoch();
  }

 private:
  /// RAII writer-stall marker: stamps writer_since_ns_ while the
  /// exclusive lock is held so readers can measure the stall.
  struct WriterMark {
    explicit WriterMark(const SharedLayer& owner) : owner_(owner) {
      owner_.writer_since_ns_.store(now_ns(), std::memory_order_release);
    }
    ~WriterMark() {
      const std::int64_t since = owner_.writer_since_ns_.exchange(0, std::memory_order_acq_rel);
      owner_.last_hold_ns_.store(now_ns() - since, std::memory_order_release);
    }
    const SharedLayer& owner_;
  };

  static std::int64_t now_ns();

  /// index_cores() (skipped under Reindex::kPreserve) + first-touch of
  /// every per-CDO lazy cache. Caller must hold the exclusive lock (or be
  /// the constructor). `inject` arms the "service.shared_layer.prime"
  /// failpoint site; the recovery re-prime passes false so it cannot
  /// re-fire into its own cleanup.
  void reindex_and_prime(bool inject, Reindex reindex);

  /// Reads the layer's catalog counts into last_cores_/last_hydrated_.
  /// Caller holds the lock, shared or exclusive.
  void remember_catalog_counts() const;

  std::uint64_t publish_next_epoch() {
    const std::uint64_t next = epoch_.load(std::memory_order_relaxed) + 1;
    epoch_.store(next, std::memory_order_release);
    return next;
  }

  dsl::DesignSpaceLayer* layer_;
  mutable std::shared_timed_mutex mutex_;
  std::atomic<std::uint64_t> epoch_{0};
  mutable std::atomic<std::int64_t> writer_since_ns_{0};
  mutable std::atomic<std::int64_t> last_hold_ns_{0};
  mutable std::atomic<std::size_t> last_cores_{0};
  mutable std::atomic<std::size_t> last_hydrated_{0};
};

}  // namespace dslayer::service
