// Per-thread bump arena for per-sweep scratch (DESIGN.md §14).
//
// Every columnar filter sweep needs short-lived arrays whose sizes depend
// on the query: the survivor bitmask, resolved predicate terms and ops,
// vector-lane descriptors, and prefilter residual masks. Allocating them
// from the general heap put malloc/free on the hot path once per sweep —
// at service rates that is thousands of allocator round-trips per second
// for memory with a strictly stack-like lifetime.
//
// Arena is a monotonic bump allocator over a chain of geometrically
// growing blocks. allocate() is a pointer bump; nothing is freed until
// rewind()/reset(), which just move the high-water mark back (blocks are
// retained, so a steady-state sweep allocates no heap memory at all).
// Only trivially destructible types may live in an arena — alloc_array
// static_asserts it — because rewinding runs no destructors.
//
// Arena::scratch() is the per-thread instance the filter engine uses:
// each executor worker (and each bench/test thread) gets its own, so
// sweeps never contend. ArenaScope is the RAII guard: it records the
// mark on entry and rewinds on exit, making nested scratch users (a
// sweep calling a helper that also borrows scratch) compose safely.
// A sweep runs on one thread from start to finish, so its scratch is
// never shared.
//
// Footprint: a thread's arena keeps its high-water capacity until the
// thread exits (a 1M-row sweep's scratch is ~a few hundred KiB). That
// bound is part of the bench's bytes_per_core budget story: scratch is
// O(rows/64) words plus O(predicates) descriptors, never O(rows) boxed
// values.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

namespace dslayer::support {

class Arena {
 public:
  /// First block size; later blocks double (capped at 8 MiB per block).
  explicit Arena(std::size_t first_block_bytes = 64 * 1024);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (power of two, <= 16).
  void* allocate(std::size_t bytes, std::size_t align);

  /// Typed array of `n` default-initialized (i.e. uninitialized for
  /// scalars) elements. The caller fills it; nothing is destroyed.
  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is rewound without running destructors");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Position token for rewind(): everything allocated after mark() is
  /// released (retained for reuse) when the mark is rewound.
  struct Mark {
    std::size_t block = 0;
    std::size_t used = 0;
  };
  Mark mark() const { return {current_, blocks_.empty() ? 0 : blocks_[current_].used}; }
  void rewind(Mark m);

  /// Rewinds to empty; blocks are kept for reuse.
  void reset() { rewind({0, 0}); }

  /// Total capacity currently retained (the high-water footprint).
  std::size_t retained_bytes() const;

  /// This thread's scratch arena (created on first use, freed at thread
  /// exit). The filter engine's per-sweep allocations live here.
  static Arena& scratch();

 private:
  struct Block {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  Block& grow(std::size_t at_least);

  std::vector<Block> blocks_;
  std::size_t current_ = 0;
  std::size_t next_block_bytes_;
};

/// RAII watermark: rewinds the arena to the construction-time mark.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(&arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_->rewind(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* arena_;
  Arena::Mark mark_;
};

}  // namespace dslayer::support
