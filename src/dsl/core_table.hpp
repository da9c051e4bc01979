// Columnar core store + compiled constraint kernels (DESIGN.md §10, §14).
//
// A plain candidate filter re-interprets every core on every cold query:
// string-keyed map lookups per decided issue, a merged-bindings map per
// core, and a violated() call per (core, predicate). This file is the
// data-oriented engine that replaces it:
//
//  * CoreTable — a structure-of-arrays snapshot of one CDO subtree's
//    cores. One contiguous column per bound property / metric (keyed by
//    interned Symbol), each with a presence bitmap (64 rows per word).
//    Columns are typed: all-number and all-text columns store raw
//    doubles / interned symbols; mixed-kind columns degrade to Values.
//    Payloads are padded to a whole number of 64-row words so the SIMD
//    kernels (support/simd.hpp) read full blocks branch-free; symbol
//    lookups go through sorted flat vectors, not std::map nodes.
//  * CompiledPredicate — a predicate ConsistencyConstraint (a
//    PredicateAtom conjunction) lowered once per index generation to
//    column indexes and comparison opcodes.
//  * CoreFilterPlan — CoreTable + one CompiledPredicate per predicate
//    constraint of the CDO's ConstraintIndex, built lazily by
//    DesignSpaceLayer::filter_plan() and primed by SharedLayer before
//    an epoch publishes.
//  * run_core_filter — evaluates a FilterQuery (the session's decided
//    issues, requirements, and bindings snapshot) over a plan into a
//    survivor bitmask, predicate by predicate. The mask is the answer:
//    sessions memoize it and fold_metric / fold_metric_by_key compute the
//    what-if ranges straight from it and the metric columns. Hot
//    predicate shapes (numeric compare vs constant / column with optional
//    factor, text symbol equality) run through the runtime-selected SIMD
//    kernel one 64-row word at a time; rows a word kernel cannot decide
//    (absent column value falling back to a session binding, mixed-kind
//    cells) are patched through the scalar interpreter, so survivors are
//    bit-identical to a scalar sweep. Per-sweep scratch (resolved terms
//    and ops) comes from the calling thread's bump arena
//    (support/arena.hpp); the returned mask is owned by the caller.
//    A sweep runs start to finish on the thread that called it, and
//    every word loop is a cancellation point: it calls
//    support::cancellation_checkpoint() every 16 mask words (1024 rows),
//    so a request deadline interrupts a large sweep mid-way.
//    Custom (opaque lambda) filters run interpreted on every row still
//    alive when they are reached.
//
// The engine matches that plain per-core scan exactly — same survivors,
// same ConstraintEvaluated / ComplianceCheck counter totals — which the
// tier-1 columnar oracle test enforces against a reference scan written in
// the test, on randomized libraries, with kernels forced to scalar and to
// the widest supported ISA.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dsl/constraint.hpp"
#include "dsl/core_library.hpp"
#include "support/symbol.hpp"

namespace dslayer::telemetry {
class Telemetry;
}

namespace dslayer::dsl {

/// Compliance predicate for one requirement (the DesignSpaceLayer
/// registry type; re-exported there as DesignSpaceLayer::CoreFilter).
using CoreFilter = std::function<bool(const Core&, const Bindings&)>;

/// One column payload: either owned (a vector, the build path) or aliasing
/// an external read-only buffer (an mmapped snapshot — the table's
/// keepalive pins the mapping). The subset of the vector interface the
/// engine uses; mutation is only valid on owned payloads, which is all the
/// build/degrade paths ever touch.
template <typename T>
class ColumnData {
 public:
  ColumnData() = default;
  ColumnData(const ColumnData& other) { *this = other; }
  ColumnData(ColumnData&& other) noexcept { *this = std::move(other); }
  ColumnData& operator=(const ColumnData& other) {
    if (this == &other) return *this;
    owned_ = other.owned_;
    size_ = other.size_;
    aliased_ = other.aliased_;
    data_ = aliased_ ? other.data_ : owned_.data();
    return *this;
  }
  ColumnData& operator=(ColumnData&& other) noexcept {
    if (this == &other) return *this;
    owned_ = std::move(other.owned_);
    size_ = other.size_;
    aliased_ = other.aliased_;
    data_ = aliased_ ? other.data_ : owned_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.aliased_ = false;
    return *this;
  }
  /// Adopts an owned vector (degrade path).
  ColumnData& operator=(std::vector<T>&& v) {
    owned_ = std::move(v);
    data_ = owned_.data();
    size_ = owned_.size();
    aliased_ = false;
    return *this;
  }

  void assign(std::size_t n, const T& value) {
    owned_.assign(n, value);
    data_ = owned_.data();
    size_ = n;
    aliased_ = false;
  }
  /// Points at `n` external elements; the owner must outlive this table
  /// (CoreTable's keepalive).
  void alias(const T* external, std::size_t n) {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = const_cast<T*>(external);
    size_ = n;
    aliased_ = true;
  }
  void clear() {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = nullptr;
    size_ = 0;
    aliased_ = false;
  }

  T* data() { return data_; }  ///< writes valid only while owned
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool aliased() const { return aliased_; }
  /// Heap bytes held (0 when aliasing a file-backed buffer) — what
  /// memory_bytes() sums.
  std::size_t resident_bytes() const {
    return aliased_ ? 0 : owned_.capacity() * sizeof(T);
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
  bool aliased_ = false;
  std::vector<T> owned_;
};

class CoreTable {
 public:
  enum class ColumnKind : std::uint8_t {
    kNumber,  ///< every present value is a number -> raw doubles
    kText,    ///< every present value is text -> interned symbols
    kMixed,   ///< heterogeneous (or flag) -> boxed Values
  };

  struct Column {
    support::Symbol symbol = support::kNoSymbol;
    ColumnKind kind = ColumnKind::kNumber;
    ColumnData<std::uint64_t> present;       ///< presence bitmap, 64 rows/word
    ColumnData<double> numbers;              ///< kNumber payload (padded to words*64)
    ColumnData<support::Symbol> texts;       ///< kText payload (padded to words*64)
    std::vector<Value> values;               ///< kMixed payload (always owned)

    bool has(std::size_t row) const {
      return (present[row >> 6] >> (row & 63)) & 1u;
    }
  };

  /// Snapshots `cores` (row order preserved — it is the candidates()
  /// output order). Text values are interned as they are stored. Column
  /// payloads are fully sized up front from the core count (padded to
  /// whole 64-row words for the SIMD kernels).
  explicit CoreTable(const std::vector<const Core*>& cores);

  /// Bulk-restore for snapshot load (src/storage/snapshot.cpp): adopts
  /// pre-built columns whose payloads may alias an external buffer pinned
  /// by `keepalive` (the mmapped snapshot). Rebuilds the symbol indexes;
  /// row/column semantics are the caller's responsibility — the snapshot
  /// format stores columns exactly as the building constructor lays them
  /// out.
  CoreTable(std::vector<const Core*> cores, std::vector<Column> binding_columns,
            std::vector<Column> metric_columns, std::shared_ptr<const void> keepalive);

  std::size_t rows() const { return cores_.size(); }
  std::size_t words() const { return words_; }
  const std::vector<const Core*>& cores() const { return cores_; }

  /// Binding / metric column for a symbol; nullptr if no indexed core
  /// binds it. References are stable for the table's lifetime. Lookup is
  /// a binary search over a sorted flat vector (symbols are dense u32).
  const Column* binding_column(support::Symbol symbol) const;
  const Column* metric_column(support::Symbol symbol) const;

  std::size_t binding_column_count() const { return binding_columns_.size(); }
  std::size_t metric_column_count() const { return metric_columns_.size(); }

  /// Column directories in slot order — the snapshot writer walks these.
  const std::vector<Column>& binding_columns() const { return binding_columns_; }
  const std::vector<Column>& metric_columns() const { return metric_columns_; }

  /// Approximate resident bytes of the snapshot (payloads + bitmaps +
  /// row pointers + indexes). Deterministic for a given library, which
  /// is what lets the bench gate bytes_per_core like a counter.
  std::size_t memory_bytes() const;

 private:
  /// Sorted (symbol, column slot) pairs — the flat replacement for the
  /// former std::map indexes.
  using SymbolIndex = std::vector<std::pair<support::Symbol, std::uint32_t>>;

  Column& column_for(SymbolIndex& index, std::vector<Column>& columns, support::Symbol symbol,
                     ColumnKind kind);
  static const Column* lookup(const SymbolIndex& index, const std::vector<Column>& columns,
                              support::Symbol symbol);
  void store(Column& column, std::size_t row, const Value& value);
  void degrade_to_mixed(Column& column);

  std::vector<const Core*> cores_;
  std::size_t words_ = 0;
  std::size_t padded_rows_ = 0;  ///< words_ * 64
  std::vector<Column> binding_columns_;
  std::vector<Column> metric_columns_;
  SymbolIndex binding_index_;
  SymbolIndex metric_index_;
  std::shared_ptr<const void> keepalive_;  ///< pins aliased payload backing
};

/// One predicate constraint lowered against a CoreTable.
struct CompiledPredicate {
  /// A property reference or constant inside an atom, resolved against
  /// the table: `column` >= 0 means a binding column exists for the
  /// symbol; the constant payload covers literals (session fallbacks are
  /// resolved per query, not here).
  struct Term {
    support::Symbol symbol = support::kNoSymbol;  ///< kNoSymbol => pure constant
    std::int32_t column = -1;                     ///< >= 0: table has a binding column
    Value::Kind const_kind = Value::Kind::kEmpty;
    double number = 0.0;
    support::Symbol text = support::kNoSymbol;
    bool flag = false;
  };

  /// One atom: lhs [* factor] <cmp> rhs.
  struct Op {
    PredicateAtom::Cmp cmp = PredicateAtom::Cmp::kEq;
    Term lhs;
    Term factor;  ///< engaged iff has_factor
    Term rhs;
    bool has_factor = false;
  };

  const ConsistencyConstraint* constraint = nullptr;
  std::vector<Term> references;  ///< every referenced property (dedup'd)
  std::vector<Op> ops;
};

/// Everything candidates() needs for one CDO, built once per index
/// generation: the columnar table over cores_under(cdo) plus one
/// CompiledPredicate per ConstraintIndex predicate (same order).
struct CoreFilterPlan {
  CoreTable table;
  std::vector<CompiledPredicate> predicates;

  CoreFilterPlan(const std::vector<const Core*>& cores,
                 const std::vector<const ConsistencyConstraint*>& predicate_constraints);

  /// Adopts an already-built (snapshot-restored) table and compiles the
  /// predicate programs against it — plan restore never re-scans cores.
  CoreFilterPlan(CoreTable restored,
                 const std::vector<const ConsistencyConstraint*>& predicate_constraints);

 private:
  void compile(const std::vector<const ConsistencyConstraint*>& predicate_constraints);
};

/// The session side of a columnar filter run: the decided design issues,
/// the declarative / custom requirements, and the bindings snapshot that
/// backfills properties no core column answers.
struct FilterQuery {
  struct Equality {
    support::Symbol symbol = support::kNoSymbol;  ///< kNoSymbol: name never interned
    Value value;
  };
  struct MetricBound {
    support::Symbol symbol = support::kNoSymbol;
    bool at_most = false;  ///< kCoreAtMost; else kCoreAtLeast
    double bound = 0.0;
  };

  const Bindings* bound = nullptr;       ///< session bindings snapshot
  std::vector<Equality> decided;         ///< step 1: core-filtering decisions
  std::vector<Equality> require_equal;   ///< step 2: kCoreEquals requirements
  std::vector<MetricBound> require_metric;  ///< step 2: kCoreAtMost/AtLeast
  std::vector<const CoreFilter*> custom;    ///< step 2: registered filters
};

/// The sweep's answer: one bit per row of the plan's table (64 rows per
/// word, bits past rows() clear) and the number of bits set. Row r
/// survives iff bit r is set; table.cores()[r] is its core.
struct SurvivorMask {
  std::vector<std::uint64_t> words;
  std::size_t count = 0;
};

/// Runs the filter; returns the survivor mask over the plan's table rows
/// (cores_under() order). Counts kComplianceCheck once per row and
/// kConstraintEvaluated per (row, predicate) actually reached, exactly
/// like a per-core loop with early exit. Throws DeadlineExceeded when the
/// calling thread's deadline passes mid-sweep (the counts already made
/// stay counted; the caller keeps no half-built mask).
SurvivorMask run_core_filter(const CoreFilterPlan& plan, const FilterQuery& query,
                             telemetry::Telemetry& telemetry);

/// Min / max / count of one figure of merit over a set of rows, folded in
/// ascending row order (DESIGN.md §14, the NaN fold rule): the first value
/// seeds min and max; each later value v replaces min iff v < min and max
/// iff max < v — std::min / std::max applied row by row. So every present
/// cell counts, NaN included; a NaN never moves min or max unless it is
/// the first value, which then sticks to both; on equal values (+0 / -0)
/// the earlier row's value wins.
struct MetricRange {
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;

  void fold(double v) {
    if (count == 0) {
      min = max = v;
    } else {
      min = v < min ? v : min;
      max = max < v ? v : max;
    }
    ++count;
  }
};

/// Folds the metric column over the rows in [begin_row, end_row) that are
/// set in `mask` and present in the column.
MetricRange fold_metric(const CoreTable::Column& metric, const SurvivorMask& mask,
                        std::size_t begin_row, std::size_t end_row);

/// One grouped pass over `mask`: groups[i] folds the metric column over
/// the surviving rows whose `key` binding is the text interned as keys[i].
/// Rows whose binding is absent, not text, or none of the keys fold
/// nowhere (a kNumber key column folds nothing). `groups` is resized to
/// keys.size().
void fold_metric_by_key(const CoreTable::Column& metric, const CoreTable::Column& key,
                        const SurvivorMask& mask, const std::vector<support::Symbol>& keys,
                        std::vector<MetricRange>& groups);

}  // namespace dslayer::dsl
