#include "dsl/core_table.hpp"

#include <algorithm>
#include <bit>
#include <new>
#include <type_traits>

#include "support/arena.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/simd.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace dslayer::dsl {

namespace simd = support::simd;

// The word kernels take the comparison opcode by value; keep the two
// enums numerically interchangeable so lowering is a static_cast.
static_assert(static_cast<int>(simd::Cmp::kEq) == static_cast<int>(PredicateAtom::Cmp::kEq) &&
              static_cast<int>(simd::Cmp::kNe) == static_cast<int>(PredicateAtom::Cmp::kNe) &&
              static_cast<int>(simd::Cmp::kLt) == static_cast<int>(PredicateAtom::Cmp::kLt) &&
              static_cast<int>(simd::Cmp::kLe) == static_cast<int>(PredicateAtom::Cmp::kLe) &&
              static_cast<int>(simd::Cmp::kGt) == static_cast<int>(PredicateAtom::Cmp::kGt) &&
              static_cast<int>(simd::Cmp::kGe) == static_cast<int>(PredicateAtom::Cmp::kGe));
static_assert(std::is_same_v<support::Symbol, std::uint32_t>,
              "eq_sym kernels read text columns as raw u32 streams");

namespace {

// Mask words between two cancellation checkpoints of a sweep loop. The
// checkpoint reads the clock only every kCheckpointStride (64) calls, so a
// 1M-row step (15625 words) reads it about 15 times: a deadline fires
// within ~65k rows of passing.
constexpr std::size_t kWordsPerCheckpoint = 16;

simd::Cmp to_simd(PredicateAtom::Cmp cmp) { return static_cast<simd::Cmp>(cmp); }

std::size_t popcount(const std::uint64_t* mask, std::size_t words) {
  std::size_t n = 0;
  for (std::size_t w = 0; w < words; ++w) n += static_cast<std::size_t>(std::popcount(mask[w]));
  return n;
}

void mark(ColumnData<std::uint64_t>& bits, std::size_t row) {
  bits[row >> 6] |= (std::uint64_t{1} << (row & 63));
}

}  // namespace

// ---------------------------------------------------------------------------
// CoreTable

CoreTable::CoreTable(const std::vector<const Core*>& cores) : cores_(cores) {
  words_ = (cores_.size() + 63) / 64;
  padded_rows_ = words_ * 64;
  if (!cores_.empty()) {
    // Reserve the column directories from the first core's shape (the
    // synthetic and real libraries are near-rectangular); growth past the
    // reservation is still correct, just a reallocation.
    const std::size_t binding_guess = cores_.front()->bindings().size() + 8;
    const std::size_t metric_guess = cores_.front()->metrics().size() + 8;
    binding_columns_.reserve(binding_guess);
    binding_index_.reserve(binding_guess);
    metric_columns_.reserve(metric_guess);
    metric_index_.reserve(metric_guess);
  }
  for (std::size_t row = 0; row < cores_.size(); ++row) {
    for (const CoreBinding& b : cores_[row]->bindings()) {
      const ColumnKind kind = b.value.kind() == Value::Kind::kNumber ? ColumnKind::kNumber
                              : b.value.kind() == Value::Kind::kText ? ColumnKind::kText
                                                                     : ColumnKind::kMixed;
      store(column_for(binding_index_, binding_columns_, b.symbol, kind), row, b.value);
    }
    for (const CoreMetric& m : cores_[row]->metrics()) {
      Column& column =
          column_for(metric_index_, metric_columns_, m.symbol, ColumnKind::kNumber);
      column.numbers[row] = m.value;
      mark(column.present, row);
    }
  }
}

CoreTable::CoreTable(std::vector<const Core*> cores, std::vector<Column> binding_columns,
                     std::vector<Column> metric_columns, std::shared_ptr<const void> keepalive)
    : cores_(std::move(cores)),
      binding_columns_(std::move(binding_columns)),
      metric_columns_(std::move(metric_columns)),
      keepalive_(std::move(keepalive)) {
  words_ = (cores_.size() + 63) / 64;
  padded_rows_ = words_ * 64;
  const auto rebuild_index = [](SymbolIndex& index, const std::vector<Column>& columns) {
    index.clear();
    index.reserve(columns.size());
    for (std::uint32_t slot = 0; slot < columns.size(); ++slot) {
      index.emplace_back(columns[slot].symbol, slot);
    }
    std::sort(index.begin(), index.end());
  };
  rebuild_index(binding_index_, binding_columns_);
  rebuild_index(metric_index_, metric_columns_);
}

CoreTable::Column& CoreTable::column_for(SymbolIndex& index, std::vector<Column>& columns,
                                         support::Symbol symbol, ColumnKind kind) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), symbol,
      [](const SymbolIndex::value_type& entry, support::Symbol s) { return entry.first < s; });
  if (it != index.end() && it->first == symbol) {
    Column& column = columns[it->second];
    if (column.kind != kind && column.kind != ColumnKind::kMixed) degrade_to_mixed(column);
    return column;
  }
  index.insert(it, {symbol, static_cast<std::uint32_t>(columns.size())});
  Column& column = columns.emplace_back();
  column.symbol = symbol;
  column.kind = kind;
  column.present.assign(words_, 0);
  // Payloads cover the padded row range so the word kernels can read a
  // whole 64-lane block without a tail branch.
  switch (kind) {
    case ColumnKind::kNumber: column.numbers.assign(padded_rows_, 0.0); break;
    case ColumnKind::kText: column.texts.assign(padded_rows_, support::kNoSymbol); break;
    case ColumnKind::kMixed:
      column.values.assign(padded_rows_, Value{});
      column.texts.assign(padded_rows_, support::kNoSymbol);
      break;
  }
  return column;
}

void CoreTable::degrade_to_mixed(Column& column) {
  std::vector<Value> values(padded_rows_);
  std::vector<support::Symbol> texts(padded_rows_, support::kNoSymbol);
  for (std::size_t row = 0; row < cores_.size(); ++row) {
    if (!column.has(row)) continue;
    if (column.kind == ColumnKind::kNumber) {
      values[row] = Value::number(column.numbers[row]);
    } else {
      values[row] = Value::text(support::symbol_name(column.texts[row]));
      texts[row] = column.texts[row];
    }
  }
  column.kind = ColumnKind::kMixed;
  column.numbers.clear();
  column.values = std::move(values);
  column.texts = std::move(texts);
}

void CoreTable::store(Column& column, std::size_t row, const Value& value) {
  switch (column.kind) {
    case ColumnKind::kNumber:
      column.numbers[row] = value.as_number();
      break;
    case ColumnKind::kText:
      column.texts[row] = support::intern_symbol(value.as_text());
      break;
    case ColumnKind::kMixed:
      column.values[row] = value;
      column.texts[row] = value.kind() == Value::Kind::kText
                              ? support::intern_symbol(value.as_text())
                              : support::kNoSymbol;
      break;
  }
  mark(column.present, row);
}

const CoreTable::Column* CoreTable::lookup(const SymbolIndex& index,
                                           const std::vector<Column>& columns,
                                           support::Symbol symbol) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), symbol,
      [](const SymbolIndex::value_type& entry, support::Symbol s) { return entry.first < s; });
  return it != index.end() && it->first == symbol ? &columns[it->second] : nullptr;
}

const CoreTable::Column* CoreTable::binding_column(support::Symbol symbol) const {
  return lookup(binding_index_, binding_columns_, symbol);
}

const CoreTable::Column* CoreTable::metric_column(support::Symbol symbol) const {
  return lookup(metric_index_, metric_columns_, symbol);
}

std::size_t CoreTable::memory_bytes() const {
  const auto column_bytes = [](const Column& column) {
    return sizeof(Column) + column.present.resident_bytes() + column.numbers.resident_bytes() +
           column.texts.resident_bytes() + column.values.capacity() * sizeof(Value);
  };
  std::size_t total = sizeof(CoreTable);
  total += cores_.capacity() * sizeof(const Core*);
  total += binding_index_.capacity() * sizeof(SymbolIndex::value_type);
  total += metric_index_.capacity() * sizeof(SymbolIndex::value_type);
  for (const Column& column : binding_columns_) total += column_bytes(column);
  for (const Column& column : metric_columns_) total += column_bytes(column);
  return total;
}

// ---------------------------------------------------------------------------
// CoreFilterPlan

CoreFilterPlan::CoreFilterPlan(
    const std::vector<const Core*>& cores,
    const std::vector<const ConsistencyConstraint*>& predicate_constraints)
    : table(cores) {
  compile(predicate_constraints);
}

CoreFilterPlan::CoreFilterPlan(
    CoreTable restored, const std::vector<const ConsistencyConstraint*>& predicate_constraints)
    : table(std::move(restored)) {
  compile(predicate_constraints);
}

void CoreFilterPlan::compile(
    const std::vector<const ConsistencyConstraint*>& predicate_constraints) {
  const auto property_term = [&](const std::string& name) {
    CompiledPredicate::Term term;
    term.symbol = support::intern_symbol(name);
    const CoreTable::Column* column = table.binding_column(term.symbol);
    term.column = column == nullptr ? -1 : 0;  // column pointer re-resolved per query
    return term;
  };

  predicates.reserve(predicate_constraints.size());
  for (const ConsistencyConstraint* cc : predicate_constraints) {
    CompiledPredicate predicate;
    predicate.constraint = cc;
    const auto add_reference = [&](support::Symbol symbol) {
      for (const CompiledPredicate::Term& term : predicate.references) {
        if (term.symbol == symbol) return;
      }
      CompiledPredicate::Term term;
      term.symbol = symbol;
      term.column = table.binding_column(symbol) == nullptr ? -1 : 0;
      predicate.references.push_back(term);
    };
    for (const PropertyPath& path : cc->independent()) add_reference(path.property_symbol());
    for (const PropertyPath& path : cc->dependent()) add_reference(path.property_symbol());

    for (const PredicateAtom& atom : cc->atoms()) {
      CompiledPredicate::Op op;
      op.cmp = atom.cmp;
      op.lhs = property_term(atom.lhs);
      if (!atom.lhs_factor.empty()) {
        op.factor = property_term(atom.lhs_factor);
        op.has_factor = true;
      }
      if (!atom.rhs_property.empty()) {
        op.rhs = property_term(atom.rhs_property);
      } else {
        CompiledPredicate::Term term;  // pure constant
        term.const_kind = atom.rhs_const.kind();
        switch (atom.rhs_const.kind()) {
          case Value::Kind::kNumber: term.number = atom.rhs_const.as_number(); break;
          case Value::Kind::kText:
            term.text = support::intern_symbol(atom.rhs_const.as_text());
            break;
          case Value::Kind::kFlag: term.flag = atom.rhs_const.as_flag(); break;
          case Value::Kind::kEmpty: break;
        }
        op.rhs = term;
      }
      predicate.ops.push_back(std::move(op));
    }
    predicates.push_back(std::move(predicate));
  }
}

// ---------------------------------------------------------------------------
// run_core_filter

namespace {

using Column = CoreTable::Column;
using ColumnKind = CoreTable::ColumnKind;

/// A fetched scalar: what one term yields for one row.
struct Cell {
  Value::Kind kind = Value::Kind::kEmpty;
  double number = 0.0;
  support::Symbol text = support::kNoSymbol;  // always interned when kind==kText
  bool flag = false;
};

Cell cell_of_value(const Value& value) {
  Cell cell;
  cell.kind = value.kind();
  switch (value.kind()) {
    case Value::Kind::kNumber: cell.number = value.as_number(); break;
    case Value::Kind::kText: cell.text = support::intern_symbol(value.as_text()); break;
    case Value::Kind::kFlag: cell.flag = value.as_flag(); break;
    case Value::Kind::kEmpty: break;
  }
  return cell;
}

/// A term bound to this query: the table column (if any) plus the
/// constant the row falls back to (atom literal or session binding).
struct ResolvedTerm {
  const Column* column = nullptr;
  Cell fallback;
};

ResolvedTerm resolve_term(const CoreTable& table, const CompiledPredicate::Term& term,
                          const Bindings& bound) {
  ResolvedTerm resolved;
  if (term.symbol == support::kNoSymbol) {  // atom constant
    resolved.fallback.kind = term.const_kind;
    resolved.fallback.number = term.number;
    resolved.fallback.text = term.text;
    resolved.fallback.flag = term.flag;
    return resolved;
  }
  if (term.column >= 0) resolved.column = table.binding_column(term.symbol);
  const auto it = bound.find(support::symbol_name(term.symbol));
  if (it != bound.end()) resolved.fallback = cell_of_value(it->second);
  return resolved;
}

Cell fetch(const ResolvedTerm& term, std::size_t row) {
  if (term.column != nullptr && term.column->has(row)) {
    Cell cell;
    switch (term.column->kind) {
      case ColumnKind::kNumber:
        cell.kind = Value::Kind::kNumber;
        cell.number = term.column->numbers[row];
        break;
      case ColumnKind::kText:
        cell.kind = Value::Kind::kText;
        cell.text = term.column->texts[row];
        break;
      case ColumnKind::kMixed: {
        const Value& value = term.column->values[row];
        cell.kind = value.kind();
        if (value.kind() == Value::Kind::kNumber) cell.number = value.as_number();
        if (value.kind() == Value::Kind::kText) cell.text = term.column->texts[row];
        if (value.kind() == Value::Kind::kFlag) cell.flag = value.as_flag();
        break;
      }
    }
    return cell;
  }
  return term.fallback;
}

/// Mirrors PredicateAtom::holds() over fetched cells.
bool cells_hold(const Cell& lhs, PredicateAtom::Cmp cmp, const Cell& rhs) {
  if (lhs.kind == Value::Kind::kNumber && rhs.kind == Value::Kind::kNumber) {
    return compare_numbers(lhs.number, cmp, rhs.number);
  }
  if (lhs.kind == Value::Kind::kText && rhs.kind == Value::Kind::kText) {
    if (cmp == PredicateAtom::Cmp::kEq) return lhs.text == rhs.text;
    if (cmp == PredicateAtom::Cmp::kNe) return lhs.text != rhs.text;
    return false;
  }
  if (lhs.kind == Value::Kind::kFlag && rhs.kind == Value::Kind::kFlag) {
    if (cmp == PredicateAtom::Cmp::kEq) return lhs.flag == rhs.flag;
    if (cmp == PredicateAtom::Cmp::kNe) return lhs.flag != rhs.flag;
    return false;
  }
  return false;
}

/// How one resolved op is evaluated per 64-row word.
enum class OpMode : std::uint8_t {
  kNum,     ///< cmp_num word kernel + scalar patch of column-absent rows
  kSym,     ///< eq_sym word kernel + scalar patch of column-absent rows
  kScalar,  ///< row-wise fetch/cells_hold for every row
};

struct ResolvedOp {
  PredicateAtom::Cmp cmp = PredicateAtom::Cmp::kEq;
  ResolvedTerm lhs;
  ResolvedTerm factor;
  ResolvedTerm rhs;
  bool has_factor = false;

  OpMode mode = OpMode::kScalar;
  // kNum operand streams (col pointers are the full padded payload;
  // callers add the word offset).
  simd::Lane lhs_lane;
  simd::Lane factor_lane;
  simd::Lane rhs_lane;
  // kSym operand streams.
  const std::uint32_t* sym_lhs = nullptr;
  const std::uint32_t* sym_rhs = nullptr;
  std::uint32_t sym_const = support::kNoSymbol;
  bool sym_negate = false;
  // Presence bitmaps of every column-backed operand: rows with any bit
  // clear fall back to session/constant values and are re-evaluated
  // through the scalar interpreter.
  const std::uint64_t* patch_present[3] = {nullptr, nullptr, nullptr};
  int patch_count = 0;
};

simd::Lane lane_at(const simd::Lane& lane, std::size_t word) {
  return lane.col != nullptr ? simd::Lane{lane.col + (word << 6), lane.broadcast} : lane;
}

/// Scalar (reference-exact) evaluation of one op for one row.
bool op_holds_row(const ResolvedOp& op, std::size_t row) {
  const Cell lhs = fetch(op.lhs, row);
  const Cell rhs = fetch(op.rhs, row);
  if (op.has_factor) {
    const Cell factor = fetch(op.factor, row);
    return lhs.kind == Value::Kind::kNumber && factor.kind == Value::Kind::kNumber &&
           rhs.kind == Value::Kind::kNumber &&
           compare_numbers(lhs.number * factor.number, op.cmp, rhs.number);
  }
  return cells_hold(lhs, op.cmp, rhs);
}

/// Picks the word-kernel mode for `op`. A numeric op vectorizes when
/// every operand is a kNumber column or a numeric constant; a text op
/// when it is an ==/!= over kText columns / text constants with at
/// least one column side. Everything else (mixed columns, flag or
/// cross-kind constants) stays scalar — correctness never depends on
/// the mode, only throughput does.
void classify_op(ResolvedOp& op) {
  const auto reset = [&] {
    op.patch_count = 0;
    op.lhs_lane = op.factor_lane = op.rhs_lane = simd::Lane{};
    op.sym_lhs = op.sym_rhs = nullptr;
  };

  const auto num_lane = [&](const ResolvedTerm& term, simd::Lane& lane) {
    if (term.column != nullptr) {
      if (term.column->kind != ColumnKind::kNumber) return false;
      lane.col = term.column->numbers.data();
      op.patch_present[op.patch_count++] = term.column->present.data();
      return true;
    }
    if (term.fallback.kind != Value::Kind::kNumber) return false;
    lane.broadcast = term.fallback.number;
    return true;
  };
  reset();
  if (num_lane(op.lhs, op.lhs_lane) && num_lane(op.rhs, op.rhs_lane) &&
      (!op.has_factor || num_lane(op.factor, op.factor_lane))) {
    op.mode = OpMode::kNum;
    return;
  }

  const auto sym_source = [&](const ResolvedTerm& term, const std::uint32_t*& col,
                              std::uint32_t& constant) {
    if (term.column != nullptr) {
      if (term.column->kind != ColumnKind::kText) return false;
      col = term.column->texts.data();
      op.patch_present[op.patch_count++] = term.column->present.data();
      return true;
    }
    if (term.fallback.kind != Value::Kind::kText) return false;
    constant = term.fallback.text;
    return true;
  };
  reset();
  if (!op.has_factor &&
      (op.cmp == PredicateAtom::Cmp::kEq || op.cmp == PredicateAtom::Cmp::kNe)) {
    const std::uint32_t* lhs_col = nullptr;
    const std::uint32_t* rhs_col = nullptr;
    std::uint32_t lhs_const = support::kNoSymbol;
    std::uint32_t rhs_const = support::kNoSymbol;
    if (sym_source(op.lhs, lhs_col, lhs_const) && sym_source(op.rhs, rhs_col, rhs_const) &&
        (lhs_col != nullptr || rhs_col != nullptr)) {
      if (lhs_col == nullptr) {  // constant vs column: ==/!= are symmetric
        lhs_col = rhs_col;
        rhs_col = nullptr;
        rhs_const = lhs_const;
      }
      op.mode = OpMode::kSym;
      op.sym_lhs = lhs_col;
      op.sym_rhs = rhs_col;
      op.sym_const = rhs_const;
      op.sym_negate = op.cmp == PredicateAtom::Cmp::kNe;
      return;
    }
  }
  reset();
  op.mode = OpMode::kScalar;
}

/// One prefilter atom lowered against the table and session bindings.
/// Terms resolve binding column -> metric column -> session binding ->
/// atom constant (metric columns are a prefilter-only power: predicate
/// atoms never see metrics, but a declared prefilter may bound one).
struct PrefilterAtom {
  simd::Cmp cmp = simd::Cmp::kEq;
  bool is_sym = false;
  bool has_factor = false;
  simd::Lane lhs;
  simd::Lane factor;
  simd::Lane rhs;
  const std::uint32_t* sym_lhs = nullptr;
  const std::uint32_t* sym_rhs = nullptr;
  std::uint32_t sym_const = support::kNoSymbol;
  bool sym_negate = false;
  const std::uint64_t* present[3] = {nullptr, nullptr, nullptr};
  int present_count = 0;
};

/// Lowers `atom`; returns false if any term fails to resolve to a
/// vectorizable source, which disables the whole prefilter (the lambda
/// then runs on every row — slower, never wrong).
bool resolve_prefilter_atom(const CoreTable& table, const Bindings& bound,
                            const PredicateAtom& atom, PrefilterAtom& out) {
  const auto num_source = [&](const std::string& name, simd::Lane& lane) {
    if (const auto sym = support::lookup_symbol(name); sym.has_value()) {
      if (const Column* column = table.binding_column(*sym);
          column != nullptr && column->kind == ColumnKind::kNumber) {
        lane.col = column->numbers.data();
        out.present[out.present_count++] = column->present.data();
        return true;
      }
      if (const Column* column = table.metric_column(*sym); column != nullptr) {
        lane.col = column->numbers.data();
        out.present[out.present_count++] = column->present.data();
        return true;
      }
    }
    const auto it = bound.find(name);
    if (it != bound.end() && it->second.kind() == Value::Kind::kNumber) {
      lane.broadcast = it->second.as_number();
      return true;
    }
    return false;
  };
  const auto sym_col_source = [&](const std::string& name, const std::uint32_t*& col) {
    const auto sym = support::lookup_symbol(name);
    if (!sym.has_value()) return false;
    const Column* column = table.binding_column(*sym);
    if (column == nullptr || column->kind != ColumnKind::kText) return false;
    col = column->texts.data();
    out.present[out.present_count++] = column->present.data();
    return true;
  };

  out.cmp = to_simd(atom.cmp);
  // Text shape: lhs must be a text column; rhs a text constant, session
  // text binding, or another text column. ==/!= only.
  const bool rhs_text = atom.rhs_property.empty()
                            ? atom.rhs_const.kind() == Value::Kind::kText
                            : false;  // rhs property kind decided by its column below
  if (atom.lhs_factor.empty() && rhs_text) {
    if (atom.cmp != PredicateAtom::Cmp::kEq && atom.cmp != PredicateAtom::Cmp::kNe) return false;
    if (!sym_col_source(atom.lhs, out.sym_lhs)) return false;
    out.is_sym = true;
    out.sym_const = support::intern_symbol(atom.rhs_const.as_text());
    out.sym_negate = atom.cmp == PredicateAtom::Cmp::kNe;
    return true;
  }

  // Numeric shape: (lhs [* factor]) cmp rhs.
  if (!num_source(atom.lhs, out.lhs)) {
    // Retry as column-vs-column text equality before giving up.
    if (atom.lhs_factor.empty() && !atom.rhs_property.empty() &&
        (atom.cmp == PredicateAtom::Cmp::kEq || atom.cmp == PredicateAtom::Cmp::kNe)) {
      out.present_count = 0;
      if (sym_col_source(atom.lhs, out.sym_lhs) && sym_col_source(atom.rhs_property, out.sym_rhs)) {
        out.is_sym = true;
        out.sym_negate = atom.cmp == PredicateAtom::Cmp::kNe;
        return true;
      }
    }
    return false;
  }
  if (!atom.lhs_factor.empty()) {
    if (!num_source(atom.lhs_factor, out.factor)) return false;
    out.has_factor = true;
  }
  if (!atom.rhs_property.empty()) return num_source(atom.rhs_property, out.rhs);
  if (atom.rhs_const.kind() != Value::Kind::kNumber) return false;
  out.rhs.broadcast = atom.rhs_const.as_number();
  return true;
}

/// Runs `fn(word)` over every mask word in order — the one place a sweep
/// yields to its deadline: a cancellation checkpoint precedes every
/// kWordsPerCheckpoint words.
template <typename WordFn>
void for_each_word(std::size_t words, const WordFn& fn) {
  for (std::size_t begin = 0; begin < words; begin += kWordsPerCheckpoint) {
    support::cancellation_checkpoint();
    const std::size_t end = std::min(words, begin + kWordsPerCheckpoint);
    for (std::size_t w = begin; w < end; ++w) fn(w);
  }
}

/// Sweeps the set bits of `mask`, clearing rows `keep` rejects.
template <typename Keep>
void sweep_rows(std::uint64_t* mask, std::size_t words, const Keep& keep) {
  for_each_word(words, [&](std::size_t w) {
    std::uint64_t bits = mask[w];
    std::uint64_t cleared = 0;
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      if (!keep((w << 6) + static_cast<std::size_t>(bit))) {
        cleared |= (std::uint64_t{1} << bit);
      }
      bits &= bits - 1;
    }
    mask[w] &= ~cleared;
  });
}

}  // namespace

SurvivorMask run_core_filter(const CoreFilterPlan& plan, const FilterQuery& query,
                             telemetry::Telemetry& telemetry) {
  using telemetry::EventKind;
  // Chaos/deadline hook + the sweep's first cancellation point; the word
  // loops below are the rest.
  DSLAYER_FAILPOINT("dsl.candidates.sweep");
  support::cancellation_checkpoint();
  const CoreTable& table = plan.table;
  const std::size_t rows = table.rows();
  telemetry.count(EventKind::kComplianceCheck, rows);
  // Sweep span for sampled request traces (one thread-local load when
  // untraced); nests under the executor's execute span.
  trace::SpanTimer sweep_span(trace::TraceScope::current(), trace::SpanKind::kSweep,
                              trace::TraceScope::current() != nullptr
                                  ? cat("columnar rows=", rows)
                                  : std::string{});
  if (rows == 0) return {};

  const simd::KernelOps& kops = simd::kernels();
  const std::size_t words = table.words();

  // Per-sweep scratch (resolved terms, prefilter programs) lives in this
  // thread's bump arena and is released, not freed, when the sweep
  // returns. The survivor mask is the result, so it is heap-owned.
  support::Arena& arena = support::Arena::scratch();
  support::ArenaScope scratch_scope(arena);

  SurvivorMask result;
  result.words.assign(words, ~std::uint64_t{0});
  std::uint64_t* mask = result.words.data();
  if ((rows & 63) != 0) mask[words - 1] = (std::uint64_t{1} << (rows & 63)) - 1;  // clip tail

  const auto clear_all = [&] { std::fill(mask, mask + words, 0); };

  // Steps 1 + 2a: decided design issues and kCoreEquals requirements are
  // the same kernel — the core must bind the property to exactly the
  // session's value. A missing column means no core can match.
  const auto apply_equality = [&](const FilterQuery::Equality& eq) {
    const Column* column =
        eq.symbol == support::kNoSymbol ? nullptr : table.binding_column(eq.symbol);
    if (column == nullptr) {
      clear_all();
      return;
    }
    switch (column->kind) {
      case ColumnKind::kNumber: {
        if (eq.value.kind() != Value::Kind::kNumber) {
          clear_all();
          return;
        }
        const simd::Lane wanted{nullptr, eq.value.as_number()};
        const double* numbers = column->numbers.data();
        const std::uint64_t* present = column->present.data();
        for_each_word(words, [&](std::size_t w) {
          mask[w] &= present[w] & kops.cmp_num(simd::Lane{numbers + (w << 6)}, simd::Lane{},
                                               false, simd::Cmp::kEq, wanted);
        });
        return;
      }
      case ColumnKind::kText: {
        if (eq.value.kind() != Value::Kind::kText) {
          clear_all();
          return;
        }
        const auto wanted = support::lookup_symbol(eq.value.as_text());
        if (!wanted.has_value()) {  // never interned => no column text can equal it
          clear_all();
          return;
        }
        const support::Symbol symbol = *wanted;
        const std::uint32_t* texts = column->texts.data();
        const std::uint64_t* present = column->present.data();
        for_each_word(words, [&](std::size_t w) {
          mask[w] &= present[w] & kops.eq_sym(texts + (w << 6), nullptr, symbol, false);
        });
        return;
      }
      case ColumnKind::kMixed:
        sweep_rows(mask, words, [&](std::size_t row) {
          return column->has(row) && column->values[row] == eq.value;
        });
        return;
    }
  };
  for (const FilterQuery::Equality& eq : query.decided) apply_equality(eq);
  for (const FilterQuery::Equality& eq : query.require_equal) apply_equality(eq);

  // Step 2b: metric bounds. Lowered as the NEGATED per-core rejection
  // compare (`metric > bound` for at-most), so NaN metrics are kept by
  // the word kernel exactly as the scalar operators keep them.
  for (const FilterQuery::MetricBound& bound : query.require_metric) {
    const Column* column =
        bound.symbol == support::kNoSymbol ? nullptr : table.metric_column(bound.symbol);
    if (column == nullptr) {
      clear_all();
      continue;
    }
    const simd::Cmp reject = bound.at_most ? simd::Cmp::kGt : simd::Cmp::kLt;
    const simd::Lane limit{nullptr, bound.bound};
    const double* numbers = column->numbers.data();
    const std::uint64_t* present = column->present.data();
    for_each_word(words, [&](std::size_t w) {
      mask[w] &= present[w] & ~kops.cmp_num(simd::Lane{numbers + (w << 6)}, simd::Lane{},
                                            false, reject, limit);
    });
  }

  // Step 2c: custom filters, row-wise. A declared pass_when prefilter
  // proves rows compliant a word at a time first; only the residual runs
  // the lambda.
  for (const FilterQuery::Custom& custom : query.custom) {
    PrefilterAtom* atoms = nullptr;
    std::size_t atom_count = 0;
    if (custom.pass_when != nullptr && !custom.pass_when->empty()) {
      atoms = arena.alloc_array<PrefilterAtom>(custom.pass_when->size());
      for (const PredicateAtom& atom : *custom.pass_when) {
        PrefilterAtom* lowered = ::new (static_cast<void*>(atoms + atom_count)) PrefilterAtom();
        if (!resolve_prefilter_atom(table, *query.bound, atom, *lowered)) {
          atom_count = 0;  // unresolvable term: prefilter off, lambda runs everywhere
          break;
        }
        ++atom_count;
      }
    }
    std::uint64_t skipped = 0;
    for_each_word(words, [&](std::size_t w) {
      const std::uint64_t alive = mask[w];
      if (alive == 0) return;
      std::uint64_t pass = 0;
      if (atom_count != 0) {
        pass = alive;
        for (std::size_t a = 0; a < atom_count && pass != 0; ++a) {
          const PrefilterAtom& atom = atoms[a];
          std::uint64_t present = ~std::uint64_t{0};
          for (int p = 0; p < atom.present_count; ++p) present &= atom.present[p][w];
          const std::uint64_t holds =
              atom.is_sym
                  ? kops.eq_sym(atom.sym_lhs + (w << 6),
                                atom.sym_rhs != nullptr ? atom.sym_rhs + (w << 6) : nullptr,
                                atom.sym_const, atom.sym_negate)
                  : kops.cmp_num(lane_at(atom.lhs, w), lane_at(atom.factor, w),
                                 atom.has_factor, atom.cmp, lane_at(atom.rhs, w));
          pass &= present & holds;
        }
        skipped += static_cast<std::uint64_t>(std::popcount(pass));
      }
      std::uint64_t bits = alive & ~pass;
      std::uint64_t cleared = 0;
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        const std::size_t row = (w << 6) + static_cast<std::size_t>(bit);
        if (!(*custom.filter)(*table.cores()[row], *query.bound)) {
          cleared |= (std::uint64_t{1} << bit);
        }
        bits &= bits - 1;
      }
      mask[w] &= ~cleared;
    });
    if (skipped != 0) telemetry.count(EventKind::kPrefilterSkip, skipped);
  }

  // Step 3: predicate constraints in index order. Evaluating each over
  // the surviving mask reproduces a per-core early exit — a row killed by
  // predicate i is never examined by predicate i+1 — so the
  // ConstraintEvaluated totals match a per-core loop exactly.
  for (const CompiledPredicate& predicate : plan.predicates) {
    const std::size_t examined = popcount(mask, words);
    if (examined == 0) break;
    telemetry.count(EventKind::kConstraintEvaluated, examined);
    predicate.constraint->note_bulk_evaluations(examined);
    // Resolve terms and pick word-kernel modes once; the word loop
    // only reads the resolved program.
    const std::size_t ref_count = predicate.references.size();
    ResolvedTerm* references = arena.alloc_array<ResolvedTerm>(ref_count);
    for (std::size_t i = 0; i < ref_count; ++i) {
      ::new (static_cast<void*>(references + i))
          ResolvedTerm(resolve_term(table, predicate.references[i], *query.bound));
    }
    const std::size_t op_count = predicate.ops.size();
    ResolvedOp* ops = arena.alloc_array<ResolvedOp>(op_count);
    for (std::size_t i = 0; i < op_count; ++i) {
      const CompiledPredicate::Op& op = predicate.ops[i];
      ResolvedOp* resolved = ::new (static_cast<void*>(ops + i)) ResolvedOp();
      resolved->cmp = op.cmp;
      resolved->lhs = resolve_term(table, op.lhs, *query.bound);
      if (op.has_factor) {
        resolved->factor = resolve_term(table, op.factor, *query.bound);
        resolved->has_factor = true;
      }
      resolved->rhs = resolve_term(table, op.rhs, *query.bound);
      classify_op(*resolved);
    }
    for_each_word(words, [&](std::size_t w) {
      const std::uint64_t alive = mask[w];
      if (alive == 0) return;
      // violated() evaluates nothing unless every referenced property
      // has a value (core column or session fallback); unevaluable
      // rows are kept.
      std::uint64_t evaluable = ~std::uint64_t{0};
      for (std::size_t i = 0; i < ref_count && evaluable != 0; ++i) {
        const ResolvedTerm& reference = references[i];
        std::uint64_t avail =
            reference.fallback.kind != Value::Kind::kEmpty ? ~std::uint64_t{0} : 0;
        if (reference.column != nullptr) avail |= reference.column->present[w];
        evaluable &= avail;
      }
      std::uint64_t viol = alive & evaluable;  // violated iff every atom holds
      for (std::size_t i = 0; i < op_count && viol != 0; ++i) {
        const ResolvedOp& op = ops[i];
        std::uint64_t holds = 0;
        std::uint64_t patch = 0;
        switch (op.mode) {
          case OpMode::kNum:
            holds = kops.cmp_num(lane_at(op.lhs_lane, w), lane_at(op.factor_lane, w),
                                 op.has_factor, to_simd(op.cmp), lane_at(op.rhs_lane, w));
            for (int p = 0; p < op.patch_count; ++p) patch |= ~op.patch_present[p][w];
            break;
          case OpMode::kSym:
            holds = kops.eq_sym(op.sym_lhs + (w << 6),
                                op.sym_rhs != nullptr ? op.sym_rhs + (w << 6) : nullptr,
                                op.sym_const, op.sym_negate);
            for (int p = 0; p < op.patch_count; ++p) patch |= ~op.patch_present[p][w];
            break;
          case OpMode::kScalar:
            patch = ~std::uint64_t{0};
            break;
        }
        // Rows the word kernel could not see faithfully (a column
        // value absent, falling back to a session binding; or a
        // scalar-only op) re-run the exact scalar evaluation.
        std::uint64_t bits = patch & viol;
        while (bits != 0) {
          const int bit = std::countr_zero(bits);
          const std::uint64_t one = std::uint64_t{1} << bit;
          if (op_holds_row(op, (w << 6) + static_cast<std::size_t>(bit))) {
            holds |= one;
          } else {
            holds &= ~one;
          }
          bits &= bits - 1;
        }
        viol &= holds;
      }
      mask[w] = alive & ~viol;
    });
  }

  result.count = popcount(mask, words);
  return result;
}

// ---------------------------------------------------------------------------
// What-if aggregates over a survivor mask

MetricRange fold_metric(const Column& metric, const SurvivorMask& mask, std::size_t begin_row,
                        std::size_t end_row) {
  MetricRange range;
  if (begin_row >= end_row || mask.count == 0) return range;
  const std::uint64_t* present = metric.present.data();
  const double* numbers = metric.numbers.data();
  const std::size_t first_word = begin_row >> 6;
  const std::size_t last_word = (end_row - 1) >> 6;
  for (std::size_t w = first_word; w <= last_word; ++w) {
    std::uint64_t bits = mask.words[w] & present[w];
    if (w == first_word) bits &= ~std::uint64_t{0} << (begin_row & 63);
    if (w == last_word && (end_row & 63) != 0) bits &= (std::uint64_t{1} << (end_row & 63)) - 1;
    if (bits == 0) continue;
    const double* block = numbers + (w << 6);
    if (range.count == 0) {  // the first value seeds both ends
      range.min = range.max = block[std::countr_zero(bits)];
      range.count = 1;
      bits &= bits - 1;
    }
    range.count += static_cast<std::size_t>(std::popcount(bits));
    double lo = range.min;
    double hi = range.max;
    while (bits != 0) {
      const double v = block[std::countr_zero(bits)];
      lo = v < lo ? v : lo;
      hi = hi < v ? v : hi;
      bits &= bits - 1;
    }
    range.min = lo;
    range.max = hi;
  }
  return range;
}

void fold_metric_by_key(const Column& metric, const Column& key, const SurvivorMask& mask,
                        const std::vector<support::Symbol>& keys,
                        std::vector<MetricRange>& groups) {
  groups.assign(keys.size(), MetricRange{});
  // kText and kMixed columns both carry the interned text of every text
  // cell in `texts` (kNoSymbol for a mixed column's non-text cells).
  if (keys.empty() || mask.count == 0 || key.kind == ColumnKind::kNumber) return;
  const std::uint64_t* metric_present = metric.present.data();
  const std::uint64_t* key_present = key.present.data();
  const double* numbers = metric.numbers.data();
  const support::Symbol* texts = key.texts.data();
  for (std::size_t w = 0; w < mask.words.size(); ++w) {
    std::uint64_t bits = mask.words[w] & metric_present[w] & key_present[w];
    while (bits != 0) {
      const std::size_t row = (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      const support::Symbol symbol = texts[row];
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == symbol) {
          groups[i].fold(numbers[row]);
          break;
        }
      }
      bits &= bits - 1;
    }
  }
}

}  // namespace dslayer::dsl
