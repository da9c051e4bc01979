// Reusable cores and reuse libraries.
//
// Cores (macro-cells from IP providers, software routines, in-house blocks)
// live in reuse libraries UNDERNEATH the design space layer (Fig. 1). The
// layer never stores design data itself; it indexes cores through the CDO
// hierarchy ("the cores available in the reuse library correspond to
// 'points' in the design space ... logically indexed via these same areas
// of design decision").
//
// A core therefore carries:
//  * the CDO class it implements ("Operator.Modular.Multiplier");
//  * bindings: the design-issue options its implementation embodies
//    ("Algorithm" -> "Montgomery", "SliceWidth" -> 64, ...) — the layer
//    descends generalized issues and filters regular decisions on these;
//  * metrics: figures of merit (area, clock, latency, power) that populate
//    the evaluation space and answer range queries;
//  * views: references to the detailed design data at the traditional
//    abstraction levels (Fig. 2(b)) — opaque artifact URIs here, since the
//    actual HDL/layout lives with the IP provider.
//
// Storage layout: bindings and metrics are flat vectors sorted by property
// name, with the name itself held as a pointer to the interned spelling
// (support/symbol.hpp — stable for the process lifetime). Name order is
// preserved so describe() and the serialize/ export remain byte-identical
// with the historical std::map iteration.
//
// Lazy slots: a library restored from a snapshot (ReuseLibrary::restore)
// holds one fixed-size Core per record, at a stable address, with no
// per-core heap allocation — only the record's offset and the CoreSource
// that decodes it. The first read through ANY accessor fills the slot
// exactly once (Core::restored + adopt, under the source's fill mutex);
// later reads see the filled fields through one acquire load. Fills are
// safe from any number of reader threads — the service's executor workers
// run them under the SharedLayer read lock. Cores built in code, from the
// journal, or by the CSV importer are born filled. Nothing in the API
// tells the two apart: `const Core*` behaves the same either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "dsl/value.hpp"
#include "support/symbol.hpp"

namespace dslayer::dsl {

/// Reference to detailed design data at one abstraction level.
struct CoreView {
  std::string level;     ///< "algorithm", "rt", "logic", "physical"
  std::string artifact;  ///< provider URI / file reference
};

/// One stored binding: the property (as interned symbol + the interned
/// spelling, so iteration needs neither a symbol-table lock nor a string
/// compare) and its value. Equality ignores the name pointer — the symbol
/// IS the name.
struct CoreBinding {
  support::Symbol symbol = support::kNoSymbol;
  const std::string* name = nullptr;  ///< interned spelling (stable forever)
  Value value;

  friend bool operator==(const CoreBinding& a, const CoreBinding& b) {
    return a.symbol == b.symbol && a.value == b.value;
  }
};

/// One stored metric (see CoreBinding).
struct CoreMetric {
  support::Symbol symbol = support::kNoSymbol;
  const std::string* name = nullptr;
  double value = 0.0;

  friend bool operator==(const CoreMetric& a, const CoreMetric& b) {
    return a.symbol == b.symbol && a.value == b.value;
  }
};

class Core;

/// Decodes the cores of one restored library on first read. The snapshot
/// loader (storage/snapshot.cpp) implements it over its mapped kCores
/// section, which it has already walked and validated, so decode() does
/// not fail on a record it handed out.
class CoreSource {
 public:
  virtual ~CoreSource() = default;

  /// The core stored at `record`, built through Core::restored + adopt.
  virtual Core decode(std::uint64_t record) const = 0;

  /// The name stored at `record`, as a view into the source (no decode).
  virtual std::string_view name(std::uint64_t record) const = 0;

  /// Slots of this source filled so far.
  std::uint64_t filled() const { return filled_.load(std::memory_order_relaxed); }

 private:
  friend class Core;
  mutable std::mutex fill_mutex_;
  mutable std::atomic<std::uint64_t> filled_{0};
};

/// One reusable design.
class Core {
 public:
  Core(std::string name, std::string class_path);

  /// Bulk-restore factory (snapshot / journal recovery): adopts an
  /// already-interned class symbol and its spelling without re-hashing.
  /// `class_path` MUST be the interned spelling of `class_symbol` — the
  /// snapshot loader resolves both once per symbol, not once per core,
  /// because at a million cores the per-core intern lookups (and the
  /// symbol table's lock) dominate cold start.
  static Core restored(std::string name, support::Symbol class_symbol,
                       const std::string* class_path);

  /// A copy is born filled: copying an unfilled slot fills the source.
  Core(const Core& other);
  Core(Core&& other) noexcept;
  Core& operator=(const Core& other);
  Core& operator=(Core&& other) noexcept;
  ~Core() = default;

  const std::string& name() const { return loaded().name_; }

  /// Path of the CDO class this core implements (indexing entry point).
  const std::string& class_path() const { return *loaded().class_path_; }
  support::Symbol class_symbol() const { return loaded().class_symbol_; }

  /// Name of the owning library (set on registration).
  const std::string& library() const { return *loaded().library_; }
  void set_library(const std::string& library);

  // -- bindings ---------------------------------------------------------------

  Core& bind(const std::string& property, Value value);
  std::optional<Value> binding(const std::string& property) const;

  /// Symbol-keyed fast path (kNoSymbol or an unbound symbol -> nullptr).
  const Value* binding(support::Symbol property) const;

  /// All bindings, sorted by property name.
  const std::vector<CoreBinding>& bindings() const { return loaded().bindings_; }

  // -- metrics ----------------------------------------------------------------

  Core& set_metric(const std::string& name, double value);
  std::optional<double> metric(const std::string& name) const;

  /// All metrics, sorted by name.
  const std::vector<CoreMetric>& metrics() const { return loaded().metrics_; }

  // -- views ------------------------------------------------------------------

  Core& add_view(std::string level, std::string artifact);
  const std::vector<CoreView>& views() const { return loaded().views_; }

  /// Bulk-load path for snapshot / journal recovery: adopts pre-built,
  /// name-sorted binding and metric vectors in one move (no per-property
  /// sorted insertion). Entries must have symbol and name filled and be
  /// strictly name-ordered — the writer emits them in bindings() order, so
  /// ordering is validated only in debug builds.
  void adopt(std::vector<CoreBinding> bindings, std::vector<CoreMetric> metrics);

  /// One-line rendering for reports.
  std::string describe() const;

  /// This core's data WITHOUT filling it: a filled core returns itself; an
  /// unfilled slot decodes into `scratch` and returns that. For walks over
  /// the whole catalog (the snapshot writer) that must not leave every
  /// core hydrated behind them.
  const Core& peek(std::optional<Core>& scratch) const;

 private:
  friend class ReuseLibrary;  // stamps library_, creates restored slots
  Core() = default;           // restored() and ReuseLibrary::restore() fill the fields

  /// The filled core: one acquire load once filled, fill() the first time.
  const Core& loaded() const {
    if (!filled_.load(std::memory_order_acquire)) fill();
    return *this;
  }
  void fill() const;  // decodes from source_ under its fill mutex
  void take(Core&& other);  // moves every field except library_

  // Every data field is mutable so fill() can set it behind a const read;
  // it is written once, before filled_ is released, and never again.
  mutable std::string name_;
  mutable support::Symbol class_symbol_ = support::kNoSymbol;
  mutable std::atomic<bool> filled_{true};   ///< false only for an unfilled slot
  mutable const std::string* class_path_ = nullptr;  ///< interned spelling
  const std::string* library_ = nullptr;             ///< interned spelling
  mutable std::vector<CoreBinding> bindings_;        ///< sorted by *name
  mutable std::vector<CoreMetric> metrics_;          ///< sorted by *name
  mutable std::vector<CoreView> views_;
  const CoreSource* source_ = nullptr;  ///< decodes an unfilled slot
  std::uint64_t record_ = 0;            ///< the slot's record in source_
};

/// A named collection of cores (one IP provider / one in-house library).
/// Multiple libraries connect to a single design space layer (Fig. 1).
class ReuseLibrary {
 public:
  explicit ReuseLibrary(std::string name);

  const std::string& name() const { return name_; }

  /// Adds a core (stamps the library name); returns a stable reference —
  /// cores are never erased, so addresses never move. Duplicate detection
  /// is a hash lookup over string views (stored names, or record names
  /// of restored slots), so bulk catalog loads stay linear in the core
  /// count. A restored library builds that index on its first add().
  Core& add(Core core);

  /// Makes this (empty) library hold one unfilled slot per record of
  /// `source`, in order, and returns the slots. Nothing is decoded.
  std::span<const Core> restore(std::shared_ptr<const CoreSource> source,
                                const std::vector<std::uint64_t>& records);

  /// Pre-sizes the duplicate-name index for a bulk load of `count` cores.
  void reserve(std::size_t count);

  std::size_t size() const { return restored_count_ + cores_.size(); }

  /// Cores holding decoded data: the ones added as Core objects plus the
  /// restored slots filled so far.
  std::size_t hydrated() const;

  std::vector<const Core*> cores() const;

 private:
  std::string name_;
  const std::string* interned_name_ = nullptr;    // interned once, stamped per add()
  std::shared_ptr<const CoreSource> source_;      // restored slots' decoder
  std::unique_ptr<Core[]> restored_;              // restored slots, before cores_
  std::size_t restored_count_ = 0;
  std::deque<Core> cores_;                        // added cores; stable addresses
  std::unordered_set<std::string_view> names_;    // every core's name
  bool names_indexed_ = true;                     // false until a restored library's first add()
};

}  // namespace dslayer::dsl
