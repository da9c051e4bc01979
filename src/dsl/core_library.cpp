#include "dsl/core_library.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::dsl {

namespace {

/// Interns `text` and returns both the id and the stable spelling.
std::pair<support::Symbol, const std::string*> interned(std::string_view text) {
  const support::Symbol symbol = support::intern_symbol(text);
  return {symbol, &support::symbol_name(symbol)};
}

}  // namespace

Core::Core(std::string name, std::string class_path) : name_(std::move(name)) {
  if (name_.empty()) throw DefinitionError("core name must not be empty");
  if (class_path.empty()) throw DefinitionError(cat("core '", name_, "' needs a class path"));
  std::tie(class_symbol_, class_path_) = interned(class_path);
  library_ = interned("").second;
}

Core Core::restored(std::string name, support::Symbol class_symbol,
                    const std::string* class_path) {
  if (name.empty()) throw DefinitionError("core name must not be empty");
  static const std::string* unowned = interned("").second;
  Core core;
  core.name_ = std::move(name);
  core.class_symbol_ = class_symbol;
  core.class_path_ = class_path;
  core.library_ = unowned;
  return core;
}

Core::Core(const Core& other) {
  other.loaded();
  name_ = other.name_;
  class_symbol_ = other.class_symbol_;
  class_path_ = other.class_path_;
  library_ = other.library_;
  bindings_ = other.bindings_;
  metrics_ = other.metrics_;
  views_ = other.views_;
}

Core::Core(Core&& other) noexcept { *this = std::move(other); }

Core& Core::operator=(const Core& other) {
  if (this != &other) *this = Core(other);
  return *this;
}

Core& Core::operator=(Core&& other) noexcept {
  // Only born-filled cores are ever moved (restored slots stay in their
  // library), but a moved slot would keep its source and stay lazy.
  take(std::move(other));
  library_ = other.library_;
  filled_.store(other.filled_.load(std::memory_order_acquire), std::memory_order_relaxed);
  source_ = other.source_;
  record_ = other.record_;
  return *this;
}

void Core::take(Core&& other) {
  name_ = std::move(other.name_);
  class_symbol_ = other.class_symbol_;
  class_path_ = other.class_path_;
  bindings_ = std::move(other.bindings_);
  metrics_ = std::move(other.metrics_);
  views_ = std::move(other.views_);
}

void Core::fill() const {
  std::lock_guard<std::mutex> lock(source_->fill_mutex_);
  if (filled_.load(std::memory_order_relaxed)) return;  // another reader won
  const_cast<Core*>(this)->take(source_->decode(record_));
  source_->filled_.fetch_add(1, std::memory_order_relaxed);
  filled_.store(true, std::memory_order_release);
}

const Core& Core::peek(std::optional<Core>& scratch) const {
  if (filled_.load(std::memory_order_acquire)) return *this;
  scratch.emplace(source_->decode(record_));
  scratch->library_ = library_;
  return *scratch;
}

void Core::set_library(const std::string& library) { library_ = interned(library).second; }

Core& Core::bind(const std::string& property, Value value) {
  DSLAYER_REQUIRE(!property.empty(), "binding needs a property name");
  DSLAYER_REQUIRE(!value.empty(), "binding needs a value");
  const auto [symbol, name] = interned(property);
  const auto it = std::lower_bound(
      bindings_.begin(), bindings_.end(), property,
      [](const CoreBinding& b, const std::string& p) { return *b.name < p; });
  if (it != bindings_.end() && it->symbol == symbol) {
    it->value = std::move(value);
  } else {
    bindings_.insert(it, CoreBinding{symbol, name, std::move(value)});
  }
  return *this;
}

std::optional<Value> Core::binding(const std::string& property) const {
  loaded();
  const auto it = std::lower_bound(
      bindings_.begin(), bindings_.end(), property,
      [](const CoreBinding& b, const std::string& p) { return *b.name < p; });
  if (it == bindings_.end() || *it->name != property) return std::nullopt;
  return it->value;
}

const Value* Core::binding(support::Symbol property) const {
  loaded();
  for (const CoreBinding& b : bindings_) {
    if (b.symbol == property) return &b.value;
  }
  return nullptr;
}

Core& Core::set_metric(const std::string& name, double value) {
  DSLAYER_REQUIRE(!name.empty(), "metric needs a name");
  const auto [symbol, spelling] = interned(name);
  const auto it =
      std::lower_bound(metrics_.begin(), metrics_.end(), name,
                       [](const CoreMetric& m, const std::string& n) { return *m.name < n; });
  if (it != metrics_.end() && it->symbol == symbol) {
    it->value = value;
  } else {
    metrics_.insert(it, CoreMetric{symbol, spelling, value});
  }
  return *this;
}

std::optional<double> Core::metric(const std::string& name) const {
  loaded();
  const auto it =
      std::lower_bound(metrics_.begin(), metrics_.end(), name,
                       [](const CoreMetric& m, const std::string& n) { return *m.name < n; });
  if (it == metrics_.end() || *it->name != name) return std::nullopt;
  return it->value;
}

Core& Core::add_view(std::string level, std::string artifact) {
  views_.push_back(CoreView{std::move(level), std::move(artifact)});
  return *this;
}

void Core::adopt(std::vector<CoreBinding> bindings, std::vector<CoreMetric> metrics) {
#ifndef NDEBUG
  for (std::size_t i = 0; i + 1 < bindings.size(); ++i) {
    assert(*bindings[i].name < *bindings[i + 1].name && "adopted bindings must be name-sorted");
  }
  for (std::size_t i = 0; i + 1 < metrics.size(); ++i) {
    assert(*metrics[i].name < *metrics[i + 1].name && "adopted metrics must be name-sorted");
  }
#endif
  bindings_ = std::move(bindings);
  metrics_ = std::move(metrics);
}

std::string Core::describe() const {
  loaded();
  std::ostringstream os;
  os << name_ << " [" << *library_ << "] class=" << *class_path_;
  for (const CoreBinding& b : bindings_) os << " " << *b.name << "=" << b.value.to_string();
  for (const CoreMetric& m : metrics_) os << " " << *m.name << "=" << format_double(m.value);
  return os.str();
}

ReuseLibrary::ReuseLibrary(std::string name) : name_(std::move(name)) {
  if (name_.empty()) throw DefinitionError("reuse library name must not be empty");
  interned_name_ = interned(name_).second;
}

Core& ReuseLibrary::add(Core core) {
  if (!names_indexed_) {
    // First add to a restored library: index the slots' names straight
    // from their records, filling none of them.
    names_.reserve(size() + 1);
    for (std::size_t i = 0; i < restored_count_; ++i) {
      names_.insert(source_->name(restored_[i].record_));
    }
    names_indexed_ = true;
  }
  core.library_ = interned_name_;  // interned once at construction, not per core
  cores_.push_back(std::move(core));
  // Single hash op on the stored name (the deque slot is stable); a
  // duplicate is rolled back before the throw.
  const auto [it, inserted] = names_.insert(std::string_view(cores_.back().name()));
  if (!inserted) {
    const std::string dup = cores_.back().name();
    cores_.pop_back();
    throw DefinitionError(cat("core '", dup, "' already exists in library '", name_, "'"));
  }
  return cores_.back();
}

std::span<const Core> ReuseLibrary::restore(std::shared_ptr<const CoreSource> source,
                                            const std::vector<std::uint64_t>& records) {
  DSLAYER_REQUIRE(size() == 0, "only an empty library can be restored");
  source_ = std::move(source);
  restored_count_ = records.size();
  restored_.reset(new Core[restored_count_]);
  for (std::size_t i = 0; i < restored_count_; ++i) {
    Core& slot = restored_[i];
    slot.library_ = interned_name_;
    slot.source_ = source_.get();
    slot.record_ = records[i];
    slot.filled_.store(false, std::memory_order_relaxed);
  }
  names_indexed_ = restored_count_ == 0;
  return {restored_.get(), restored_count_};
}

void ReuseLibrary::reserve(std::size_t count) { names_.reserve(size() + count); }

std::size_t ReuseLibrary::hydrated() const {
  return cores_.size() + (source_ != nullptr ? source_->filled() : 0);
}

std::vector<const Core*> ReuseLibrary::cores() const {
  std::vector<const Core*> out;
  out.reserve(size());
  for (std::size_t i = 0; i < restored_count_; ++i) out.push_back(&restored_[i]);
  for (const Core& c : cores_) out.push_back(&c);
  return out;
}

}  // namespace dslayer::dsl
