// Small shared pieces of the benchmark harness: clocks, the seeded
// generator, raw-sample percentiles, request classes and spans.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// splitmix64: a tiny seeded generator whose sequence is fixed by the
/// seed alone (the standard distributions are not portable across
/// library versions, so the walks never go through them).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// 64-bit FNV-1a, for fixture stamps and script fingerprints.
inline std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Request classes the end-to-end metrics are split by.
enum class Verb : std::uint8_t {
  kQuery,   ///< range, ranges, options — the Sec. 5.1.5 what-if answers
  kMutate,  ///< open, req, decide, retract, reaffirm
  kRender,  ///< candidates, report
  kOther,   ///< derived, pending
};

inline const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::kQuery: return "query";
    case Verb::kMutate: return "mutate";
    case Verb::kRender: return "render";
    case Verb::kOther: return "other";
  }
  return "?";
}

inline Verb classify(const std::string& command) {
  const std::string verb = command.substr(0, command.find(' '));
  if (verb == "range" || verb == "ranges" || verb == "options") return Verb::kQuery;
  if (verb == "candidates" || verb == "report") return Verb::kRender;
  if (verb == "open" || verb == "req" || verb == "decide" || verb == "retract" ||
      verb == "reaffirm") {
    return Verb::kMutate;
  }
  return Verb::kOther;
}

/// A raw-sample percentile summary. `tail` is p99 when at least ten
/// samples lie beyond it; otherwise it is the highest percentile that
/// still has ten samples beyond it, and `tail_q` says which one.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;  ///< the quantile `tail` reports, 0.99 when n >= 1000
};

/// Nearest-rank quantile of sorted samples.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = quantile_sorted(samples, 0.5);
  constexpr std::size_t kBeyond = 10;
  if (s.n >= 100 * kBeyond) {
    s.tail_q = 0.99;
  } else if (s.n > kBeyond) {
    s.tail_q = static_cast<double>(s.n - kBeyond) / static_cast<double>(s.n);
  } else {
    s.tail_q = 1.0;  // too few samples for any tail: report the maximum
  }
  s.tail = quantile_sorted(samples, s.tail_q);
  return s;
}

inline double median(std::vector<double> values) { return summarize(std::move(values)).p50; }

/// One traced call at a layer boundary. Spans stay in memory and are
/// written out as JSONL when the traced run ends.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0;  ///< stream position the call served
};

}  // namespace perfbench
