#include "support/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/strings.hpp"

namespace dslayer::telemetry {

namespace {

constexpr std::array<const char*, kEventKindCount> kKindNames = {
    "SessionOpened",       "RequirementSet",      "Decision",
    "Retract",             "Reaffirm",            "OptionEliminated",
    "ReassessmentFlagged", "ConstraintEvaluated", "ComplianceCheck",
    "CacheHit",            "CacheMiss",           "IndexRebuild",
    "QueryTimed",          "PrefilterSkip",
};

}  // namespace

const char* to_string(EventKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

std::optional<EventKind> parse_event_kind(std::string_view name) {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (name == kKindNames[i]) return static_cast<EventKind>(i);
  }
  return std::nullopt;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_jsonl(const Event& event) {
  return cat("{\"seq\":", event.seq, ",\"kind\":\"", to_string(event.kind), "\",\"subject\":\"",
             json_escape(event.subject), "\",\"detail\":\"", json_escape(event.detail), "\"}");
}

namespace {

/// Minimal scanner for the flat one-line objects to_jsonl() emits (string
/// and number values only, no nesting). Tolerates reordered keys and
/// whitespace; returns false on malformed input.
struct JsonScanner {
  std::string_view s;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  }

  bool consume(char c) {
    skip_ws();
    if (pos >= s.size() || s[pos] != c) return false;
    ++pos;
    return true;
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (!consume('"')) return false;
    out.clear();
    while (pos < s.size()) {
      const char c = s[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= s.size()) return false;
      const char esc = s[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 > s.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // We only emit \u00XX for control bytes; decode the Latin-1
          // subset and degrade the rest to '?'.
          out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated string
  }

  bool parse_number(double& out) {
    skip_ws();
    const std::size_t start = pos;
    while (pos < s.size() && (std::isdigit(static_cast<unsigned char>(s[pos])) != 0 ||
                              s[pos] == '-' || s[pos] == '+' || s[pos] == '.' || s[pos] == 'e' ||
                              s[pos] == 'E')) {
      ++pos;
    }
    if (pos == start) return false;
    const std::string token(s.substr(start, pos - start));
    char* end = nullptr;
    out = std::strtod(token.c_str(), &end);
    return end != nullptr && *end == '\0';
  }
};

}  // namespace

std::optional<Event> parse_event_jsonl(std::string_view line) {
  const std::string_view trimmed = trim(line);
  JsonScanner scan{trimmed};
  if (!scan.consume('{')) return std::nullopt;

  Event event;
  bool saw_kind = false;
  bool first = true;
  while (true) {
    scan.skip_ws();
    if (scan.consume('}')) break;
    if (!first && !scan.consume(',')) return std::nullopt;
    first = false;

    std::string key;
    if (!scan.parse_string(key) || !scan.consume(':')) return std::nullopt;
    if (key == "kind") {
      std::string name;
      if (!scan.parse_string(name)) return std::nullopt;
      const auto kind = parse_event_kind(name);
      if (!kind.has_value()) return std::nullopt;
      event.kind = *kind;
      saw_kind = true;
    } else if (key == "subject") {
      if (!scan.parse_string(event.subject)) return std::nullopt;
    } else if (key == "detail") {
      if (!scan.parse_string(event.detail)) return std::nullopt;
    } else if (key == "seq") {
      double v = 0.0;
      if (!scan.parse_number(v)) return std::nullopt;
      event.seq = static_cast<std::uint64_t>(v);
    } else {
      // Unknown keys (schema growth, or the "us" duration older journals
      // carry) are skipped if string- or number-valued.
      std::string ignored_s;
      double ignored_n = 0.0;
      scan.skip_ws();
      const bool ok = scan.pos < scan.s.size() && scan.s[scan.pos] == '"'
                          ? scan.parse_string(ignored_s)
                          : scan.parse_number(ignored_n);
      if (!ok) return std::nullopt;
    }
  }
  scan.skip_ws();
  if (scan.pos != scan.s.size() || !saw_kind) return std::nullopt;
  return event;
}

// ---------------------------------------------------------------------------
// JsonlFileSink
// ---------------------------------------------------------------------------

struct JsonlFileSink::Impl {
  std::ofstream out;
};

JsonlFileSink::JsonlFileSink(const std::string& path, std::size_t flush_every)
    : path_(path), flush_every_(flush_every == 0 ? 1 : flush_every),
      impl_(std::make_unique<Impl>()) {
  impl_->out.open(path, std::ios::out | std::ios::trunc);
  if (!impl_->out.is_open()) {
    throw Error(cat("telemetry: cannot open JSONL sink '", path, "' for writing"));
  }
}

JsonlFileSink::~JsonlFileSink() {
  // Buffered tail events must reach the file on orderly shutdown — an
  // ofstream destructor flushes too, but silently; this path still
  // counts a failure.
  if (unflushed_ > 0) flush();
}

void JsonlFileSink::flush() {
  unflushed_ = 0;
  impl_->out.flush();
  if (impl_->out.good()) return;
  write_failures_.add(1);
  if (!warned_) {
    warned_ = true;
    std::fprintf(stderr,
                 "warning: telemetry sink '%s' flush failed — buffered events may be lost "
                 "(counted in write_failures)\n",
                 path_.c_str());
  }
  impl_->out.clear();
}

void JsonlFileSink::write(const Event& event) {
  bool wrote = false;
  try {
    DSLAYER_FAILPOINT("telemetry.jsonl_write");
    impl_->out << to_jsonl(event) << '\n';
    if (++unflushed_ >= flush_every_) {
      unflushed_ = 0;
      impl_->out.flush();
    }
    wrote = impl_->out.good();
  } catch (const FailpointError&) {
    wrote = false;  // injected device failure
  }
  if (wrote) return;
  write_failures_.add(1);
  if (!warned_) {
    warned_ = true;
    std::fprintf(stderr,
                 "warning: telemetry sink '%s' write failed — events are being dropped "
                 "(counted in write_failures; further failures are silent)\n",
                 path_.c_str());
  }
  // Clear the error state so the journal resumes if the device recovers;
  // the dropped events stay counted.
  impl_->out.clear();
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

void Telemetry::record_timing(const std::string& query_kind, double duration_us) {
  histograms_[query_kind].record(duration_us);
  count(EventKind::kQueryTimed);
}

std::map<std::string, TimingSummary> Telemetry::timings() const {
  std::map<std::string, TimingSummary> out;
  for (const auto& [name, histogram] : histograms_) {
    TimingSummary summary;
    summary.count = histogram.count;
    summary.p50_us = histogram.quantile_us(0.50);
    summary.p95_us = histogram.quantile_us(0.95);
    summary.p99_us = histogram.quantile_us(0.99);
    summary.max_us = histogram.max_us;
    summary.total_us = histogram.total_us;
    out[name] = summary;
  }
  return out;
}

std::map<std::string, HistogramSnapshot> Telemetry::histogram_snapshots() const {
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snapshot;
    snapshot.buckets = histogram.buckets;
    snapshot.count = histogram.count;
    snapshot.max_us = histogram.max_us;
    snapshot.total_us = histogram.total_us;
    out[name] = snapshot;
  }
  return out;
}

void Telemetry::reset_counters() {
  for (RelaxedCounter& counter : counts_) counter.set(0);
  histograms_.clear();
}

std::size_t latency_bucket_ns(std::uint64_t ns) {
  if (ns == 0) return 0;
  // floor(log2 ns): 1 -> 0, 2 -> 1, 2^k -> k, 2^k + 1 -> k.
  return static_cast<std::size_t>(std::bit_width(ns)) - 1;
}

std::uint64_t bucket_upper_bound_ns(std::size_t bucket) {
  // Bucket i covers [2^i, 2^(i+1)); the last bucket is open-ended, its
  // bound reported as the saturating all-ones value so the sequence
  // stays strictly monotone (2^63 is bucket 62's exclusive bound).
  if (bucket >= kHistogramBuckets - 1) return ~0ULL;
  return 1ULL << (bucket + 1);
}

void Telemetry::Histogram::record(double us) {
  const double ns = us * 1000.0;
  std::size_t bucket = 0;
  if (ns >= 1.0) {
    bucket = latency_bucket_ns(static_cast<std::uint64_t>(std::min(ns, 9.0e18)));
  }
  ++buckets[std::min<std::size_t>(bucket, buckets.size() - 1)];
  ++count;
  max_us = std::max(max_us, us);
  total_us += us;
}

double Telemetry::Histogram::quantile_us(double q) const {
  if (count == 0) return 0.0;
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      // Upper bound of bucket i, capped by the exact max.
      const double upper_ns = static_cast<double>(bucket_upper_bound_ns(i));
      return std::min(upper_ns / 1000.0, max_us);
    }
  }
  return max_us;
}

}  // namespace dslayer::telemetry
