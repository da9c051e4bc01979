#include "storage/csv_import.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <utility>

#include "storage/counters.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/strings.hpp"

namespace dslayer::storage {

namespace {

using dslayer::cat;

/// One CSV row. Handles quoted fields ("" escapes a quote; embedded
/// commas/newlines allowed). Advances `pos` past the row's terminator.
std::vector<std::string> parse_row(std::string_view csv, std::size_t& pos, std::size_t& line_no) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  bool any = false;
  while (pos < csv.size()) {
    const char c = csv[pos];
    if (quoted) {
      if (c == '"') {
        if (pos + 1 < csv.size() && csv[pos + 1] == '"') {
          field.push_back('"');
          pos += 2;
        } else {
          quoted = false;
          ++pos;
        }
      } else {
        if (c == '\n') ++line_no;
        field.push_back(c);
        ++pos;
      }
      continue;
    }
    if (c == '"' && field.empty()) {
      quoted = true;
      any = true;
      ++pos;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
      any = true;
      ++pos;
    } else if (c == '\n' || c == '\r') {
      if (c == '\r' && pos + 1 < csv.size() && csv[pos + 1] == '\n') ++pos;
      ++pos;
      ++line_no;
      break;
    } else {
      field.push_back(c);
      any = true;
      ++pos;
    }
  }
  if (quoted) throw StorageError(cat("csv line ", line_no, ": unterminated quoted field"));
  if (any || !field.empty() || !fields.empty()) fields.push_back(std::move(field));
  return fields;
}

bool parse_number(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

dsl::Value auto_value(const std::string& text) {
  double number;
  if (parse_number(text, number)) return dsl::Value::number(number);
  if (text == "true") return dsl::Value::flag(true);
  if (text == "false") return dsl::Value::flag(false);
  return dsl::Value::text(text);
}

enum class ColumnRole { kName, kClass, kLibrary, kBind, kMetric, kView };

struct ColumnSpec {
  ColumnRole role;
  std::string target;  ///< property / metric / view-level name
};

}  // namespace

CsvImportResult import_csv(std::string_view csv, const std::string& default_library,
                           std::size_t batch_rows,
                           const std::function<void(CatalogRecord)>& emit) {
  DSLAYER_REQUIRE(batch_rows > 0, "import batch size must be positive");
  CsvImportResult result;
  std::size_t pos = 0;
  std::size_t line_no = 1;

  const std::vector<std::string> header = parse_row(csv, pos, line_no);
  if (header.empty()) throw StorageError("csv: empty input (no header row)");

  std::vector<ColumnSpec> columns;
  columns.reserve(header.size());
  bool saw_name = false;
  bool saw_class = false;
  std::map<std::string, std::size_t> seen;  // duplicate-column rejection
  for (const std::string& raw : header) {
    const std::string title(trim(raw));
    if (seen.count(title) != 0) {
      throw StorageError(cat("csv header: duplicate column '", title, "'"));
    }
    seen.emplace(title, columns.size());
    if (title == "name") {
      columns.push_back({ColumnRole::kName, {}});
      saw_name = true;
    } else if (title == "class") {
      columns.push_back({ColumnRole::kClass, {}});
      saw_class = true;
    } else if (title == "library") {
      columns.push_back({ColumnRole::kLibrary, {}});
    } else if (starts_with(title, "bind:")) {
      columns.push_back({ColumnRole::kBind, title.substr(5)});
    } else if (starts_with(title, "metric:")) {
      columns.push_back({ColumnRole::kMetric, title.substr(7)});
    } else if (starts_with(title, "view:")) {
      columns.push_back({ColumnRole::kView, title.substr(5)});
    } else {
      columns.push_back({ColumnRole::kBind, title});  // bare name = binding
    }
  }
  if (!saw_name || !saw_class) {
    throw StorageError("csv header: 'name' and 'class' columns are required");
  }

  // Rows for one library accumulate until batch_rows, then flush as one
  // journal record. Different libraries keep separate pending batches so
  // interleaved rows still group correctly.
  std::map<std::string, std::vector<CoreRecord>> pending;
  const auto flush = [&](const std::string& library) {
    auto it = pending.find(library);
    if (it == pending.end() || it->second.empty()) return;
    emit(CatalogRecord::add_cores(library, std::move(it->second)));
    it->second.clear();
    ++result.batches;
  };

  while (pos < csv.size()) {
    const std::size_t row_line = line_no;
    const std::vector<std::string> fields = parse_row(csv, pos, line_no);
    if (fields.empty()) continue;  // blank line
    DSLAYER_FAILPOINT("storage.import.row");
    if (fields.size() > columns.size()) {
      throw StorageError(cat("csv line ", row_line, ": ", fields.size(), " fields but ",
                             columns.size(), " header columns"));
    }
    CoreRecord core;
    std::string library = default_library;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const std::string& cell = fields[i];
      if (cell.empty()) continue;
      switch (columns[i].role) {
        case ColumnRole::kName:
          core.name = cell;
          break;
        case ColumnRole::kClass:
          core.class_path = cell;
          break;
        case ColumnRole::kLibrary:
          library = cell;
          break;
        case ColumnRole::kBind:
          core.bindings.emplace_back(columns[i].target, auto_value(cell));
          break;
        case ColumnRole::kMetric: {
          double number;
          // strtod takes "nan"/"inf" whole; range folds need finite metrics.
          if (!parse_number(cell, number) || !std::isfinite(number)) {
            throw StorageError(cat("csv line ", row_line, ": metric '", columns[i].target,
                                   "' value '", cell, "' is not a number"));
          }
          core.metrics.emplace_back(columns[i].target, number);
          break;
        }
        case ColumnRole::kView:
          core.views.push_back({columns[i].target, cell});
          break;
      }
    }
    if (core.name.empty() || core.class_path.empty()) {
      result.warnings.push_back(
          cat("line ", row_line, ": skipped (missing name or class)"));
      continue;
    }
    if (library.empty()) {
      throw StorageError(cat("csv line ", row_line,
                             ": no library column value and no default library"));
    }
    // Journal replay bulk-adopts, which requires name-sorted properties.
    const auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
    std::sort(core.bindings.begin(), core.bindings.end(), by_name);
    std::sort(core.metrics.begin(), core.metrics.end(), by_name);
    std::vector<CoreRecord>& batch = pending[library];
    batch.push_back(std::move(core));
    ++result.rows;
    counters().import_rows.add();
    if (batch.size() >= batch_rows) flush(library);
  }
  for (auto& [library, batch] : pending) {
    if (!batch.empty()) flush(library);
  }
  return result;
}

}  // namespace dslayer::storage
