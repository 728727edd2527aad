#include "storage/csv.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace smartdd {

bool ParseCsvRecord(const std::string& input, size_t* pos, char delimiter,
                    std::vector<std::string>* fields) {
  fields->clear();
  size_t i = *pos;
  const size_t n = input.size();
  if (i >= n) return false;

  std::string field;
  bool in_quotes = false;
  bool saw_any = false;
  for (; i < n; ++i) {
    char c = input[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && input[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      saw_any = true;
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      saw_any = true;
    } else if (c == delimiter) {
      fields->push_back(std::move(field));
      field.clear();
      saw_any = true;
    } else if (c == '\n' || c == '\r') {
      // End of record; swallow a CRLF pair.
      if (c == '\r' && i + 1 < n && input[i + 1] == '\n') ++i;
      ++i;
      break;
    } else {
      field += c;
      saw_any = true;
    }
  }
  fields->push_back(std::move(field));
  *pos = i;
  // A lone trailing newline yields an empty "record"; report no record.
  if (!saw_any && fields->size() == 1 && (*fields)[0].empty()) {
    return *pos < n;  // there may be more content (e.g. blank line mid-file)
  }
  return true;
}

namespace {

Result<Table> ParseCsv(const std::string& content, const CsvOptions& options) {
  size_t pos = 0;
  std::vector<std::string> fields;

  // Header / column names.
  std::vector<std::string> names;
  if (options.has_header) {
    if (!ParseCsvRecord(content, &pos, options.delimiter, &fields)) {
      return Status::InvalidArgument("CSV is empty (no header)");
    }
    for (auto& f : fields) names.push_back(std::string(Trim(f)));
  } else {
    // Peek the first record to learn the column count.
    size_t peek = pos;
    if (!ParseCsvRecord(content, &peek, options.delimiter, &fields)) {
      return Status::InvalidArgument("CSV is empty");
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      names.push_back(StrFormat("col%zu", i));
    }
  }

  // Split into categorical vs measure columns.
  std::vector<bool> is_measure(names.size(), false);
  for (const auto& m : options.measure_columns) {
    bool found = false;
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == m) {
        is_measure[i] = true;
        found = true;
      }
    }
    if (!found) {
      return Status::InvalidArgument("measure column '" + m +
                                     "' not found in CSV header");
    }
  }
  std::vector<std::string> cat_names;
  std::vector<std::string> measure_names;
  for (size_t i = 0; i < names.size(); ++i) {
    (is_measure[i] ? measure_names : cat_names).push_back(names[i]);
  }

  Table table(cat_names);
  for (auto& m : measure_names) table.AddMeasureColumn(m);

  std::vector<std::string> cat_values(cat_names.size());
  std::vector<double> measure_values(measure_names.size());
  uint64_t row_count = 0;
  uint64_t record_no = options.has_header ? 1 : 0;
  while (ParseCsvRecord(content, &pos, options.delimiter, &fields)) {
    ++record_no;
    // Skip fully blank records (e.g. trailing newline artifacts).
    if (fields.size() == 1 && Trim(fields[0]).empty()) continue;
    if (fields.size() != names.size()) {
      return Status::InvalidArgument(
          StrFormat("CSV record %llu has %zu fields, expected %zu",
                    static_cast<unsigned long long>(record_no), fields.size(),
                    names.size()));
    }
    size_t ci = 0;
    size_t mi = 0;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (is_measure[i]) {
        auto parsed = ParseDouble(fields[i]);
        if (!parsed.ok() || !std::isfinite(*parsed)) {
          return Status::InvalidArgument(
              StrFormat("CSV record %llu: measure field '%s' is not a finite "
                        "number",
                        static_cast<unsigned long long>(record_no),
                        fields[i].c_str()));
        }
        measure_values[mi++] = *parsed;
      } else {
        std::string v(Trim(fields[i]));
        cat_values[ci++] = v.empty() ? options.empty_value : v;
      }
    }
    SMARTDD_RETURN_IF_ERROR(table.AppendRowValues(cat_values, measure_values));
    ++row_count;
    if (options.max_rows > 0 && row_count >= options.max_rows) break;
  }
  table.Freeze();
  return table;
}

std::string EscapeCsvField(const std::string& field, char delimiter) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open CSV file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCsv(buf.str(), options);
}

Result<Table> ReadCsvString(const std::string& content,
                            const CsvOptions& options) {
  return ParseCsv(content, options);
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot create CSV file: " + path);
  std::string sep(1, delimiter);
  // Header.
  std::vector<std::string> header;
  for (const auto& n : table.schema().names()) {
    header.push_back(EscapeCsvField(n, delimiter));
  }
  for (size_t m = 0; m < table.num_measures(); ++m) {
    header.push_back(EscapeCsvField(table.measure_name(m), delimiter));
  }
  out << Join(header, sep) << "\n";
  // Rows.
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(EscapeCsvField(table.ValueAt(c, r), delimiter));
    }
    for (size_t m = 0; m < table.num_measures(); ++m) {
      row.push_back(FormatDouble(table.measure(m, r), 15));
    }
    out << Join(row, sep) << "\n";
  }
  if (!out) return Status::IOError("error writing CSV file: " + path);
  return Status::OK();
}

}  // namespace smartdd
