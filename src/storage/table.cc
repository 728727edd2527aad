#include "storage/table.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace smartdd {

Table::Table(std::vector<std::string> column_names)
    : schema_(std::move(column_names)) {
  dicts_.reserve(schema_.num_columns());
  cols_.resize(schema_.num_columns());
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    dicts_.push_back(std::make_shared<ValueDictionary>());
  }
}

Table Table::EmptyLike(const Table& other) {
  Table t(other.schema_.names());
  t.dicts_ = other.dicts_;  // share code space
  t.measure_names_ = other.measure_names_;
  t.measures_.resize(t.measure_names_.size());
  return t;
}

Table Table::EmptyWithDictionaries(
    std::vector<std::string> column_names,
    std::vector<std::shared_ptr<ValueDictionary>> dicts,
    std::vector<std::string> measure_names) {
  Table t(std::move(column_names));
  SMARTDD_CHECK(dicts.size() == t.num_columns())
      << "expected " << t.num_columns() << " dictionaries, got "
      << dicts.size();
  t.dicts_ = std::move(dicts);
  t.measure_names_ = std::move(measure_names);
  t.measures_.resize(t.measure_names_.size());
  return t;
}

Table Table::FromColumns(const Table& like,
                         std::vector<std::vector<uint32_t>> codes,
                         std::vector<std::vector<double>> measures) {
  Table t = EmptyLike(like);
  SMARTDD_CHECK(codes.size() == t.cols_.size() &&
                measures.size() == t.measures_.size())
      << "FromColumns needs one vector per column and per measure";
  const uint64_t n = codes.empty() ? (measures.empty() ? 0 : measures[0].size())
                                   : codes[0].size();
  for (size_t c = 0; c < codes.size(); ++c) {
    SMARTDD_CHECK(codes[c].size() == n) << "column " << c << " length";
    t.cols_[c] = PackedColumn::FromCodes(std::move(codes[c]));
  }
  for (size_t m = 0; m < measures.size(); ++m) {
    SMARTDD_CHECK(measures[m].size() == n) << "measure " << m << " length";
    t.measures_[m] = std::move(measures[m]);
  }
  t.num_rows_ = n;
  return t;
}

template <typename RowAt>
Table Table::CopyRows(uint64_t n, RowAt row_at) const {
  Table t = EmptyLike(*this);
  // Each column copies in its own representation, so copies of a frozen
  // table come out frozen at the parent's widths: shard slices and
  // drill-down covers inherit the parent's packed layout.
  for (size_t c = 0; c < cols_.size(); ++c) {
    t.cols_[c] = cols_[c].CopyRows(n, row_at);
  }
  for (size_t m = 0; m < measures_.size(); ++m) {
    t.measures_[m].resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      t.measures_[m][i] = measures_[m][row_at(i)];
    }
  }
  t.num_rows_ = n;
  t.frozen_ = frozen_;
  return t;
}

Table Table::SliceRows(uint64_t row_begin, uint64_t row_end) const {
  SMARTDD_CHECK(row_begin <= row_end && row_end <= num_rows_)
      << "slice [" << row_begin << ", " << row_end << ") out of range";
  return CopyRows(row_end - row_begin,
                  [row_begin](uint64_t i) { return row_begin + i; });
}

Table Table::GatherRows(std::span<const uint32_t> rows) const {
  for (uint32_t r : rows) {
    SMARTDD_DCHECK(r < num_rows_) << "gather row " << r << " out of range";
  }
  return CopyRows(rows.size(),
                  [rows](uint64_t i) { return uint64_t{rows[i]}; });
}

Table Table::UnfrozenCopyWithPrivateDicts() const {
  Table t(schema_.names());
  for (size_t c = 0; c < dicts_.size(); ++c) {
    *t.dicts_[c] = *dicts_[c];  // clone the code space, keep codes stable
  }
  t.measure_names_ = measure_names_;
  t.measures_ = measures_;
  for (size_t c = 0; c < cols_.size(); ++c) {
    t.cols_[c].Reserve(num_rows_);
    for (uint64_t r = 0; r < num_rows_; ++r) {
      t.cols_[c].Append(cols_[c].Get(r));
    }
  }
  t.num_rows_ = num_rows_;
  return t;
}

uint32_t Table::EncodeValue(size_t col, std::string_view value) {
  SMARTDD_CHECK(col < dicts_.size());
  return dicts_[col]->GetOrAdd(value);
}

void Table::AppendRow(std::span<const uint32_t> codes,
                      std::span<const double> measures) {
  SMARTDD_CHECK(codes.size() == cols_.size())
      << "expected " << cols_.size() << " codes, got " << codes.size();
  SMARTDD_CHECK(measures.size() == measures_.size())
      << "expected " << measures_.size() << " measures, got "
      << measures.size();
  for (size_t c = 0; c < cols_.size(); ++c) cols_[c].Append(codes[c]);
  for (size_t m = 0; m < measures_.size(); ++m) {
    measures_[m].push_back(measures[m]);
  }
  ++num_rows_;
}

Status Table::AppendRowValues(const std::vector<std::string>& values,
                              std::span<const double> measures) {
  if (values.size() != cols_.size()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values, table has %zu columns", values.size(),
                  cols_.size()));
  }
  std::vector<uint32_t> codes(values.size());
  for (size_t c = 0; c < values.size(); ++c) {
    codes[c] = EncodeValue(c, values[c]);
  }
  AppendRow(codes, measures);
  return Status::OK();
}

void Table::AppendRowFrom(const Table& src, uint64_t row) {
  SMARTDD_DCHECK(src.num_columns() == num_columns());
  SMARTDD_DCHECK(row < src.num_rows());
  for (size_t c = 0; c < cols_.size(); ++c) {
    SMARTDD_DCHECK(dicts_[c] == src.dicts_[c])
        << "AppendRowFrom requires shared dictionaries";
    cols_[c].Append(src.cols_[c].Get(row));
  }
  for (size_t m = 0; m < measures_.size(); ++m) {
    measures_[m].push_back(src.measures_[m][row]);
  }
  ++num_rows_;
}

size_t Table::AddMeasureColumn(std::string name) {
  SMARTDD_CHECK(num_rows_ == 0) << "add measure columns before appending rows";
  measure_names_.push_back(std::move(name));
  measures_.emplace_back();
  return measure_names_.size() - 1;
}

Result<size_t> Table::FindMeasure(const std::string& name) const {
  for (size_t m = 0; m < measure_names_.size(); ++m) {
    if (measure_names_[m] == name) return m;
  }
  return Status::NotFound("no measure column named '" + name + "'");
}

void Table::Freeze() {
  if (frozen_) return;
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].Freeze(dicts_[c]->size());
  }
  frozen_ = true;
}

size_t Table::resident_column_bytes() const {
  size_t total = 0;
  for (const PackedColumn& c : cols_) total += c.byte_size();
  return total;
}

void Table::GetRow(uint64_t row, uint32_t* out) const {
  for (size_t c = 0; c < cols_.size(); ++c) out[c] = cols_[c].Get(row);
}

}  // namespace smartdd
