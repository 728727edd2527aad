#include "sampling/sample.h"

#include "common/logging.h"

namespace smartdd {

Sample::Sample(Rule filter, const Table& prototype)
    : filter_(std::move(filter)), prototype_(Table::EmptyLike(prototype)) {
  SMARTDD_CHECK(filter_.num_columns() == prototype_.num_columns());
  for (size_t c = 0; c < filter_.num_columns(); ++c) {
    if (filter_.is_star(c)) star_cols_.push_back(c);
  }
  codes_.resize(star_cols_.size());
  measures_.resize(prototype_.num_measures());
}

void Sample::Add(uint64_t row_id, const uint32_t* codes,
                 const double* measures) {
  for (size_t k = 0; k < star_cols_.size(); ++k) {
    codes_[k].push_back(codes[star_cols_[k]]);
  }
  for (size_t m = 0; m < measures_.size(); ++m) {
    measures_[m].push_back(measures == nullptr ? 0.0 : measures[m]);
  }
  row_ids_.push_back(row_id);
}

void Sample::Reserve(size_t n) {
  for (auto& col : codes_) col.reserve(n);
  for (auto& col : measures_) col.reserve(n);
  row_ids_.reserve(n);
}

void Sample::Resize(size_t n) {
  for (auto& col : codes_) col.resize(n);
  for (auto& col : measures_) col.resize(n);
  row_ids_.resize(n);
}

void Sample::ReplaceAt(size_t slot, uint64_t row_id, const uint32_t* codes,
                       const double* measures) {
  SMARTDD_DCHECK(slot < row_ids_.size());
  for (size_t k = 0; k < star_cols_.size(); ++k) {
    codes_[k][slot] = codes[star_cols_[k]];
  }
  for (size_t m = 0; m < measures_.size(); ++m) {
    measures_[m][slot] = measures == nullptr ? 0.0 : measures[m];
  }
  row_ids_[slot] = row_id;
}

void Sample::GetRow(size_t slot, uint32_t* out) const {
  SMARTDD_DCHECK(slot < row_ids_.size());
  // Constant columns come from the filter rule (the elision optimization).
  for (size_t c = 0; c < filter_.num_columns(); ++c) {
    if (!filter_.is_star(c)) out[c] = filter_.value(c);
  }
  for (size_t k = 0; k < star_cols_.size(); ++k) {
    out[star_cols_[k]] = codes_[k][slot];
  }
}

void Sample::GetMeasures(size_t slot, double* out) const {
  SMARTDD_DCHECK(slot < row_ids_.size());
  for (size_t m = 0; m < measures_.size(); ++m) out[m] = measures_[m][slot];
}

Table Sample::Materialize() const {
  std::vector<std::vector<uint32_t>> columns(filter_.num_columns());
  for (size_t c = 0; c < columns.size(); ++c) {
    if (!filter_.is_star(c)) columns[c].assign(size(), filter_.value(c));
  }
  for (size_t k = 0; k < star_cols_.size(); ++k) {
    columns[star_cols_[k]] = codes_[k];
  }
  return Table::FromColumns(prototype_, std::move(columns), measures_);
}

}  // namespace smartdd
