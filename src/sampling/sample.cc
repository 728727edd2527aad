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
