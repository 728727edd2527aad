#include "sampling/sample.h"

#include <cstring>

#include "common/logging.h"

namespace smartdd {

Sample::Sample(Rule filter, const Table& prototype)
    : filter_(std::move(filter)),
      prototype_(Table::EmptyLike(prototype)),
      num_measures_(prototype.num_measures()) {
  SMARTDD_CHECK(filter_.num_columns() == prototype_.num_columns());
  for (size_t c = 0; c < filter_.num_columns(); ++c) {
    if (filter_.is_star(c)) star_cols_.push_back(c);
  }
}

void Sample::Add(uint64_t row_id, const uint32_t* codes,
                 const double* measures) {
  for (size_t c : star_cols_) codes_.push_back(codes[c]);
  for (size_t m = 0; m < num_measures_; ++m) {
    measures_.push_back(measures == nullptr ? 0.0 : measures[m]);
  }
  row_ids_.push_back(row_id);
}

void Sample::AddFrom(const Sample& src, size_t slot) {
  SMARTDD_DCHECK(src.filter_ == filter_ && slot < src.row_ids_.size());
  const size_t ns = star_cols_.size();
  codes_.insert(codes_.end(), src.codes_.begin() + slot * ns,
                src.codes_.begin() + (slot + 1) * ns);
  measures_.insert(measures_.end(),
                   src.measures_.begin() + slot * num_measures_,
                   src.measures_.begin() + (slot + 1) * num_measures_);
  row_ids_.push_back(src.row_ids_[slot]);
}

void Sample::Reserve(size_t n) {
  codes_.reserve(n * star_cols_.size());
  measures_.reserve(n * num_measures_);
  row_ids_.reserve(n);
}

void Sample::ReplaceAt(size_t slot, uint64_t row_id, const uint32_t* codes,
                       const double* measures) {
  SMARTDD_DCHECK(slot < row_ids_.size());
  size_t base = slot * star_cols_.size();
  for (size_t i = 0; i < star_cols_.size(); ++i) {
    codes_[base + i] = codes[star_cols_[i]];
  }
  size_t mbase = slot * num_measures_;
  for (size_t m = 0; m < num_measures_; ++m) {
    measures_[mbase + m] = measures == nullptr ? 0.0 : measures[m];
  }
  row_ids_[slot] = row_id;
}

void Sample::GetRow(size_t slot, uint32_t* out) const {
  SMARTDD_DCHECK(slot < row_ids_.size());
  // Constant columns come from the filter rule (the elision optimization).
  for (size_t c = 0; c < filter_.num_columns(); ++c) {
    if (!filter_.is_star(c)) out[c] = filter_.value(c);
  }
  size_t base = slot * star_cols_.size();
  for (size_t i = 0; i < star_cols_.size(); ++i) {
    out[star_cols_[i]] = codes_[base + i];
  }
}

void Sample::GetMeasures(size_t slot, double* out) const {
  SMARTDD_DCHECK(slot < row_ids_.size());
  size_t mbase = slot * num_measures_;
  for (size_t m = 0; m < num_measures_; ++m) out[m] = measures_[mbase + m];
}

Table Sample::Materialize() const {
  Table t = Table::EmptyLike(prototype_);
  std::vector<uint32_t> codes(t.num_columns());
  std::vector<double> measures(num_measures_);
  for (size_t slot = 0; slot < row_ids_.size(); ++slot) {
    GetRow(slot, codes.data());
    GetMeasures(slot, measures.data());
    t.AppendRow(codes, measures);
  }
  return t;
}

}  // namespace smartdd
