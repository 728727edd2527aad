#include "weights/standard_weights.h"

#include <cmath>

#include "common/logging.h"

namespace smartdd {

namespace {

bool AllIntegers(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v) || std::floor(v) != v) return false;
  }
  return true;
}

}  // namespace

BitsWeight::BitsWeight(std::vector<double> bits_per_column)
    : bits_per_column_(std::move(bits_per_column)) {
  for (double b : bits_per_column_) {
    SMARTDD_CHECK(b >= 0) << "bits per column must be non-negative";
  }
}

BitsWeight BitsWeight::FromTable(const Table& table) {
  std::vector<double> bits;
  bits.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    uint32_t distinct = table.dictionary(c).size();
    // ceil(log2(|c|)); a single-valued column conveys 0 bits.
    double b = distinct <= 1 ? 0.0
                             : std::ceil(std::log2(static_cast<double>(distinct)));
    bits.push_back(b);
  }
  return BitsWeight(std::move(bits));
}

double BitsWeight::Weight(const Rule& rule) const {
  SMARTDD_DCHECK(rule.num_columns() == bits_per_column_.size());
  double w = 0;
  for (size_t c = 0; c < rule.num_columns(); ++c) {
    if (!rule.is_star(c)) w += bits_per_column_[c];
  }
  return w;
}

double BitsWeight::MaxPossibleWeight(size_t num_columns) const {
  double total = 0;
  for (size_t c = 0; c < num_columns && c < bits_per_column_.size(); ++c) {
    total += bits_per_column_[c];
  }
  return total;
}

bool BitsWeight::IntegerValued() const {
  return AllIntegers(bits_per_column_);
}

LinearColumnWeight::LinearColumnWeight(std::vector<double> column_weights,
                                       std::string name)
    : weights_(std::move(column_weights)), name_(std::move(name)) {
  for (double w : weights_) {
    SMARTDD_CHECK(w >= 0) << "column weights must be non-negative";
  }
}

double LinearColumnWeight::Weight(const Rule& rule) const {
  SMARTDD_DCHECK(rule.num_columns() == weights_.size());
  double w = 0;
  for (size_t c = 0; c < rule.num_columns(); ++c) {
    if (!rule.is_star(c)) w += weights_[c];
  }
  return w;
}

double LinearColumnWeight::MaxPossibleWeight(size_t num_columns) const {
  double total = 0;
  for (size_t c = 0; c < num_columns && c < weights_.size(); ++c) {
    total += weights_[c];
  }
  return total;
}

bool LinearColumnWeight::IntegerValued() const {
  return AllIntegers(weights_);
}

ColumnBoostWeight::ColumnBoostWeight(const WeightFunction& base,
                                     std::vector<double> boosts)
    : base_(&base), boosts_(std::move(boosts)) {
  for (double b : boosts_) {
    SMARTDD_CHECK(b >= 0) << "column boosts must be non-negative";
  }
}

double ColumnBoostWeight::Weight(const Rule& rule) const {
  SMARTDD_DCHECK(rule.num_columns() == boosts_.size());
  double w = base_->Weight(rule);
  for (size_t c = 0; c < rule.num_columns(); ++c) {
    if (!rule.is_star(c)) w += boosts_[c];
  }
  return w;
}

double ColumnBoostWeight::MaxPossibleWeight(size_t num_columns) const {
  double total = base_->MaxPossibleWeight(num_columns);
  for (size_t c = 0; c < num_columns && c < boosts_.size(); ++c) {
    total += boosts_[c];
  }
  return total;
}

bool ColumnBoostWeight::IntegerValued() const {
  return base_->IntegerValued() && AllIntegers(boosts_);
}

}  // namespace smartdd
