#ifndef SMARTDD_WEIGHTS_STANDARD_WEIGHTS_H_
#define SMARTDD_WEIGHTS_STANDARD_WEIGHTS_H_

#include <vector>

#include "storage/table.h"
#include "weights/weight_function.h"

namespace smartdd {

/// Size weighting (paper §2.2): W(r) = number of non-star values. "The
/// number of table cells pre-filled by the rule-list."
class SizeWeight : public WeightFunction {
 public:
  double Weight(const Rule& rule) const override {
    return static_cast<double>(rule.size());
  }
  std::string name() const override { return "Size"; }
  double MaxPossibleWeight(size_t num_columns) const override {
    return static_cast<double>(num_columns);
  }
  bool IntegerValued() const override { return true; }
};

/// Bits weighting (paper §2.2): W(r) = sum over instantiated columns c of
/// ceil(log2(|c|)), where |c| is the column's dictionary cardinality.
/// Columns with many distinct values convey more information when pinned.
class BitsWeight : public WeightFunction {
 public:
  /// `bits_per_column[c]` = ceil(log2(|c|)). Use FromTable for the standard
  /// construction.
  explicit BitsWeight(std::vector<double> bits_per_column);

  /// Builds the paper's Bits function from a table's dictionaries.
  static BitsWeight FromTable(const Table& table);

  double Weight(const Rule& rule) const override;
  std::string name() const override { return "Bits"; }
  double MaxPossibleWeight(size_t num_columns) const override;
  /// True iff every per-column bit count is an integer (FromTable's are).
  bool IntegerValued() const override;

  const std::vector<double>& bits_per_column() const {
    return bits_per_column_;
  }

 private:
  std::vector<double> bits_per_column_;
};

/// W(r) = max(0, Size(r) - 1) (paper §5.1.2; the paper's text writes
/// "Min(0, Size(r)-1)" but its semantics — zero weight for single-column
/// rules, forcing rules with >= 2 instantiated columns — require max).
class SizeMinusOneWeight : public WeightFunction {
 public:
  double Weight(const Rule& rule) const override {
    size_t s = rule.size();
    return s > 0 ? static_cast<double>(s - 1) : 0.0;
  }
  std::string name() const override { return "SizeMinusOne"; }
  double MaxPossibleWeight(size_t num_columns) const override {
    return num_columns > 0 ? static_cast<double>(num_columns - 1) : 0.0;
  }
  bool IntegerValued() const override { return true; }
};

/// Linear per-column weighting: W(r) = sum of w_c over instantiated columns.
/// Generalizes Size (all 1) and Bits (log cardinalities), and expresses
/// column preference (larger w_c) or indifference (w_c = 0) per §2.2/§6.1.
/// All w_c must be >= 0 for monotonicity.
class LinearColumnWeight : public WeightFunction {
 public:
  explicit LinearColumnWeight(std::vector<double> column_weights,
                              std::string name = "LinearColumn");

  double Weight(const Rule& rule) const override;
  std::string name() const override { return name_; }
  double MaxPossibleWeight(size_t num_columns) const override;
  /// True iff every w_c is an integer.
  bool IntegerValued() const override;

  const std::vector<double>& column_weights() const { return weights_; }

 private:
  std::vector<double> weights_;
  std::string name_;
};

/// Indicator weighting used to emulate a *traditional* drill-down on column
/// `col` (paper §5.1.2): W(r) = 1 if r instantiates `col`, else 0. Combined
/// with k = |col|, BRS then enumerates the distinct values of `col` by
/// decreasing count — a regular drill-down.
class ColumnIndicatorWeight : public WeightFunction {
 public:
  explicit ColumnIndicatorWeight(size_t col) : col_(col) {}

  double Weight(const Rule& rule) const override {
    return rule.is_star(col_) ? 0.0 : 1.0;
  }
  std::string name() const override { return "ColumnIndicator"; }
  double MaxPossibleWeight(size_t) const override { return 1.0; }
  bool IntegerValued() const override { return true; }

 private:
  size_t col_;
};

/// Column-interest adjustment (paper §6.1: "the user can express interest
/// ... in certain columns ... the system internally adjusts the weight
/// function by increasing the weight given to rules instantiating that
/// column"): W'(r) = W_base(r) + sum over instantiated c of boost[c].
/// Boosts must be >= 0 to preserve monotonicity; express *disinterest* by
/// building the base function with zero weight on a column instead.
class ColumnBoostWeight : public WeightFunction {
 public:
  /// Does not take ownership; `base` must outlive this object.
  ColumnBoostWeight(const WeightFunction& base, std::vector<double> boosts);

  double Weight(const Rule& rule) const override;
  std::string name() const override { return base_->name() + "+Boost"; }
  double MaxPossibleWeight(size_t num_columns) const override;
  /// True iff the base is integer-valued and every boost is an integer.
  bool IntegerValued() const override;

 private:
  const WeightFunction* base_;
  std::vector<double> boosts_;
};

}  // namespace smartdd

#endif  // SMARTDD_WEIGHTS_STANDARD_WEIGHTS_H_
