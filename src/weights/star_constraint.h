#ifndef SMARTDD_WEIGHTS_STAR_CONSTRAINT_H_
#define SMARTDD_WEIGHTS_STAR_CONSTRAINT_H_

#include <memory>

#include "weights/weight_function.h"

namespace smartdd {

/// The star-drill-down weight rewrite (paper §3.1): when the user clicks the
/// `?` in column `col` of a rule, the sub-problem uses
///   W'(r) = 0            if r has a star in `col`
///   W'(r) = W_base(r)    otherwise
/// which steers BRS toward rules instantiating `col` while keeping W'
/// monotonic (a sub-rule that instantiates `col` forces its super-rules to
/// instantiate `col` too).
class StarConstraintWeight : public WeightFunction {
 public:
  /// Does not take ownership; `base` must outlive this object.
  StarConstraintWeight(const WeightFunction& base, size_t col)
      : base_(&base), col_(col) {}

  double Weight(const Rule& rule) const override {
    return rule.is_star(col_) ? 0.0 : base_->Weight(rule);
  }
  std::string name() const override {
    return base_->name() + "+StarConstraint";
  }
  double MaxPossibleWeight(size_t num_columns) const override {
    return base_->MaxPossibleWeight(num_columns);
  }
  bool IntegerValued() const override { return base_->IntegerValued(); }

  size_t constrained_column() const { return col_; }

 private:
  const WeightFunction* base_;
  size_t col_;
};

}  // namespace smartdd

#endif  // SMARTDD_WEIGHTS_STAR_CONSTRAINT_H_
