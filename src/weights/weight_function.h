#ifndef SMARTDD_WEIGHTS_WEIGHT_FUNCTION_H_
#define SMARTDD_WEIGHTS_WEIGHT_FUNCTION_H_

#include <limits>
#include <string>

#include "rules/rule.h"

namespace smartdd {

/// Assigns a non-negative goodness score to a rule, independent of the data
/// (paper §2.2). Implementations must be:
///   * non-negative: W(r) >= 0 for all rules, and
///   * monotonic:    if r1 is a sub-rule of r2 then W(r1) <= W(r2)
///     (more specific rules never weigh less).
/// These two properties are what the BRS pruning bounds and the greedy
/// approximation guarantee rely on; tests/weights_test.cc property-checks
/// every implementation shipped here, and that no weight exceeds
/// MaxPossibleWeight.
class WeightFunction {
 public:
  virtual ~WeightFunction() = default;

  /// The weight of `rule`. Must be cheap; BRS evaluates it once per
  /// candidate rule.
  virtual double Weight(const Rule& rule) const = 0;

  /// Human-readable name for logs and benchmark output.
  virtual std::string name() const = 0;

  /// An upper bound on Weight over all rules of the given width, used by
  /// parameter guidance (§6.1) and by the marginal search, which weighs
  /// only the candidates that survive pruning when its cap mw is at least
  /// this bound. Defaults to +infinity when unknown.
  virtual double MaxPossibleWeight(size_t num_columns) const {
    (void)num_columns;
    return std::numeric_limits<double>::infinity();
  }

  /// True when every weight this function returns is an integer. Then,
  /// under Count from integer covered weights, every marginal term is an
  /// integer, and the marginal search counts by popcounts instead of
  /// per-row sums (see MarginalRuleFinder). Defaults to false.
  virtual bool IntegerValued() const { return false; }
};

}  // namespace smartdd

#endif  // SMARTDD_WEIGHTS_WEIGHT_FUNCTION_H_
