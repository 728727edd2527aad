#include "core/mw_estimator.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/random.h"
#include "core/brs.h"

namespace smartdd {

Result<MwEstimate> EstimateMaxWeight(const TableView& view,
                                     const WeightFunction& weight, size_t k,
                                     uint64_t sample_rows, uint64_t seed) {
  if (sample_rows == 0) {
    return Status::InvalidArgument("sample_rows must be positive");
  }
  MwEstimate est;
  const uint64_t n = view.num_rows();

  // Uniform sample of rows without replacement (reservoir over the view),
  // gathered into a table of its own; a view no larger than the sample is
  // searched as it is.
  std::optional<Table> gathered;
  if (n > sample_rows) {
    Rng rng(seed);
    std::vector<uint32_t> rows;
    rows.reserve(sample_rows);
    for (uint64_t i = 0; i < n; ++i) {
      if (rows.size() < sample_rows) {
        rows.push_back(static_cast<uint32_t>(i));
      } else {
        uint64_t j = rng.UniformInt(i + 1);
        if (j < sample_rows) rows[j] = static_cast<uint32_t>(i);
      }
    }
    gathered = view.table().GatherRows(rows);
  }
  const TableView sample =
      gathered ? TableView(*gathered, view.measure_index()) : view;
  est.sample_rows = sample.num_rows();

  BrsOptions options;
  options.k = k;
  SMARTDD_ASSIGN_OR_RETURN(BrsResult result,
                           RunBrs({&sample}, weight, options));

  double max_w = 0;
  for (const auto& r : result.rules) max_w = std::max(max_w, r.weight);
  est.observed_max_weight = max_w;
  if (max_w > 0) {
    est.mw = 2 * max_w;
  } else {
    double cap = weight.MaxPossibleWeight(view.num_columns());
    est.mw = std::isfinite(cap) ? cap : 1.0;
  }
  return est;
}

}  // namespace smartdd
