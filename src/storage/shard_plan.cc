#include "storage/shard_plan.h"

#include "common/logging.h"
#include "storage/packed_column.h"

namespace smartdd {

ShardPlan ShardPlan::Make(uint64_t num_rows, size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  ShardPlan plan;
  plan.num_rows_ = num_rows;
  plan.ranges_.resize(num_shards);

  // Even split; interior boundaries aligned down to the scan granule when
  // every shard still gets at least one full granule that way. Integer
  // arithmetic on (num_rows, i, num_shards) only: pure by construction.
  const bool align = num_rows >= kGranuleRows * num_shards;
  uint64_t begin = 0;
  for (size_t i = 0; i < num_shards; ++i) {
    uint64_t end = num_rows * (i + 1) / num_shards;
    if (align && i + 1 < num_shards) end -= end % kGranuleRows;
    SMARTDD_DCHECK(end >= begin);
    plan.ranges_[i] = ShardRange{begin, end};
    begin = end;
  }
  plan.ranges_.back().end = num_rows;
  return plan;
}

size_t ShardPlan::ShardOf(uint64_t row) const {
  SMARTDD_CHECK(row < num_rows_) << "row out of range";
  for (size_t i = 0; i < ranges_.size(); ++i) {
    if (row < ranges_[i].end) return i;
  }
  return ranges_.size() - 1;  // unreachable: the last range ends at num_rows_
}

}  // namespace smartdd
