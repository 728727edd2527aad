#include "storage/scan_source.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace smartdd {

Status ScanSource::ScanBlocks(const BlockCallback& fn, uint64_t num_chunks,
                              size_t parallelism) const {
  SMARTDD_CHECK(num_chunks > 0) << "ScanBlocks needs at least one chunk";
  const uint64_t n = num_rows();
  // Per-chunk statuses, examined in chunk order afterwards so the reported
  // error is the same regardless of which thread ran which chunk.
  std::vector<Status> statuses(num_chunks);
  ThreadPool::Global().ParallelFor(num_chunks, parallelism, [&](uint64_t c) {
    const uint64_t begin = n * c / num_chunks;
    const uint64_t end = n * (c + 1) / num_chunks;
    if (begin == end) return;  // empty chunk (more chunks than rows)
    statuses[c] = ScanRange(begin, end, [&fn, c](const ScanBlock& block) {
      ScanBlock in_chunk = block;
      in_chunk.chunk = c;
      return fn(in_chunk);
    });
  });
  scan_count_.fetch_add(1, std::memory_order_relaxed);
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

uint64_t ScanSource::PlanChunks(uint64_t num_rows) {
  constexpr uint64_t kMaxChunks = 64;
  return std::clamp<uint64_t>(num_rows / kGranuleRows, 1, kMaxChunks);
}

Status MemoryScanSource::ScanRange(uint64_t row_begin, uint64_t row_end,
                                   const BlockCallback& fn) const {
  std::vector<PackedRef> columns(table_->num_columns());
  for (size_t c = 0; c < columns.size(); ++c) {
    columns[c] = table_->column(c).ref();
  }
  std::vector<const double*> measures(table_->num_measures());
  for (size_t m = 0; m < measures.size(); ++m) {
    measures[m] = table_->measure_column(m).data();
  }
  ScanBlock block;
  block.columns = columns.data();
  block.num_columns = columns.size();
  block.measures = measures.data();
  block.num_measures = measures.size();
  const uint64_t end = std::min<uint64_t>(row_end, table_->num_rows());
  for (uint64_t b0 = row_begin; b0 < end;) {
    const uint64_t b1 = std::min(end, (b0 / kGranuleRows + 1) * kGranuleRows);
    block.row_begin = b0;
    block.offset = b0;
    block.num_rows = static_cast<size_t>(b1 - b0);
    if (!fn(block)) break;
    b0 = b1;
  }
  return Status::OK();
}

}  // namespace smartdd
