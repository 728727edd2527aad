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
  const auto chunk_begin = [n, num_chunks](uint64_t c) {
    return n * c / num_chunks;
  };
  // Contiguous groups of chunks, one lane each, so a granule shared by two
  // chunks of a group is read once. Statuses are examined in group (hence
  // chunk) order afterwards, so the reported error is the same regardless
  // of which thread ran which group.
  const uint64_t num_groups =
      std::min<uint64_t>(std::max<size_t>(parallelism, 1), num_chunks);
  std::vector<Status> statuses(num_groups);
  ThreadPool::Global().ParallelFor(num_groups, parallelism, [&](uint64_t g) {
    const uint64_t last = num_chunks * (g + 1) / num_groups;
    const uint64_t group_end = chunk_begin(last);
    // One range scan from chunk `c` to the group's end, cutting each block
    // at chunk boundaries. A chunk whose callback returns false ends the
    // range, and the next range starts at the chunk after it.
    for (uint64_t c = num_chunks * g / num_groups; c < last;) {
      uint64_t cur = c;
      uint64_t stopped = last;
      statuses[g] = ScanRange(
          chunk_begin(c), group_end, [&](const ScanBlock& block) {
            ScanBlock piece = block;
            const uint64_t block_end = block.row_begin + block.num_rows;
            for (uint64_t row = block.row_begin; row < block_end;) {
              while (chunk_begin(cur + 1) <= row) ++cur;
              const uint64_t piece_end =
                  std::min(block_end, chunk_begin(cur + 1));
              piece.row_begin = row;
              piece.offset = block.offset + (row - block.row_begin);
              piece.num_rows = static_cast<size_t>(piece_end - row);
              piece.chunk = cur;
              if (!fn(piece)) {
                stopped = cur;
                return false;
              }
              row = piece_end;
            }
            return true;
          });
      if (!statuses[g].ok() || stopped == last) return;
      c = stopped + 1;
    }
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
