#include "storage/scan_source.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace smartdd {

Status ScanSource::Scan(const ScanCallback& fn) const {
  Status s = ScanRange(0, num_rows(), fn);
  scan_count_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Status ScanSource::ScanChunks(uint64_t num_chunks, size_t parallelism,
                              const ChunkedScanCallback& fn) const {
  SMARTDD_CHECK(num_chunks > 0) << "ScanChunks needs at least one chunk";
  const uint64_t n = num_rows();
  // Per-chunk statuses, examined in chunk order afterwards so the reported
  // error is the same regardless of which thread ran which chunk.
  std::vector<Status> statuses(num_chunks);
  ThreadPool::Global().ParallelFor(num_chunks, parallelism, [&](uint64_t c) {
    const uint64_t begin = n * c / num_chunks;
    const uint64_t end = n * (c + 1) / num_chunks;
    if (begin == end) return;  // empty chunk (more chunks than rows)
    statuses[c] = ScanRange(
        begin, end,
        [&fn, c](uint64_t row, const uint32_t* codes, const double* measures) {
          return fn(c, row, codes, measures);
        });
  });
  scan_count_.fetch_add(1, std::memory_order_relaxed);
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

uint64_t ScanSource::PlanChunks(uint64_t num_rows) {
  constexpr uint64_t kMinRowsPerChunk = 4096;
  constexpr uint64_t kMaxChunks = 64;
  return std::clamp<uint64_t>(num_rows / kMinRowsPerChunk, 1, kMaxChunks);
}

Status MemoryScanSource::ScanRange(uint64_t row_begin, uint64_t row_end,
                                   const ScanCallback& fn) const {
  const size_t num_cols = table_->num_columns();
  const size_t num_meas = table_->num_measures();
  std::vector<uint32_t> codes(num_cols);
  std::vector<double> measures(num_meas);
  const uint64_t end = std::min<uint64_t>(row_end, table_->num_rows());
  // Bulk-decode each column a block at a time (one Unpack per column per
  // block instead of a bit-extraction per cell), then transpose per row for
  // the row-major callback. Same rows in the same order as the direct loop.
  constexpr uint64_t kBlockRows = 4096;
  std::vector<uint32_t> decoded(num_cols * kBlockRows);
  for (uint64_t b0 = row_begin; b0 < end; b0 += kBlockRows) {
    const uint64_t b1 = std::min(end, b0 + kBlockRows);
    for (size_t c = 0; c < num_cols; ++c) {
      table_->column(c).Unpack(b0, b1, decoded.data() + c * kBlockRows);
    }
    for (uint64_t r = b0; r < b1; ++r) {
      const uint64_t t = r - b0;
      for (size_t c = 0; c < num_cols; ++c) {
        codes[c] = decoded[c * kBlockRows + t];
      }
      for (size_t m = 0; m < num_meas; ++m) {
        measures[m] = table_->measure(m, r);
      }
      if (!fn(r, codes.data(), num_meas ? measures.data() : nullptr)) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

}  // namespace smartdd
