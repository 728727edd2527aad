#ifndef SMARTDD_STORAGE_SCAN_SOURCE_H_
#define SMARTDD_STORAGE_SCAN_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace smartdd {

/// One block of a scan pass: source rows [row_begin, row_begin + num_rows),
/// never more than kGranuleRows and never crossing a granule boundary.
/// Block row i is index `offset + i` of every column reader and measure
/// array, so the packed-column kernels (core/scan_kernels) read a block in
/// place. The readers stay valid only during the callback.
struct ScanBlock {
  uint64_t row_begin = 0;
  size_t num_rows = 0;
  uint64_t offset = 0;
  const PackedRef* columns = nullptr;       ///< one per categorical column
  size_t num_columns = 0;
  const double* const* measures = nullptr;  ///< one array per measure
  size_t num_measures = 0;
  /// Index of the chunk the block belongs to in a chunked pass (0 in a
  /// sequential one), for callers keeping per-chunk accumulators.
  uint64_t chunk = 0;

  /// Decodes the codes of block row `i` into `out` (num_columns entries).
  void GetRow(size_t i, uint32_t* out) const {
    for (size_t c = 0; c < num_columns; ++c) {
      out[c] = columns[c].Get(offset + i);
    }
  }
  /// Measure values of block row `i` into `out` (num_measures entries).
  void GetMeasures(size_t i, double* out) const {
    for (size_t m = 0; m < num_measures; ++m) out[m] = measures[m][offset + i];
  }
};

/// Callback of a scan pass, once per block in row order. Return false to
/// stop the pass (a chunked pass: the current chunk) early.
using BlockCallback = std::function<bool(const ScanBlock& block)>;

/// Per-row form of a block for tools and tests: calls
/// fn(row_id, codes, measures) for each row (measures is nullptr when the
/// source has none) and returns false as soon as fn does. The library's
/// own passes read blocks through the kernels instead.
template <typename RowFn>
bool ForEachRow(const ScanBlock& block, RowFn&& fn) {
  std::vector<uint32_t> codes(block.num_columns);
  std::vector<double> measures(block.num_measures);
  for (size_t i = 0; i < block.num_rows; ++i) {
    block.GetRow(i, codes.data());
    block.GetMeasures(i, measures.data());
    if (!fn(block.row_begin + i, codes.data(),
            block.num_measures ? measures.data() : nullptr)) {
      return false;
    }
  }
  return true;
}

/// A table that can only be read by full sequential passes — the abstraction
/// the SampleHandler is written against. The paper's setting is a table too
/// large for memory where every Create costs a disk pass; implementations
/// here are an in-memory table (tests, small data) and a file-backed
/// DiskTable (large data).
class ScanSource {
 public:
  virtual ~ScanSource() = default;

  virtual const Schema& schema() const = 0;
  virtual uint64_t num_rows() const = 0;
  virtual size_t num_measures() const = 0;

  /// Sequential pass over the row range [row_begin, row_end), one block
  /// per granule the range touches. Implementations must allow concurrent
  /// ScanRange calls on disjoint ranges from different threads (each call
  /// carries its own buffers/file handles). A range pass does not count
  /// towards scan_count(); only whole-table passes do.
  virtual Status ScanRange(uint64_t row_begin, uint64_t row_end,
                           const BlockCallback& fn) const = 0;

  /// One pass over all tuples. With `num_chunks` > 1 the pass is
  /// partitioned: [0, num_rows) splits into `num_chunks` contiguous ranges
  /// and each block carries its chunk index. The chunks are scanned in
  /// min(parallelism, num_chunks) contiguous groups on the shared thread
  /// pool (1 runs fully inline); each group makes one ScanRange over its
  /// rows, so every granule is read once per group, and a block that
  /// crosses a chunk boundary is split there and handed to each chunk in
  /// turn.
  ///
  /// Determinism contract: chunk boundaries (n*c/num_chunks) depend only
  /// on num_rows and num_chunks — never on `parallelism` or the machine —
  /// so callers that keep per-chunk accumulators and merge them in chunk
  /// order afterwards get bit-identical results for every thread count.
  /// `fn` must be safe to call concurrently for *different* chunks; within
  /// a chunk, blocks arrive in row order on one thread, and never extend
  /// past the chunk. A false return stops that chunk only. On failure the
  /// error of the first failing chunk in chunk order is returned. Counts
  /// as a single pass in scan_count().
  Status ScanBlocks(const BlockCallback& fn, uint64_t num_chunks = 1,
                    size_t parallelism = 1) const;

  /// Per-row forms of ScanBlocks for tools and tests (see ForEachRow):
  /// fn(row_id, codes, measures), and fn(chunk, row_id, codes, measures)
  /// for a chunked pass.
  template <typename RowFn>
  Status Scan(RowFn&& fn) const {
    return ScanBlocks(
        [&](const ScanBlock& block) { return ForEachRow(block, fn); });
  }
  template <typename RowFn>
  Status ScanChunks(uint64_t num_chunks, size_t parallelism,
                    RowFn&& fn) const {
    return ScanBlocks(
        [&](const ScanBlock& block) {
          return ForEachRow(block, [&](uint64_t row, const uint32_t* codes,
                                       const double* measures) {
            return fn(block.chunk, row, codes, measures);
          });
        },
        num_chunks, parallelism);
  }

  /// Deterministic chunk-count policy for partitioned passes: a pure
  /// function of the row count (roughly one chunk per 4096 rows, capped at
  /// 64), so chunked results are reproducible across machines and thread
  /// counts.
  static uint64_t PlanChunks(uint64_t num_rows);

  /// Creates an empty in-memory Table sharing this source's dictionaries
  /// (codes a pass reads are valid codes in the returned table).
  virtual Table MakeEmptyTable() const = 0;

  /// Number of completed whole-table passes (ScanBlocks calls) —
  /// for tests/benchmarks asserting how often the "disk" was touched. Safe
  /// to read while a background pass is in flight (e.g. the §4.3
  /// prefetcher): increments are atomic.
  uint64_t scan_count() const {
    return scan_count_.load(std::memory_order_relaxed);
  }

 protected:
  mutable std::atomic<uint64_t> scan_count_{0};
};

/// ScanSource over an in-memory Table.
class MemoryScanSource : public ScanSource {
 public:
  /// Does not take ownership; `table` must outlive the source.
  explicit MemoryScanSource(const Table& table) : table_(&table) {}

  const Schema& schema() const override { return table_->schema(); }
  uint64_t num_rows() const override { return table_->num_rows(); }
  size_t num_measures() const override { return table_->num_measures(); }
  /// Hands out ranges of the table itself: no copy, no decode.
  Status ScanRange(uint64_t row_begin, uint64_t row_end,
                   const BlockCallback& fn) const override;
  Table MakeEmptyTable() const override { return Table::EmptyLike(*table_); }

  const Table& table() const { return *table_; }

 private:
  const Table* table_;
};

}  // namespace smartdd

#endif  // SMARTDD_STORAGE_SCAN_SOURCE_H_
