#ifndef SMARTDD_STORAGE_DISK_TABLE_H_
#define SMARTDD_STORAGE_DISK_TABLE_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/scan_source.h"
#include "storage/table.h"

namespace smartdd {

/// 256-entry table over byte values; see DiskTable's granule check.
using ByteScreen = std::array<uint8_t, 256>;

/// File-backed, dictionary-encoded table. This is the "big table on disk"
/// substrate of the paper's Section 4: reading it requires a full sequential
/// pass, which is exactly what the SampleHandler tries to avoid.
///
/// Binary layout, version 2 (little-endian):
///   magic "SDDT" | version u32 (2)
///   num_columns u32 | num_measures u32
///   per column: name (u32 len + bytes),
///               dict size u32, dict entries (u32 len + bytes each)
///   per measure: name (u32 len + bytes)
///   num_rows u64
///   granules of kGranuleRows rows (the last may be shorter), each:
///     per column: the codes' PackedColumn payload at the width class a
///       frozen column of that dictionary size has (PackedColumn::LayoutFor:
///       0, 1, 2 or 4 bits, or 1, 2 or 4 bytes per code);
///     per measure: the values as doubles;
///   every section zero-padded to a multiple of 8 bytes.
///
/// A 4096-row payload ends on a byte boundary at every width, so a full
/// granule's sections need no padding and every granule after the first
/// starts at a fixed offset. A scan hands each granule to its callback as a
/// block the scan kernels read in place; decoding a granule is one read,
/// checked for codes outside their dictionary and non-finite measures. The
/// code check is branch-free: byte, 16-bit and 32-bit codes are compared
/// with the dictionary size, and a sub-byte payload is screened one byte
/// per lookup in a 256-entry table built at Open (its fields never
/// straddle a byte); only a granule that fails the screen is searched for
/// its first bad row.
class DiskTable {
 public:
  /// Writes an in-memory table to `path`.
  static Status Write(const Table& table, const std::string& path);

  /// Opens an existing file; reads header + dictionaries, not the rows.
  static Result<std::shared_ptr<DiskTable>> Open(const std::string& path);

  const std::string& path() const { return path_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return num_rows_; }
  size_t num_measures() const { return measure_names_.size(); }
  const std::vector<std::string>& measure_names() const {
    return measure_names_;
  }
  const ValueDictionary& dictionary(size_t col) const { return *dicts_[col]; }

  /// Width class column `col`'s codes are stored at.
  PackedColumn::Layout column_layout(size_t col) const { return layouts_[col]; }

  /// Bytes one granule of `rows` rows occupies on disk.
  size_t GranuleBytes(uint64_t rows) const;

  /// Buffered sequential pass over rows [row_begin, row_end), one block per
  /// granule. Each call opens its own file handle, so concurrent range
  /// scans (the chunked parallel pass) are safe.
  Status ScanRange(uint64_t row_begin, uint64_t row_end,
                   const BlockCallback& fn) const;

  /// Per-row pass over all rows for tools and tests (see ForEachRow).
  template <typename RowFn>
  Status Scan(RowFn&& fn) const {
    return ScanRange(0, num_rows_, [&](const ScanBlock& block) {
      return ForEachRow(block, fn);
    });
  }

  /// Empty in-memory table sharing the dictionaries of this file (the same
  /// objects, not copies, so encode no new values into it).
  Table MakeEmptyTable() const;

 private:
  DiskTable() = default;

  std::string path_;
  Schema schema_;
  std::vector<std::shared_ptr<ValueDictionary>> dicts_;
  std::vector<PackedColumn::Layout> layouts_;
  /// Per column, the bytes of a sub-byte payload holding an out-of-range
  /// code (all zero for other widths).
  std::vector<ByteScreen> byte_screens_;
  std::vector<std::string> measure_names_;
  uint64_t num_rows_ = 0;
  uint64_t data_offset_ = 0;
};

/// Streaming writer: declare schema + final dictionaries up front, then
/// append rows one at a time without materializing the table in memory.
/// Used by the census generator to produce multi-GB files.
class DiskTableWriter {
 public:
  /// `prototype` supplies schema, dictionaries (must be final: codes may not
  /// grow after creation), and measure column names; its rows are ignored.
  static Result<std::unique_ptr<DiskTableWriter>> Create(
      const Table& prototype, const std::string& path);

  ~DiskTableWriter();

  DiskTableWriter(const DiskTableWriter&) = delete;
  DiskTableWriter& operator=(const DiskTableWriter&) = delete;

  /// Appends one row. `codes` must have one entry per categorical column and
  /// every code must be within the prototype dictionary; `measures` one per
  /// measure column (may be nullptr if there are none). Rows are buffered
  /// and written a granule at a time.
  Status AppendRow(const uint32_t* codes, const double* measures);

  /// Writes the last granule, patches the row count into the header and
  /// closes the file. Must be called exactly once; no appends afterwards.
  Status Finish();

  uint64_t rows_written() const { return rows_written_; }

 private:
  DiskTableWriter() = default;

  /// Packs and writes the buffered rows as one granule.
  Status FlushGranule();

  std::FILE* file_ = nullptr;
  std::string path_;
  std::vector<uint32_t> dict_sizes_;
  size_t num_measures_ = 0;
  uint64_t rows_written_ = 0;
  long row_count_offset_ = 0;
  /// The granule being filled: codes column-major, kGranuleRows per column;
  /// measures likewise.
  std::vector<uint32_t> codes_;
  std::vector<double> measures_;
  uint64_t buffered_ = 0;
  bool finished_ = false;
};

/// ScanSource adapter over a DiskTable.
class DiskScanSource : public ScanSource {
 public:
  explicit DiskScanSource(std::shared_ptr<DiskTable> table)
      : table_(std::move(table)) {}

  const Schema& schema() const override { return table_->schema(); }
  uint64_t num_rows() const override { return table_->num_rows(); }
  size_t num_measures() const override { return table_->num_measures(); }
  Status ScanRange(uint64_t row_begin, uint64_t row_end,
                   const BlockCallback& fn) const override {
    return table_->ScanRange(row_begin, row_end, fn);
  }
  Table MakeEmptyTable() const override { return table_->MakeEmptyTable(); }

  const DiskTable& disk_table() const { return *table_; }

 private:
  std::shared_ptr<DiskTable> table_;
};

}  // namespace smartdd

#endif  // SMARTDD_STORAGE_DISK_TABLE_H_
