#ifndef SMARTDD_STORAGE_TABLE_H_
#define SMARTDD_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/dictionary.h"
#include "storage/packed_column.h"
#include "storage/schema.h"

namespace smartdd {

/// In-memory, dictionary-encoded, column-major table of categorical columns
/// plus optional numeric measure columns (for Sum aggregation, paper §6.3).
///
/// Dictionaries are held by shared_ptr so that derived tables (samples,
/// drill-down slices) share code space with their parent: a code means the
/// same value in both.
class Table {
 public:
  /// An empty zero-column table (useful as a default member; rebuild with a
  /// real schema before use).
  Table() : Table(std::vector<std::string>{}) {}

  explicit Table(std::vector<std::string> column_names);

  /// Creates an empty table sharing `other`'s schema, dictionaries, and
  /// measure-column names. Used for samples and filtered slices.
  static Table EmptyLike(const Table& other);

  /// An empty table over `dicts` (one per column, shared, not copied) with
  /// measure columns named `measure_names`: how a file-backed source hands
  /// out its code space.
  static Table EmptyWithDictionaries(
      std::vector<std::string> column_names,
      std::vector<std::shared_ptr<ValueDictionary>> dicts,
      std::vector<std::string> measure_names);

  /// An unfrozen table like `like` (shared dictionaries) whose columns are
  /// `codes` (one per column) and whose measures are `measures` (one per
  /// measure column), all of one length: a column-major builder's output
  /// moved in without a per-row copy.
  static Table FromColumns(const Table& like,
                           std::vector<std::vector<uint32_t>> codes,
                           std::vector<std::vector<double>> measures);

  /// Copies rows [row_begin, row_end) into a new table sharing this table's
  /// dictionaries (a code means the same value in both). This is the shard
  /// partitioner's storage primitive: a ShardPlan's ranges sliced off a
  /// loaded table give N row-contiguous shard tables whose concatenation,
  /// in shard order, is exactly the original row sequence.
  Table SliceRows(uint64_t row_begin, uint64_t row_end) const;

  /// Copies the listed rows, in list order (any order, repeats allowed),
  /// into a new table sharing this table's dictionaries; frozen, at this
  /// table's column widths, when this table is. This is how a drill-down
  /// builds T_r, the compact table of the tuples its base rule covers
  /// (paper §3.1).
  Table GatherRows(std::span<const uint32_t> rows) const;

  /// Copies every row into a new *unfrozen* table whose dictionaries are
  /// private clones (same codes, separate objects). This is the live-table
  /// snapshot builder's primitive: appending new rows into the copy may
  /// grow its dictionaries without racing readers of the original — the
  /// shared-dictionary invariant EmptyLike relies on would make a frozen
  /// snapshot's code space mutate under concurrent sessions otherwise.
  Table UnfrozenCopyWithPrivateDicts() const;

  // --- Building -------------------------------------------------------

  /// Encodes `value` in column `col`'s dictionary (get-or-add).
  uint32_t EncodeValue(size_t col, std::string_view value);

  /// Appends a row of pre-encoded codes (one per categorical column) and
  /// measure values (one per measure column, may be empty if none).
  void AppendRow(std::span<const uint32_t> codes,
                 std::span<const double> measures = {});

  /// Encodes and appends a row of raw string cell values.
  Status AppendRowValues(const std::vector<std::string>& values,
                         std::span<const double> measures = {});

  /// Copies row `row` of `src` into this table. Requires shared dictionaries
  /// (i.e., this was created via EmptyLike(src) or src itself).
  void AppendRowFrom(const Table& src, uint64_t row);

  /// Declares a measure column. Must be called before appending rows.
  size_t AddMeasureColumn(std::string name);

  /// Freezes the table: bit-packs every categorical column to
  /// ceil(log2(dict_size)) bits (see storage/packed_column.h). Call once
  /// after loading, before handing the table to engines — appends are
  /// rejected afterwards. Idempotent. Tables that keep growing (samples
  /// built via EmptyLike/AppendRowFrom) simply never freeze and stay on the
  /// raw u32 representation.
  void Freeze();
  [[nodiscard]] bool is_frozen() const { return frozen_; }

  /// Resident bytes of the categorical column payloads in their current
  /// representation (packed after Freeze).
  [[nodiscard]] size_t resident_column_bytes() const;
  /// Bytes the same columns would occupy unpacked (4 bytes per cell) — the
  /// denominator of the packing-reduction metric.
  [[nodiscard]] size_t unpacked_column_bytes() const {
    return static_cast<size_t>(num_rows_) * cols_.size() * sizeof(uint32_t);
  }

  // --- Access ---------------------------------------------------------

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] uint64_t num_rows() const { return num_rows_; }
  [[nodiscard]] size_t num_columns() const { return schema_.num_columns(); }

  [[nodiscard]] uint32_t code(size_t col, uint64_t row) const {
    return cols_[col].Get(row);
  }
  [[nodiscard]] const PackedColumn& column(size_t col) const {
    return cols_[col];
  }

  [[nodiscard]] const ValueDictionary& dictionary(size_t col) const {
    return *dicts_[col];
  }
  const std::shared_ptr<ValueDictionary>& dictionary_ptr(size_t col) const {
    return dicts_[col];
  }

  /// The decoded string value of a cell.
  const std::string& ValueAt(size_t col, uint64_t row) const {
    return dicts_[col]->ValueOf(cols_[col].Get(row));
  }

  [[nodiscard]] size_t num_measures() const { return measure_names_.size(); }
  [[nodiscard]] const std::string& measure_name(size_t m) const {
    return measure_names_[m];
  }
  [[nodiscard]] double measure(size_t m, uint64_t row) const {
    return measures_[m][row];
  }
  const std::vector<double>& measure_column(size_t m) const {
    return measures_[m];
  }
  Result<size_t> FindMeasure(const std::string& name) const;

  /// Materializes the codes of row `row` into `out` (size num_columns()).
  void GetRow(uint64_t row, uint32_t* out) const;

 private:
  /// The copy loop of SliceRows and GatherRows: row i of the new table is
  /// row row_at(i) of this one.
  template <typename RowAt>
  Table CopyRows(uint64_t n, RowAt row_at) const;

  Schema schema_;
  std::vector<std::shared_ptr<ValueDictionary>> dicts_;
  std::vector<PackedColumn> cols_;
  std::vector<std::string> measure_names_;
  std::vector<std::vector<double>> measures_;
  uint64_t num_rows_ = 0;
  bool frozen_ = false;
};

}  // namespace smartdd

#endif  // SMARTDD_STORAGE_TABLE_H_
