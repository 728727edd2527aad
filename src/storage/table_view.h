#ifndef SMARTDD_STORAGE_TABLE_VIEW_H_
#define SMARTDD_STORAGE_TABLE_VIEW_H_

#include <cstdint>
#include <optional>

#include "common/logging.h"
#include "storage/table.h"

namespace smartdd {

/// A lightweight, non-owning view of a Table's rows, optionally weighting
/// each tuple by a measure column: a table plus an optional measure. A
/// drill-down's restriction to the tuples its base rule covers is a table
/// of its own (see Table::GatherRows).
///
/// All smart-drill-down algorithms run over a TableView. The per-tuple
/// "mass" is 1.0 for the Count aggregate or the measure value for the Sum
/// aggregate (paper §6.3); Count/MCount and Sum/MSum are then the same code
/// path.
class TableView {
 public:
  /// View over all rows, Count aggregate.
  explicit TableView(const Table& table) : table_(&table) {}

  /// View over all rows, Sum over measure column `measure` when set.
  TableView(const Table& table, std::optional<size_t> measure)
      : table_(&table) {
    if (measure) SelectMeasure(*measure);
  }

  /// Switches the per-tuple mass to measure column `m` (Sum aggregate).
  void SelectMeasure(size_t m) {
    SMARTDD_CHECK(m < table_->num_measures());
    measure_ = m;
  }
  void ClearMeasure() { measure_.reset(); }
  bool has_measure() const { return measure_.has_value(); }
  std::optional<size_t> measure_index() const { return measure_; }

  const Table& table() const { return *table_; }
  size_t num_columns() const { return table_->num_columns(); }

  uint64_t num_rows() const { return table_->num_rows(); }

  /// Code of column `col` in row i.
  uint32_t code(size_t col, uint64_t i) const { return table_->code(col, i); }

  /// Per-tuple mass: 1 (Count) or the selected measure value (Sum).
  double mass(uint64_t i) const {
    return measure_ ? table_->measure(*measure_, i) : 1.0;
  }

  /// Total mass of the view (== num_rows() for Count).
  double total_mass() const {
    if (!measure_) return static_cast<double>(num_rows());
    double total = 0;
    for (uint64_t i = 0; i < num_rows(); ++i) total += mass(i);
    return total;
  }

 private:
  const Table* table_;
  std::optional<size_t> measure_;
};

}  // namespace smartdd

#endif  // SMARTDD_STORAGE_TABLE_VIEW_H_
