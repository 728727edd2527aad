#ifndef SMARTDD_SAMPLING_SAMPLE_H_
#define SMARTDD_SAMPLING_SAMPLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "rules/rule.h"
#include "storage/table.h"

namespace smartdd {

/// An in-memory uniform sample of the tuples covered by a filter rule
/// (paper §4.3: a sample is the triple (filter rule f_s, scaling factor N_s,
/// tuple set T_s)).
///
/// Storage implements the paper's column-elision optimization: tuples
/// covered by f_s are constant on f_s's instantiated columns, so only the
/// starred columns are stored (plus measures and the original row id, used
/// for de-duplication in Combine). Storage is column-major, so a scan pass
/// fills it a column at a time and Materialize() copies whole columns.
class Sample {
 public:
  /// `prototype` must share dictionaries with the scan source (use
  /// ScanSource::MakeEmptyTable()); it defines the full-width schema that
  /// Materialize() reconstructs.
  Sample(Rule filter, const Table& prototype);

  const Rule& filter() const { return filter_; }

  /// Scaling factor N_s: estimated full-table mass = N_s * sample mass.
  double scale() const { return scale_; }
  void set_scale(double scale) { scale_ = scale; }

  /// Mass of tuples covered by the filter in the full source (set after the
  /// creating pass).
  double source_mass() const { return source_mass_; }
  void set_source_mass(double mass) { source_mass_ = mass; }

  /// True for samples derived from other in-memory samples (a materialized
  /// Combine union) rather than drawn independently from the source. A
  /// derived sample is a deterministic subset of its sources, so it must
  /// not enter another Combine's Horvitz-Thompson independence product.
  bool derived() const { return derived_; }
  void set_derived(bool derived) { derived_ = derived; }

  size_t size() const { return row_ids_.size(); }

  /// Appends one covered tuple (full-width codes; only starred columns are
  /// stored). `measures` may be nullptr when the source has none.
  void Add(uint64_t row_id, const uint32_t* codes, const double* measures);

  /// Reserves room for `n` tuples.
  void Reserve(size_t n);

  /// Resizes to `n` tuples; new slots hold code 0, measure 0 and row id 0
  /// until a caller writes them through the column accessors below.
  void Resize(size_t n);

  /// Overwrites slot `slot` (reservoir replacement).
  void ReplaceAt(size_t slot, uint64_t row_id, const uint32_t* codes,
                 const double* measures);

  /// Reconstructs the full-width codes of the `slot`-th sampled tuple
  /// (elided columns come from the filter). `out` must hold num_columns.
  void GetRow(size_t slot, uint32_t* out) const;

  /// Measure values of the `slot`-th tuple (`out` holds num_measures).
  void GetMeasures(size_t slot, double* out) const;

  uint64_t row_id(size_t slot) const { return row_ids_[slot]; }
  const std::vector<uint64_t>& row_ids() const { return row_ids_; }

  /// Column access for column-at-a-time builders: the source columns that
  /// are stored (the filter's starred ones, ascending), and per stored
  /// column `k`, per measure `m` and for the row ids, one array of size()
  /// entries, slot-indexed.
  const std::vector<size_t>& star_columns() const { return star_cols_; }
  const uint32_t* codes(size_t k) const { return codes_[k].data(); }
  uint32_t* mutable_codes(size_t k) { return codes_[k].data(); }
  const double* measures(size_t m) const { return measures_[m].data(); }
  double* mutable_measures(size_t m) { return measures_[m].data(); }
  uint64_t* mutable_row_ids() { return row_ids_.data(); }

  /// Builds a full-width in-memory table of all sampled tuples (shares
  /// dictionaries with the prototype/source).
  Table Materialize() const;

  /// Stored cells per tuple (starred columns only) — the elision savings.
  size_t stored_columns() const { return star_cols_.size(); }

  /// Memory accounting unit used by the SampleHandler: tuples held.
  size_t memory_tuples() const { return row_ids_.size(); }

 private:
  Rule filter_;
  Table prototype_;                 // empty; schema + shared dictionaries
  std::vector<size_t> star_cols_;   // columns actually stored
  double scale_ = 1.0;
  double source_mass_ = 0;
  bool derived_ = false;
  // Column-major: one code vector per stored column, one value vector per
  // measure, all of size() entries.
  std::vector<std::vector<uint32_t>> codes_;
  std::vector<std::vector<double>> measures_;
  std::vector<uint64_t> row_ids_;
};

}  // namespace smartdd

#endif  // SMARTDD_SAMPLING_SAMPLE_H_
