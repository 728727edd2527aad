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
/// starred columns are stored per row (plus measures and the original row
/// id, used for de-duplication in Combine).
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

  /// Appends slot `slot` of `src`, a sample with the same filter.
  void AddFrom(const Sample& src, size_t slot);

  /// Reserves room for `n` tuples.
  void Reserve(size_t n);

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
  size_t num_measures_;
  double scale_ = 1.0;
  double source_mass_ = 0;
  bool derived_ = false;
  std::vector<uint32_t> codes_;     // row-major, star_cols_ per row
  std::vector<double> measures_;    // row-major, num_measures_ per row
  std::vector<uint64_t> row_ids_;
};

}  // namespace smartdd

#endif  // SMARTDD_SAMPLING_SAMPLE_H_
