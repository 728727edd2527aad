#include "rules/rule_ops.h"

#include <algorithm>

#include "core/scan_kernels.h"

namespace smartdd {

bool IsSubRuleOf(const Rule& general, const Rule& specific) {
  if (general.num_columns() != specific.num_columns()) return false;
  for (size_t c = 0; c < general.num_columns(); ++c) {
    uint32_t g = general.value(c);
    if (g == kStar) continue;
    if (specific.value(c) != g) return false;
  }
  return true;
}

Result<Rule> MergeRules(const Rule& a, const Rule& b) {
  if (a.num_columns() != b.num_columns()) {
    return Status::InvalidArgument("rules have different widths");
  }
  Rule merged(a.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    uint32_t av = a.value(c);
    uint32_t bv = b.value(c);
    if (av == kStar) {
      if (bv != kStar) merged.set_value(c, bv);
    } else if (bv == kStar || bv == av) {
      merged.set_value(c, av);
    } else {
      return Status::InvalidArgument("rules conflict; cannot merge");
    }
  }
  return merged;
}

double RuleMass(const TableView& view, const Rule& r) {
  double mass = 0;
  const uint64_t n = view.num_rows();
  for (uint64_t i = 0; i < n; ++i) {
    if (RuleCoversRow(r, view, i)) mass += view.mass(i);
  }
  return mass;
}

std::vector<uint32_t> FilterRows(const TableView& view, const Rule& r) {
  std::vector<uint32_t> rows;
  const uint64_t n = view.num_rows();
  const ScanKernels& kern = GetScanKernels(ResolveKernelPath());
  uint8_t mask[kScanBlockRows];
  for (uint64_t b0 = 0; b0 < n; b0 += kScanBlockRows) {
    const uint64_t b1 = std::min(n, b0 + kScanBlockRows);
    ComputeRuleMask(r, view.table(), b0, b1, mask, kern);
    // Branch-free compaction: every row is written, and the cursor moves
    // past the covered ones only.
    size_t kept = rows.size();
    rows.resize(kept + static_cast<size_t>(b1 - b0));
    uint32_t* out = rows.data();
    for (uint64_t t = b0; t < b1; ++t) {
      out[kept] = static_cast<uint32_t>(t);
      kept += mask[t - b0] != 0;
    }
    rows.resize(kept);
  }
  return rows;
}

std::optional<Table> GatherCover(const TableView& view, const Rule& r) {
  const std::vector<uint32_t> rows = FilterRows(view, r);
  if (rows.size() == view.num_rows()) return std::nullopt;
  return view.table().GatherRows(rows);
}

double SelectivityRatio(const TableView& view, const Rule& general,
                        const Rule& specific) {
  if (!IsSubRuleOf(general, specific)) return 0.0;
  double general_mass = 0;
  double specific_mass = 0;
  const uint64_t n = view.num_rows();
  for (uint64_t i = 0; i < n; ++i) {
    if (RuleCoversRow(general, view, i)) {
      double m = view.mass(i);
      general_mass += m;
      if (RuleCoversRow(specific, view, i)) specific_mass += m;
    }
  }
  if (general_mass <= 0) return 0.0;
  return specific_mass / general_mass;
}

}  // namespace smartdd
