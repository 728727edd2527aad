#include "core/row_set.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace smartdd {

namespace {

bool HasRow(const uint64_t* bits, uint32_t row) {
  return (bits[row >> 6] >> (row & 63)) & 1;
}

/// The rows of both ascending lists into `out`; returns their number. A
/// list much longer than the other is searched instead of walked.
uint32_t MergeLists(const RowSet& a, const RowSet& b, uint32_t* out) {
  const RowSet& small = a.size() <= b.size() ? a : b;
  const RowSet& large = a.size() <= b.size() ? b : a;
  const uint32_t* p = small.rows();
  const uint32_t* p_end = p + small.size();
  const uint32_t* q = large.rows();
  const uint32_t* q_end = q + large.size();
  uint32_t* dst = out;
  if (large.size() / 16 > small.size()) {
    for (; p != p_end; ++p) {
      q = std::lower_bound(q, q_end, *p);
      if (q == q_end) break;
      if (*q == *p) *dst++ = *p;
    }
  } else {
    while (p != p_end && q != q_end) {  // branch-free merge step
      const uint32_t x = *p;
      const uint32_t y = *q;
      *dst = x;
      dst += x == y;
      p += x <= y;
      q += y <= x;
    }
  }
  return static_cast<uint32_t>(dst - out);
}

}  // namespace

RowSet WriteRowSet(const RowSet& s, uint64_t* out) {
  const uint64_t words = s.words();
  if (RowSet::IsList(s.size(), words)) {
    uint32_t* rows = reinterpret_cast<uint32_t*>(out);
    if (s.is_list()) {
      std::copy_n(s.rows(), s.size(), rows);
    } else {
      s.ForEach([&](uint32_t t) { *rows++ = t; });
    }
    return RowSet::List(reinterpret_cast<const uint32_t*>(out), s.size(),
                        words);
  }
  if (s.is_list()) {
    std::fill(out, out + words, 0);
    s.ForEach([&](uint32_t t) { out[t >> 6] |= uint64_t{1} << (t & 63); });
  } else {
    std::memcpy(out, s.bits(), sizeof(uint64_t) * words);
  }
  return RowSet::Bits(out, s.size(), words);
}

RowSet Intersect(const RowSet& a, const RowSet& b, const ScanKernels& kern,
                 std::vector<uint64_t>& out) {
  const uint64_t words = a.words();
  SMARTDD_DCHECK(b.words() == words);
  if (out.size() < words) out.resize(words);
  if (!a.is_list() && !b.is_list()) {
    const uint64_t count = kern.and_store(a.bits(), b.bits(), words,
                                          out.data());
    return RowSet::Bits(out.data(), static_cast<uint32_t>(count), words);
  }
  SMARTDD_DCHECK((!a.is_list() || a.size() < 2 * words) &&
                 (!b.is_list() || b.size() < 2 * words));
  // Fewer than 2 * words rows fit in `words` words.
  uint32_t* list = reinterpret_cast<uint32_t*>(out.data());
  uint32_t count = 0;
  if (a.is_list() && b.is_list()) {
    count = MergeLists(a, b, list);
  } else {
    const RowSet& rows = a.is_list() ? a : b;
    const uint64_t* other = a.is_list() ? b.bits() : a.bits();
    for (uint32_t i = 0; i < rows.size(); ++i) {
      const uint32_t t = rows.rows()[i];
      list[count] = t;
      count += HasRow(other, t);
    }
  }
  return RowSet::List(list, count, words);
}

void ExactWeigher::SetLevels(const std::vector<double>& covered,
                             uint64_t rows) {
  if (covered.empty()) {
    level_weights.assign(1, 0.0);
    level_rows.assign(1, std::vector<uint64_t>(words, ~uint64_t{0}));
    if (rows % 64 != 0) {
      level_rows[0].back() = (uint64_t{1} << (rows % 64)) - 1;
    }
    return;
  }
  level_weights = covered;
  std::sort(level_weights.begin(), level_weights.end());
  level_weights.erase(std::unique(level_weights.begin(), level_weights.end()),
                      level_weights.end());
  level_rows.assign(level_weights.size(), std::vector<uint64_t>(words, 0));
  for (uint64_t t = 0; t < rows; ++t) {
    const size_t l = static_cast<size_t>(
        std::lower_bound(level_weights.begin(), level_weights.end(),
                         covered[t]) -
        level_weights.begin());
    level_rows[l][t >> 6] |= uint64_t{1} << (t & 63);
  }
}

void ExactWeigher::Raise(const RowSet& s, double w) {
  std::vector<uint64_t> expanded;
  const uint64_t* cover = s.bits();
  if (s.is_list()) {
    expanded.assign(words, 0);
    s.ForEach([&](uint32_t t) { expanded[t >> 6] |= uint64_t{1} << (t & 63); });
    cover = expanded.data();
  }
  auto it = std::lower_bound(level_weights.begin(), level_weights.end(), w);
  const size_t top = static_cast<size_t>(it - level_weights.begin());
  const bool inserted = it == level_weights.end() || *it != w;
  if (inserted) {
    level_weights.insert(it, w);
    level_rows.insert(level_rows.begin() + top,
                      std::vector<uint64_t>(words, 0));
  }
  // Downward, so erasing an emptied level leaves the lower indices, and
  // `dst` (the level's heap words) stays valid as the vector shifts.
  uint64_t* dst = level_rows[top].data();
  uint64_t any = 0;
  size_t at = top;  // level w's index once emptied levels are erased
  for (size_t l = top; l-- > 0;) {
    uint64_t* src = level_rows[l].data();
    uint64_t left = 0;
    for (uint64_t i = 0; i < words; ++i) {
      const uint64_t moved = src[i] & cover[i];
      src[i] ^= moved;
      dst[i] |= moved;
      any |= moved;
      left |= src[i];
    }
    if (left == 0) {
      level_weights.erase(level_weights.begin() + l);
      level_rows.erase(level_rows.begin() + l);
      --at;
    }
  }
  if (inserted && any == 0) {
    level_weights.erase(level_weights.begin() + at);
    level_rows.erase(level_rows.begin() + at);
  }
}

uint64_t ExactWeigher::Mass(const RowSet& s, const ScanKernels& kern) const {
  if (num_planes == 0) return s.size();
  SMARTDD_DCHECK(!s.is_list());
  return kern.and_mass(s.bits(), s.bits(), planes.data(), num_planes, words);
}

double ExactWeigher::Marginal(const RowSet& s, double w, uint64_t mass,
                              const ScanKernels& kern) const {
  const std::vector<double>& lw = level_weights;
  if (mass == 0 || lw[0] >= w) return 0;
  SMARTDD_DCHECK(!s.is_list() || lw.size() == 1);
  // sum over levels l < w of (w - l) * Mass(cover & level l). When every
  // level is below w, the lowest level's mass is the cover's less the
  // others', which saves one mass pass.
  const bool derive = lw.back() < w;
  double marginal = 0;
  uint64_t rest = mass;
  for (size_t l = derive ? 1 : 0; l < lw.size() && lw[l] < w; ++l) {
    const uint64_t level_mass = kern.and_mass(
        s.bits(), level_rows[l].data(), planes.data(), num_planes, words);
    marginal += (w - lw[l]) * static_cast<double>(level_mass);
    rest -= level_mass;
  }
  if (derive) marginal += (w - lw[0]) * static_cast<double>(rest);
  return marginal;
}

}  // namespace smartdd
