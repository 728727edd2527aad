#include "common/random.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace smartdd {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t DeriveSeed(uint64_t root, uint64_t stream) {
  uint64_t s = root;
  s = SplitMix64(s) ^ stream;
  return SplitMix64(s);
}

uint64_t DeriveSeed(uint64_t root, uint64_t stream, uint64_t substream) {
  return DeriveSeed(DeriveSeed(root, stream), substream);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  SMARTDD_DCHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return UniformDouble() < p;
}

double Rng::Gaussian() {
  // Box-Muller; discard the second variate for simplicity.
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

Rng::ZipfTable::ZipfTable(size_t n, double s) {
  SMARTDD_CHECK(n > 0);
  cdf_.resize(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (size_t i = 0; i < n; ++i) cdf_[i] /= total;
}

size_t Rng::ZipfTable::Sample(Rng& rng) const {
  double u = rng.UniformDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace smartdd
