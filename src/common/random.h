#ifndef SMARTDD_COMMON_RANDOM_H_
#define SMARTDD_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace smartdd {

/// Deterministic, seedable PRNG (xoshiro256**). All randomized components of
/// the library (reservoir sampling, data generators, solvers) draw from this
/// so that every experiment is reproducible from a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64 random bits. Inline, with UniformInt: reservoir offers
  /// and stitch merges draw once or twice per row.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t UniformInt(uint64_t bound) {
    SMARTDD_DCHECK(bound > 0);
    // Debiased modulo: reject draws below 2^64 mod bound. That threshold is
    // below `bound`, so a draw at or above `bound` is accepted without
    // computing it, and a typical draw costs one division.
    for (;;) {
      const uint64_t r = Next();
      if (r >= bound || r >= (0 - bound) % bound) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller.
  double Gaussian();

  /// Zipf-distributed integer in [0, n) with exponent s >= 0 (s=0 is
  /// uniform). Uses an inverse-CDF table; cheap for repeated draws via
  /// ZipfTable.
  class ZipfTable {
   public:
    ZipfTable(size_t n, double s);
    /// Draws one value in [0, n).
    size_t Sample(Rng& rng) const;
    size_t size() const { return cdf_.size(); }

   private:
    std::vector<double> cdf_;
  };

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// SplitMix64 step, used for seeding and hashing.
uint64_t SplitMix64(uint64_t& state);

/// Derives the seed of child stream `stream` from a root seed via two
/// SplitMix64 avalanches (pure function; does not mutate anything). Unlike
/// additive schemes such as `root + stream * constant`, nearby stream ids
/// (0, 1, 2, ...) map to statistically independent seeds, so per-reservoir
/// and per-chunk RNG streams decorrelate. Distinct streams of the same root
/// can never collide (the root hash is XORed with the stream id before the
/// final avalanche).
uint64_t DeriveSeed(uint64_t root, uint64_t stream);

/// Two-level stream split: DeriveSeed(DeriveSeed(root, stream), substream).
/// Used for per-chunk sub-reservoir seeds inside a per-rule stream.
uint64_t DeriveSeed(uint64_t root, uint64_t stream, uint64_t substream);

}  // namespace smartdd

#endif  // SMARTDD_COMMON_RANDOM_H_
