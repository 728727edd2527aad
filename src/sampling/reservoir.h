#ifndef SMARTDD_SAMPLING_RESERVOIR_H_
#define SMARTDD_SAMPLING_RESERVOIR_H_

#include <cstdint>

#include "common/random.h"

namespace smartdd {

/// Vitter's Algorithm R reservoir sampling [35]: maintains a uniform random
/// sample of fixed capacity over a stream of unknown length in one pass.
/// The sampler only decides *placement*; the caller stores the actual
/// payload at the returned slot.
class ReservoirSampler {
 public:
  ReservoirSampler(size_t capacity, uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  /// Decision for the next stream element.
  struct Placement {
    bool accept = false;  ///< store the element?
    size_t slot = 0;      ///< slot to (over)write when accept
  };

  /// Call once per stream element, in order. A rejected element's slot is
  /// meaningless; batch callers rely on the acceptance being computed
  /// without a branch.
  Placement Offer() {
    Placement p;
    if (seen_ < capacity_) {
      p.accept = true;
      p.slot = static_cast<size_t>(seen_);
    } else {
      const uint64_t j = rng_.UniformInt(seen_ + 1);
      p.accept = j < capacity_;
      p.slot = static_cast<size_t>(j);
    }
    ++seen_;
    return p;
  }

  /// Elements offered so far.
  uint64_t seen() const { return seen_; }
  /// Elements currently held (min(seen, capacity)).
  size_t size() const {
    return static_cast<size_t>(seen_ < capacity_ ? seen_ : capacity_);
  }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  uint64_t seen_ = 0;
  Rng rng_;
};

}  // namespace smartdd

#endif  // SMARTDD_SAMPLING_RESERVOIR_H_
