// Inputs and analyst behaviour for the end-to-end benchmark: a seeded
// categorical dataset (the benchmark's own copy, used to check answers by
// brute force), the codec request script of one analyst session, and a
// parser for the codec's JSON response lines.

#ifndef E2E_BENCH_WORKLOAD_H_
#define E2E_BENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// SplitMix64: small, fast, and the same sequence on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Mixes two words into one seed (for per-session / per-path streams).
uint64_t MixSeed(uint64_t a, uint64_t b);

/// A retail-style fact table: eight categorical dimensions with
/// Zipf-skewed marginals (every other column correlated with its
/// predecessor, so multi-column rules carry mass) and one integer-valued
/// measure, `amount`. Integer amounts keep every Sum exact in doubles, so
/// brute-force sums compare bit-for-bit with the service's.
class Dataset {
 public:
  /// Shape is fixed; `seed` picks which values are popular and the rows.
  explicit Dataset(uint64_t seed);

  /// Draws one more row from the same distribution and appends it.
  void AppendRandomRow(Rng& rng);
  /// Appends `count` rows drawn from `rng`.
  void AppendRandomRows(Rng& rng, size_t count);

  size_t rows() const { return amount_.size(); }

  /// Header line plus every row, the form the service loads.
  std::string Csv() const;
  /// One row as a CSV record (no newline): dimensions, then amount.
  std::string CsvRow(size_t row) const;

  /// Code of a rendered cell value in `col`, or -1 when the value is not
  /// one this dataset produces.
  int CodeOf(size_t col, std::string_view value) const;

  /// Brute-force mass of the rule `cells` ("?" = any) over rows
  /// [0, row_limit): the row count, or the sum of `amount` when `sum`.
  /// Returns false when a cell names an unknown value.
  bool Mass(const std::vector<std::string>& cells, size_t row_limit, bool sum,
            double* mass) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<double>> cdf_;     ///< per column, over ranks
  std::vector<std::vector<uint8_t>> rank_to_code_;
  std::vector<std::vector<uint8_t>> codes_;  ///< [column][row]
  std::vector<int64_t> amount_;
};

/// One displayed node of a response tree, as parsed from the codec JSON.
struct Node {
  int id = 0;
  int parent = -1;
  std::vector<std::string> cells;
  std::vector<int> children;
  double mass = 0;
  bool exact = true;
};

/// The parts of a codec response line the benchmark reads.
struct Reply {
  bool ok = false;
  std::string session;
  bool sum = false;  ///< mass_label is Sum(...)
  std::vector<Node> nodes;
  uint64_t table_version = 0;  ///< append / tableinfo payload
  uint64_t table_rows = 0;
};

/// Parses one response line; false when it is not well-formed.
bool ParseReply(std::string_view line, Reply* out);

/// Checks a parsed tree: unique ids, root first, parent/child links agree.
bool TreeConsistent(const Reply& reply);

/// Issues one codec request line and returns the response line.
using Call = std::function<std::string(const std::string& line)>;

/// What one analyst session does after `open`.
struct SessionShape {
  /// Drill-downs after the root expansion (each an expand or a star).
  int drills = 3;
  /// End with `exact` (refresh estimates to exact counts) before `close`.
  bool refresh_exact = false;
};

/// Observes every (request, response) pair of a session.
using Observe = std::function<void(const std::string& line,
                                   const std::string& response,
                                   const Reply& reply)>;

/// Runs one analyst session against `dataset_name`: open with `k` rules per
/// expansion, measuring Sum(amount) when `sum` (else Count), expand the
/// root, then `shape.drills` expansions or star drill-downs of random
/// displayed leaves, a collapse, a show, optionally `exact`, and close.
/// Every choice depends only on `rng` and the responses, so the same rng
/// state over the same data replays the same requests. Returns false (after
/// closing the session when it was opened) if any response is not ok or
/// malformed.
bool RunAnalystSession(Rng& rng, const std::string& dataset_name,
                       const SessionShape& shape, size_t k, bool sum,
                       const Call& call, const Observe& observe);

}  // namespace e2e

#endif  // E2E_BENCH_WORKLOAD_H_
