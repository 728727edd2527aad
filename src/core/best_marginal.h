#ifndef SMARTDD_CORE_BEST_MARGINAL_H_
#define SMARTDD_CORE_BEST_MARGINAL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "rules/rule.h"
#include "storage/table_view.h"
#include "weights/weight_function.h"

namespace smartdd {

/// Views of fewer rows in all than this search on the calling thread: below
/// it, handing counting blocks to the thread pool costs more than it saves.
/// From bench_parallel_marginal's thread series (census, K=2, 5-15 reps,
/// 4-core VM): from 20k to 100k rows 2 and 4 threads ran at 0.74-1.05x of
/// one thread, and from 2^17 to 300k rows at 0.93-1.68x. Lane and chunk
/// boundaries never depend on the thread count, so the results do not
/// depend on this constant either.
inline constexpr uint64_t kMinParallelRows = uint64_t{1} << 17;

/// A Sum search joins the finder's exact regime (see MarginalRuleFinder)
/// only when every measure value is a non-negative integer below
/// 2^kMaxMeasurePlanes, so that it fits this many measure bit-planes.
/// Every plane adds one AND-popcount pass to each mass a bitset count
/// takes, while the per-row walk's cost does not depend on the values.
/// From bench_micro_core's BM_BestMarginalSum (20k rows, 3 steps at mw = 3,
/// one thread, 4-core VM, medians of 5): with 2, 5, 8, 11 and 15 planes
/// the regime took 2.1, 2.9, 2.6, 3.2 and 4.0 ms, and the per-row walk of
/// the half-scaled twins 9.5-10.0 ms. The planes cost about 0.15 ms each,
/// so the two would cross past 40 planes; the cap stays one plane past the
/// largest measured case, where the regime still ran 2.4x faster.
inline constexpr size_t kMaxMeasurePlanes = 16;

/// Controls how aggressively FindBestMarginalRule prunes its candidate
/// space. kFull is the paper's Algorithm 2; kExhaustive disables the
/// upper-bound/threshold pruning (but still skips zero-support rules, whose
/// super-rules cannot cover anything) and is used for differential testing
/// and the pruning ablation benchmark.
enum class PruningMode { kFull, kExhaustive };

struct MarginalSearchOptions {
  /// The paper's mw: the search only considers rules with W(r) <= max_weight
  /// (monotonicity makes this cap downward-closed). Infinity = no cap.
  double max_weight = std::numeric_limits<double>::infinity();
  PruningMode pruning = PruningMode::kFull;
  /// Cap on the number of instantiated columns of candidate rules.
  size_t max_rule_size = std::numeric_limits<size_t>::max();
  /// Columns candidates may instantiate; empty = all columns. They must be
  /// starred columns of `base_rule` (drill-down reductions search the
  /// clicked rule's starred columns).
  std::vector<size_t> allowed_columns;
  /// Base rule merged into every candidate before weight evaluation, so the
  /// weight of a drill-down result is the weight of the *full* super-rule.
  /// It must cover every row of the views (see MarginalRuleFinder).
  std::optional<Rule> base_rule;
  /// Upper bound on the threads of the counting passes: 0 = all hardware
  /// threads, 1 = serial. Views of fewer than kMinParallelRows rows in all
  /// search on the calling thread whatever the value. Results are
  /// bit-identical for every value (see best_marginal.cc).
  size_t num_threads = 0;
  /// Cooperative cancellation: checked at pass, column, lane, and
  /// candidate-block boundaries. When it fires, Find returns
  /// DeadlineExceeded; when it does not, results are bit-identical to a
  /// search without a deadline. Default is inert.
  Deadline deadline;
};

/// Instrumentation for tests and the pruning-ablation benchmark.
struct MarginalSearchStats {
  /// Counting passes: pass 1 (the size-1 rules) plus one per arity >= 2.
  /// Pass 1 scans every row of the view on a finder's first Find (and
  /// again on the second when the first folded, see MarginalRuleFinder);
  /// later Finds read only the covers of the singletons they recount.
  size_t passes = 0;
  size_t candidates_generated = 0;   ///< candidate rules considered
  size_t candidates_pruned = 0;      ///< dropped by the upper-bound test
  size_t candidates_counted = 0;     ///< actually counted in a pass
  /// Skipped because the marginal counted in an earlier Find on the same
  /// finder already fell below H (a marginal never rises between Finds).
  size_t candidates_stale_skipped = 0;
  /// Rows read by the counting: n per column when pass 1 scans the view,
  /// the cover size of each recounted singleton otherwise, then per
  /// counted candidate the size of the cover its count started from (a
  /// stored cover, a sub-rule's cover, or its rarest value's cover). The
  /// figure does not depend on the regime or on the form of any cover.
  /// The covered-weight update's rows are not included.
  uint64_t tuple_visits = 0;
  /// Wall time spent in the gather/merge stages — folding per-lane and
  /// per-block partial aggregates back together in deterministic order
  /// after each scatter. The sharded engine exports this as its
  /// scatter-gather merge-latency histogram.
  double merge_seconds = 0;

  void Accumulate(const MarginalSearchStats& other) {
    passes += other.passes;
    candidates_generated += other.candidates_generated;
    candidates_pruned += other.candidates_pruned;
    candidates_counted += other.candidates_counted;
    candidates_stale_skipped += other.candidates_stale_skipped;
    tuple_visits += other.tuple_visits;
    merge_seconds += other.merge_seconds;
  }
};

/// Result of one best-marginal-rule search.
struct MarginalRuleResult {
  Rule rule{0};      ///< full-width rule (base merged in)
  double weight = 0;
  double mass = 0;   ///< Count/Sum of the rule over the view
  double marginal = 0;  ///< sum over covered tuples of mass*(W(r)-cw(t))^+
};

/// Implements the paper's Algorithm 2 ("Find best marginal rule"): finds the
/// rule r maximizing the marginal score gain
///     sum_{t covered by r} mass(t) * max(0, W(r) - covered_weight[t])
/// among rules with W(r) <= max_weight, via multi-pass a-priori-style
/// counting. In pass j it counts candidate rules of size j generated from
/// surviving size-(j-1) rules, pruning any candidate whose upper bound
///     min over counted sub-rules r' of
///         Marginal(r') + Mass(r') * (max_weight - W(r'))
/// cannot beat the best marginal value H found so far.
///
/// Generation is a prefix join (apriori-gen): a candidate extends a counted
/// parent by one later column, and its other immediate sub-rules are
/// found, not probed. A counted group's entries sharing all values but the
/// last form one run ascending in the last value, so per (parent, added
/// column) each sub-rule's run is found once, a missing run prunes every
/// candidate of the pair, and the added values merge against the runs.
///
/// Every cover the finder holds, of a value, of a counted rule, or of a
/// winner it rebuilds, is a RowSet (core/row_set.h): global row ids held
/// as an ascending list while they are fewer than a quarter of the row
/// space's bitset words, else as a bitset. A candidate's cover starts from
/// the shorter of its shortest stored immediate sub-rule cover and its
/// rarest value's cover, and is intersected with the value covers it still
/// lacks.
///
/// The finder is one BRS run: its k Find calls are the k greedy steps, and
/// it owns the greedy's state, each row's covered weight (the weight of the
/// heaviest earlier pick covering it). A Find after a successful one first
/// raises the rows the previous winner covers to the winner's weight, so
/// covered weights only ever rise. The update reads the winner's value
/// cover or stored cover; when the full store kept none, the cover is
/// rebuilt as a count of the winner would build it.
///
/// The finder is a lazy greedy across its Find calls (Minoux's accelerated
/// greedy). It keeps, for its whole lifetime, everything that depends only
/// on the views:
///  - pass 1's singleton counts, masses, weights and value covers, built by
///    the first Find's full scan. Under Count in the exact regime (below),
///    a first Find capped at size-1 rules from all-zero covered weights
///    needs no covers and derives each marginal from the counts, so its
///    scan only counts and the second Find builds pass 1;
///  - a cover store: for every counted rule of arity >= 2, its cover and
///    mass, up to 64 MB of covers. A later count of a stored rule reads
///    only its cover;
///  - each rule's last counted marginal. Covered weights only rise, so that
///    value bounds the rule's current marginal bit for bit, and a later
///    Find recounts a rule only when it can still reach the threshold H (a
///    singleton also when its super-rule bound can).
/// Every sum still runs over the same rows in the same order, and the
/// winner and every tie contender are counted fresh, so results are
/// bit-identical to a fresh finder per step started from the same covered
/// weights. The views' rows must not change while the finder is in use.
///
/// A cover is weighed one of two ways. Outside the exact regime its rows
/// are walked in ascending order against the covered weights: a
/// singleton's in pass 1's lanes, so the floats do not depend on the
/// cover's form or on the thread count. The exact regime is decided once
/// by the constructor: every marginal term mass * (W(r) - cw(t))^+ is an
/// integer and every sum stays below 2^53, given WeightFunction::
/// IntegerValued(), integer starting covered weights (at most 64 distinct
/// ones), Count aggregation or a Sum whose one scan of the measure finds
/// every value a non-negative integer below 2^kMaxMeasurePlanes, and the
/// total mass times the largest admissible weight below 2^53. Sums are
/// then exact in any order, and a bitset cover is weighed by popcounts
/// (ExactWeigher): under Sum through P measure bit-planes P_b, the mass of
/// a bitset X being sum over b of 2^b * popcount(X & P_b), with Count the
/// zero-plane case, and its marginal through the covered weights kept as
/// level bitsets (the rows at each distinct weight) as
/// sum over levels l < W(r) of (W(r) - l) * mass(S & level l).
/// A list cover is summed row by row. Every figure equals the per-row
/// sum's bit for bit, and the stats are the same in and out of the regime
/// (see tuple_visits).
class MarginalRuleFinder {
 public:
  /// `views` are row-contiguous shard slices, in shard order, of one
  /// logical table (same schema, shared dictionaries, same measure
  /// selection); a single view is a list of one. The search treats their
  /// concatenation as a single row space: scan lanes, merge order, pruning
  /// thresholds, and tie-breaks are pure functions of the *global* shape,
  /// so the result is byte-identical for every shard count and every
  /// thread count. `covered` holds the starting covered weight of each row
  /// of that concatenation; empty means all zero. The views and `weight`
  /// must outlive the finder.
  ///
  /// Every row of the views must be covered by `options.base_rule`, as in
  /// SmartDrillDown, which passes each shard's gathered cover of the base
  /// (T_r) or a shard the base covers whole. The covered-weight update
  /// matches a winner's rows on its candidate columns only.
  MarginalRuleFinder(std::vector<const TableView*> views,
                     const WeightFunction& weight,
                     MarginalSearchOptions options,
                     std::vector<double> covered = {});

  /// Runs one greedy step: the rule with the highest marginal value over
  /// the current covered weights. Returns NotFound when no rule has
  /// positive marginal value, DeadlineExceeded when the deadline fires.
  Result<MarginalRuleResult> Find();

  ~MarginalRuleFinder();

  /// Stats of the most recent Find call.
  const MarginalSearchStats& stats() const { return stats_; }

  /// Whether the constructor chose the exact regime.
  bool exact_regime() const;

 private:
  struct Impl;
  struct CoverStore;
  struct PassOneStore;

  std::vector<const TableView*> views_;
  const WeightFunction* weight_;
  MarginalSearchOptions options_;
  MarginalSearchStats stats_;
  /// One covered weight per row of the views' concatenation; empty while
  /// every weight is 0.0 and no search has needed the array.
  std::vector<double> covered_;
  std::unique_ptr<CoverStore> store_;
  std::unique_ptr<PassOneStore> pass1_;
};

}  // namespace smartdd

#endif  // SMARTDD_CORE_BEST_MARGINAL_H_
