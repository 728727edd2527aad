#include "core/best_marginal.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>

#include "common/flat_map.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/row_set.h"
#include "core/scan_kernels.h"
#include "rules/rule_ops.h"

namespace smartdd {

namespace {

constexpr uint32_t kNoCover = std::numeric_limits<uint32_t>::max();

/// Per-candidate counters. `excluded` marks rules whose weight exceeds mw
/// or whose upper bound fell below the threshold H before they were
/// counted; they are kept as tombstones so that candidate generation skips
/// extensions of them cheaply.
struct Entry {
  double weight = 0;
  double mass = 0;
  double marginal = 0;
  /// Upper bound on the marginal value (set at generation, passes >= 2).
  double bound = 0;
  /// This rule's cover in the finder's CoverStore, or kNoCover.
  uint32_t cover = kNoCover;
  /// The shortest stored cover among the immediate sub-rules (arity >= 3),
  /// and the position of the one column that sub-rule lacks.
  uint32_t source = kNoCover;
  uint32_t source_col = 0;
  /// The marginal this rule was last counted with in an earlier Find (arity
  /// >= 2, from the CoverStore; +inf when never counted). Covered weights
  /// only rise between Finds, so it bounds the current marginal.
  double last = std::numeric_limits<double>::infinity();
  bool excluded = false;
  /// Not recounted in this Find: `marginal` is a stale upper bound, valid
  /// for pruning and generation but never a winner (see CountCandidates).
  bool stale = false;
};

using Cols = std::vector<uint32_t>;

/// The pass-1 scan splits the rows into contiguous "lanes", each summed
/// sequentially in row order into its own accumulator, merged in lane
/// order afterwards. Lane boundaries depend only on the data shape (row
/// count and dictionary size) — never on the thread count — so the merged
/// floats are bit-identical for any parallelism.
///
/// Sharded searches reuse the same grid: the shards' rows are treated as
/// one concatenated row space and the lane layout is computed from the
/// *global* row count, so a lane may span a shard boundary (it then scans
/// the shards' sub-ranges in shard order). Lanes, merge order, and scan
/// order are therefore pure functions of the global shape — never of the
/// shard count — which is what makes every num_shards x num_threads
/// combination byte-identical to the single-shard serial search.
///
/// kMinLaneRows bounds scheduling overhead on small views; kMaxLanes
/// bounds the fan-out; kMaxLaneCells bounds the transient accumulator
/// memory (lanes * dict cells, ~20 bytes each) so high-cardinality
/// columns degrade toward fewer lanes instead of gigabytes of scratch.
constexpr uint64_t kMinLaneRows = 16384;
constexpr uint64_t kMaxLanes = 64;
constexpr uint64_t kMaxLaneCells = uint64_t{1} << 22;  // ~80 MB of scratch

/// The lane grid of one column: `lanes` lanes of `rows` rows each (the last
/// may be shorter) over n global rows, for a dictionary of `dict` codes.
struct LaneLayout {
  uint64_t lanes;
  uint64_t rows;

  LaneLayout(uint64_t n, size_t dict)
      : lanes(std::max<uint64_t>(
            1, std::min({(n + kMinLaneRows - 1) / kMinLaneRows, kMaxLanes,
                         kMaxLaneCells / std::max<uint64_t>(1, dict)}))),
        rows((n + lanes - 1) / lanes) {}
};

/// A lane length no row set reaches: WalkMarginal then sums sequentially.
constexpr uint64_t kOneLane = std::numeric_limits<uint64_t>::max();
/// Bounds the cover store at 64 MB of row sets per finder. Once full, new
/// candidates are no longer recorded and count from the value covers, with
/// identical results.
constexpr uint64_t kMaxCoverBytes = uint64_t{64} << 20;
/// The cover store allocates its words in blocks of this many words (or
/// one cover's, when larger), so appending never moves a stored cover.
constexpr uint64_t kCoverBlockWords = uint64_t{1} << 16;

/// The exact regime's limits (see ExactRegime): integer sums below 2^53
/// are exact in a double, and the starting covered weights form at most
/// this many levels.
constexpr double kMaxExactSum = 9007199254740992.0;  // 2^53
constexpr size_t kMaxStartLevels = 64;

/// Largest block of candidates counted together. The threshold H is frozen
/// at each block boundary: pruning decisions depend only on block layout
/// (thread-count-independent), while the candidates inside one block count
/// concurrently. Blocks grow 1, 2, 4, ... up to this size (see
/// ForEachBlock), so H rises from 0 before the wide blocks start.
constexpr size_t kCountBlock = 64;

/// Two buffers a chain of RowSet intersections alternates between.
using CoverBuffers = std::array<std::vector<uint64_t>, 2>;

/// A run [begin, end) of entry indices in a CandidateGroup.
struct Bucket {
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// All candidates sharing one set of instantiated columns (arity >= 2).
/// Values are packed Key128s; the raw tuples live in `tuples`, strided by
/// arity and parallel to the map's insertion order, because hashed
/// (overflow-width) keys cannot be unpacked.
///
/// A parent inserts all its extensions by one column at once, in
/// ascending value order, so the entries sharing their first arity - 1
/// values (a prefix) form one run, ascending in the last value. The prefix
/// index maps each prefix, packed with last value 0, to its run; it is
/// built when a later pass first joins against the group (see
/// IndexPrefixes), and a group is never empty, so an empty index is an
/// unbuilt one.
struct CandidateGroup {
  Cols cols;
  TuplePacker packer;
  FlatMap<Entry> map;
  std::vector<uint32_t> tuples;
  uint32_t store_group = 0;  // this column set's index in the CoverStore
  FlatMap<Bucket> prefixes;

  const uint32_t* tuple(size_t entry_index) const {
    return tuples.data() + entry_index * cols.size();
  }
  /// The last value of entry `entry_index`.
  uint32_t last(size_t entry_index) const {
    return tuples[(entry_index + 1) * cols.size() - 1];
  }
};

/// Singleton (size-1) candidates for one column, dense by dictionary code.
/// `counts[v] == 0` means value v never occurs in the view (no candidate).
/// `codes` lists the occurring values ascending, so candidate generation
/// iterates occurring values only instead of the whole dictionary (which
/// matters for high-cardinality columns over narrow drill-down views).
struct SingletonTable {
  uint32_t col = 0;
  std::vector<Entry> entries;
  std::vector<uint32_t> counts;
  std::vector<uint32_t> codes;
  /// Pass 1's lane length for this column; a marginal over a value's
  /// cover sums in these lanes (see Walk).
  uint64_t lane_rows = 0;
  /// Each occurring value's cover, the rows holding it in the global row
  /// order: `counts[v]` rows at word `cover_at[v]` of `covers`, in the form
  /// RowSet::IsList picks (see Impl::ValueCover).
  std::vector<uint64_t> covers;
  std::vector<uint64_t> cover_at;
};

}  // namespace

/// Covers of the counted arity >= 2 rules, kept for the finder's lifetime:
/// a rule's cover and mass depend only on the views, never on the covered
/// weights. Counting workers only read it; the calling thread appends in
/// the serial gather after each candidate block.
struct MarginalRuleFinder::CoverStore {
  struct Cover {
    const uint64_t* data;  // a RowSet in the form its size picks
    uint32_t size;         // rows covered
    double mass;
    double marginal;  // as last counted; an upper bound in later Finds
  };
  std::vector<Cover> covers;
  /// The covers' words, in blocks that are never moved or grown; the last
  /// block's first `block_used` words are taken.
  std::vector<std::unique_ptr<uint64_t[]>> blocks;
  uint64_t block_words = 0;
  uint64_t block_used = 0;
  uint64_t bytes = 0;  // of the stored covers
  /// ColsKey -> index into `groups`; each group maps packed values to an
  /// index into `covers`. A deque: growing it never moves the groups.
  FlatMap<uint32_t> group_index;
  std::deque<FlatMap<uint32_t>> groups;
  bool full = false;

  uint32_t GroupFor(const Key128& cols_key) {
    auto [slot, inserted] = group_index.FindOrInsert(cols_key);
    if (inserted) {
      *slot = static_cast<uint32_t>(groups.size());
      groups.emplace_back();
    }
    return *slot;
  }

  /// Records a cover; returns its index, or kNoCover once the store is full.
  uint32_t Add(uint32_t group, const Key128& vals_key, const RowSet& cover,
               double mass, double marginal) {
    const uint64_t words = RowSet::StorageWords(cover.size(), cover.words());
    if (full || bytes + 8 * words > kMaxCoverBytes) {
      full = true;
      return kNoCover;
    }
    if (blocks.empty() || block_used + words > block_words) {
      block_words = std::max(kCoverBlockWords, words);
      blocks.emplace_back(new uint64_t[block_words]);
      block_used = 0;
    }
    uint64_t* data = blocks.back().get() + block_used;
    block_used += words;
    bytes += 8 * words;
    WriteRowSet(cover, data);
    const uint32_t id = static_cast<uint32_t>(covers.size());
    covers.push_back(Cover{data, cover.size(), mass, marginal});
    *groups[group].FindOrInsert(vals_key).first = id;
    return id;
  }

  RowSet Set(uint32_t id, uint64_t words) const {
    const Cover& c = covers[id];
    return RowSet::At(c.data, c.size, words);
  }
};

/// Pass 1's state, kept for the finder's lifetime once a Find built it:
/// counts, masses, weights and value covers depend only on the views, and
/// each entry's marginal is the one it was last counted with. `pending` is
/// the last winner, whose covered-weight update the next Find applies
/// before it reads any covered weight, along the winner's value cover, its
/// stored cover, or a cover rebuilt from the value covers (see
/// ApplyPending).
struct MarginalRuleFinder::PassOneStore {
  std::vector<SingletonTable> singles;  // per dense column
  bool built = false;

  /// The exact regime, decided once by the finder's constructor, and its
  /// measure bit-planes and covered-weight levels.
  bool exact = false;
  ExactWeigher weigher;

  struct Pick {
    Rule rule{0};
    double weight = 0;
    int32_t single = -1;        // dense column of a singleton winner, or -1
    uint32_t cover = kNoCover;  // stored cover of a wider winner, if any
  };
  std::optional<Pick> pending;
};

struct MarginalRuleFinder::Impl {
  /// One shard slice of the logical row space. `begin` is the slice's
  /// offset in the concatenated order.
  struct Segment {
    const TableView* view;
    uint64_t begin;
    uint64_t rows;
    const double* mass_col;  // measure column data, nullptr for Count
  };

  const WeightFunction& weight;
  const MarginalSearchOptions& options;
  MarginalSearchStats& stats;
  CoverStore& store;
  PassOneStore& pass1;
  std::vector<Segment> segs;
  uint64_t total_rows = 0;
  /// The finder's covered weights, indexed by global row id. Empty while
  /// every weight is 0.0 and no search has needed the array (see Run).
  std::vector<double>& covered;

  std::vector<uint32_t> columns;   // search space, ascending
  std::vector<int32_t> col_dense;  // table column -> index in columns, or -1
  std::vector<uint8_t> col_bits;   // per dense column: code bit width
  Rule base;     // merged into candidates for weight eval
  Rule scratch;  // reusable candidate rule: no per-candidate Rule allocs

  /// Threads of the counting passes: options.num_threads, or 1 when the
  /// views hold fewer than kMinParallelRows rows (RunChunked then runs
  /// every chunk inline).
  size_t threads;

  /// Resolved once per Find (ResolveKernelPath), so a differential test
  /// switches paths by setting SMARTDD_KERNEL between searches.
  const ScanKernels* kern;
  /// Count aggregation (no measure column): pass 1 skips the per-lane mass
  /// accumulators and derives mass from the integer counts. Exact: each
  /// lane's mass was a sum of 1.0s, and integer-valued double sums are
  /// bit-identical to double(count) up to 2^53 rows.
  bool count_mode = false;
  /// The exact regime (pass1.exact): Count, or Sum over a small
  /// non-negative integer measure, from integer weights, so every marginal
  /// term is an integer and every sum is exact in any order. Covers are
  /// weighed by pass1.weigher (see Marginal).
  bool exact = false;
  /// Bitset words of the global row space: every cover is a RowSet in it.
  uint64_t words = 0;
  /// Whether the weight cap mw can exclude a candidate, i.e. mw is below
  /// MaxPossibleWeight of the rule width. When it cannot (RunBrs's default
  /// mw is that maximum), generation weighs only the candidates that
  /// survive pruning.
  bool cap_binds = true;

  std::vector<SingletonTable>& singles;  // pass1.singles
  ExactWeigher& weigher;                 // pass1.weigher
  std::vector<CandidateGroup> counted;   // arity >= 2 groups, all passes
  FlatMap<uint32_t> counted_index;       // ColsKey -> index into `counted`
  /// Per dense column, for the pass being generated: the values a
  /// candidate may add (occurring, not excluded, of positive mass), and
  /// those of them whose own SuperRuleBound passes H (all when not
  /// pruning). Ascending.
  std::vector<std::vector<uint32_t>> gen_values;
  std::vector<std::vector<uint32_t>> gen_passing;

  double best_marginal = 0;  // the paper's threshold H
  Rule best_rule{0};
  double best_weight = 0;
  double best_mass = 0;
  Cols best_cols;                 // the winner's candidate columns
  uint32_t best_cover = kNoCover;  // its stored cover (arity >= 2)

  /// Latched deadline state, polled from the driver thread only — at pass,
  /// column, and candidate-block boundaries, i.e. right after (never
  /// inside) a parallel region, so cancellation is race-free and results
  /// are untouched when the deadline does not fire.
  bool deadline_expired = false;

  bool DeadlineExpired() {
    if (!options.deadline.active()) return false;
    if (!deadline_expired) deadline_expired = options.deadline.expired();
    return deadline_expired;
  }

  static Status DeadlineStatus() {
    return Status::DeadlineExceeded(
        "marginal-rule search aborted: deadline exceeded");
  }

  Impl(const std::vector<const TableView*>& views, const WeightFunction& w,
       const MarginalSearchOptions& opts, MarginalSearchStats& s,
       CoverStore& cs, PassOneStore& p1, std::vector<double>& cw)
      : weight(w),
        options(opts),
        stats(s),
        store(cs),
        pass1(p1),
        covered(cw),
        base(opts.base_rule ? *opts.base_rule
                            : Rule(views[0]->num_columns())),
        scratch(0),
        threads(ThreadPool::EffectiveThreads(opts.num_threads)),
        kern(&GetScanKernels(ResolveKernelPath())),
        singles(p1.singles),
        weigher(p1.weigher) {
    SMARTDD_CHECK(!views.empty());
    const TableView& proto = *views[0];
    SMARTDD_CHECK(base.num_columns() == proto.num_columns());
    segs.reserve(views.size());
    for (size_t i = 0; i < views.size(); ++i) {
      const TableView* v = views[i];
      SMARTDD_CHECK(v->num_columns() == proto.num_columns())
          << "shard views must share one schema";
      SMARTDD_CHECK(v->measure_index() == proto.measure_index())
          << "shard views must select the same measure";
      Segment seg;
      seg.view = v;
      seg.begin = total_rows;
      seg.rows = v->num_rows();
      seg.mass_col =
          v->has_measure()
              ? v->table().measure_column(*v->measure_index()).data()
              : nullptr;
      segs.push_back(seg);
      total_rows += seg.rows;
    }
    if (total_rows < kMinParallelRows) threads = 1;

    if (options.allowed_columns.empty()) {
      for (size_t c = 0; c < proto.num_columns(); ++c) {
        columns.push_back(static_cast<uint32_t>(c));
      }
    } else {
      for (size_t c : options.allowed_columns) {
        SMARTDD_CHECK(c < proto.num_columns());
        columns.push_back(static_cast<uint32_t>(c));
      }
      std::sort(columns.begin(), columns.end());
      columns.erase(std::unique(columns.begin(), columns.end()),
                    columns.end());
    }
    col_dense.assign(proto.num_columns(), -1);
    col_bits.resize(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      SMARTDD_CHECK(base.is_star(columns[i]))
          << "allowed_columns must be starred columns of base_rule";
      col_dense[columns[i]] = static_cast<int32_t>(i);
      col_bits[i] = CodeBitWidth(dict_size(columns[i]));
    }
    scratch = base;
    count_mode = !proto.has_measure();
    exact = p1.exact;
    words = BitsetWords(total_rows);
    cap_binds =
        !(options.max_weight >= weight.MaxPossibleWeight(proto.num_columns()));
  }

  /// Dictionary size of column c. The shards share their dictionaries
  /// (slices are built via Table::EmptyLike), so any segment answers.
  size_t dict_size(uint32_t c) const {
    return segs[0].view->table().dictionary(c).size();
  }

  /// Invokes fn(segment, local_lo, local_hi) for each shard sub-range of
  /// the concatenated row range [lo, hi), in shard order. Linear segment
  /// advance: shard counts are small and callers sweep forward.
  template <typename Fn>
  void ForEachRange(uint64_t lo, uint64_t hi, Fn&& fn) const {
    size_t si = 0;
    while (lo < hi) {
      while (segs[si].begin + segs[si].rows <= lo) ++si;  // skips empties
      const Segment& s = segs[si];
      const uint64_t chunk_hi = std::min(hi, s.begin + s.rows);
      fn(s, lo - s.begin, chunk_hi - s.begin);
      lo = chunk_hi;
    }
  }

  /// Calls fn(begin, end) for consecutive blocks of [0, n) of 1, 2, 4, ...
  /// up to kCountBlock items: the finder's one block schedule, a pure
  /// function of n. Returns DeadlineExceeded when the deadline fires at a
  /// block boundary.
  template <typename Fn>
  Status ForEachBlock(size_t n, Fn&& fn) {
    for (size_t begin = 0, size = 1; begin < n;
         begin += size, size = std::min(2 * size, kCountBlock)) {
      if (DeadlineExpired()) return DeadlineStatus();
      fn(begin, std::min(n, begin + size));
    }
    return Status::OK();
  }

  // --- Keys -------------------------------------------------------------

  /// Key for a set of columns: a bitmask over dense column indices when the
  /// search space fits 128 columns (exact), else a two-lane hash.
  Key128 ColsKey(const uint32_t* cols, size_t arity) const {
    Key128 key;
    if (columns.size() <= 128) {
      for (size_t i = 0; i < arity; ++i) {
        uint32_t d = static_cast<uint32_t>(col_dense[cols[i]]);
        if (d < 64) {
          key.lo |= uint64_t{1} << d;
        } else {
          key.hi |= uint64_t{1} << (d - 64);
        }
      }
    } else {
      key.lo = HashCodes(cols, arity);
      key.hi = HashMix64(key.lo ^ 0x94D049BB133111EBULL);
    }
    return key;
  }

  TuplePacker MakePacker(const Cols& cols) const {
    std::vector<uint8_t> bits(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      bits[i] = col_bits[col_dense[cols[i]]];
    }
    return TuplePacker(bits);
  }

  // --- Weight via the scratch rule -------------------------------------

  /// W(base merged with cols=vals), evaluated against the reusable scratch
  /// rule: zero allocations per candidate. The search columns are stars of
  /// the base, so clearing them restores it.
  double EffectiveWeight(const Cols& cols, const uint32_t* vals) {
    scratch.set_values(cols, std::span<const uint32_t>(vals, cols.size()));
    double w = weight.Weight(scratch);
    scratch.clear_values(cols);
    return w;
  }

  Rule FullRule(const Cols& cols, const uint32_t* vals) const {
    Rule r = base;
    for (size_t i = 0; i < cols.size(); ++i) r.set_value(cols[i], vals[i]);
    return r;
  }

  /// Deterministic tie-break for equal marginal values: prefer higher
  /// weight, then lexicographically smaller rule values. Total order, so
  /// the winner is independent of candidate enumeration order.
  bool BetterThanBest(double marginal, double w, const Cols& cols,
                      const uint32_t* vals) const {
    if (marginal > best_marginal) return true;
    if (marginal < best_marginal || best_marginal <= 0) return false;
    if (w != best_weight) return w > best_weight;
    return FullRule(cols, vals).values() < best_rule.values();
  }

  void TakeBest(const Entry& e, const Cols& cols, const uint32_t* vals) {
    best_marginal = e.marginal;
    best_rule = FullRule(cols, vals);
    best_weight = e.weight;
    best_mass = e.mass;
    best_cols = cols;
    best_cover = e.cover;
  }

  /// Dispatches fn(chunk) over [0, num_chunks): inline when serial (never
  /// touching the process pool), on the shared pool otherwise. Chunk
  /// boundaries are the caller's and never depend on `threads`.
  void RunChunked(uint64_t num_chunks,
                  const std::function<void(uint64_t)>& fn) {
    if (threads <= 1) {
      for (uint64_t c = 0; c < num_chunks; ++c) fn(c);
    } else {
      ThreadPool::Global().ParallelFor(num_chunks, threads, fn);
    }
  }

  // --- Covers ----------------------------------------------------------

  /// The cover of value `code` of dense column `ci`.
  RowSet ValueCover(size_t ci, uint32_t code) const {
    const SingletonTable& st = singles[ci];
    return RowSet::At(st.covers.data() + st.cover_at[code], st.counts[code],
                      words);
  }

  /// Builds the measure bit-planes (Sum in the exact regime only): row t's
  /// measure m has bit p of m set iff plane p has bit t set. The chunks are
  /// kMinLaneRows global rows, whole words, so concurrent chunks never
  /// write one word.
  void BuildPlanes() {
    if (weigher.num_planes == 0) return;
    weigher.planes.assign(weigher.num_planes * words, 0);
    RunChunked((total_rows + kMinLaneRows - 1) / kMinLaneRows,
               [&](uint64_t chunk) {
                 ForEachRange(
                     chunk * kMinLaneRows,
                     std::min(total_rows, (chunk + 1) * kMinLaneRows),
                     [&](const Segment& s, uint64_t llo, uint64_t lhi) {
                       kern->set_planes(s.mass_col + llo, lhi - llo,
                                        s.begin + llo, weigher.num_planes,
                                        words, weigher.planes.data());
                     });
               });
  }

  /// The walk of `s` against the covered weights (see WalkMarginal in
  /// core/row_set.h), each row's measure read from its shard's column.
  /// Over a value's cover with its column's lane length, that is the float
  /// a per-lane scatter of pass 1 would compute for the value; with
  /// kOneLane it is the sequential sum over the same rows.
  double Walk(const RowSet& s, double w, uint64_t lane_rows,
              double* mass) const {
    size_t si = 0;
    auto measure = [&](uint32_t t) {
      while (segs[si].begin + segs[si].rows <= t) ++si;
      const Segment& seg = segs[si];
      return seg.mass_col ? seg.mass_col[t - seg.begin] : 1.0;
    };
    return WalkMarginal(s, w, lane_rows, covered.data(), measure, mass);
  }

  /// The marginal at weight w of a rule with cover `s` and mass `mass`: in
  /// the exact regime by the weigher, from the mass alone while every row
  /// has one covered weight and by popcounts for a bitset, otherwise by a
  /// walk in `lane_rows`-row lanes. All give the row-order sum bit for bit.
  double Marginal(const RowSet& s, double w, double mass,
                  uint64_t lane_rows) const {
    if (exact && (!s.is_list() || weigher.level_weights.size() == 1)) {
      return weigher.Marginal(s, w, static_cast<uint64_t>(mass), *kern);
    }
    return Walk(s, w, lane_rows, nullptr);
  }

  // --- Pass 1 -----------------------------------------------------------

  /// One scan per column counting every size-1 rule and building each
  /// value's cover. Parallel over fixed row lanes with per-lane
  /// accumulators merged in lane order, so sums are bit-identical to the
  /// single-thread run. With `fold` (Count in the exact regime only) the
  /// scan stops after Phase A: no covers are built and each marginal is
  /// max(0, w) times the value's count. Otherwise, once every cover is
  /// built, a pending update (the winner of a folded Find) is applied along
  /// its value's cover, and then every marginal is counted over its
  /// value's cover in the column's lanes. Returns DeadlineExceeded when the
  /// deadline fires at a column boundary; a pending update then stays
  /// pending.
  Status CountSizeOne(bool fold) {
    const uint64_t n = total_rows;
    singles.resize(columns.size());
    if (exact && !fold) BuildPlanes();

    // Reused per-lane scratch (sized per column below), and the rows of
    // every value of a column, by value, before each takes its form.
    std::vector<uint32_t> lane_counts;
    std::vector<double> lane_mass;
    std::vector<uint32_t> rows;
    std::vector<uint32_t> offsets;

    for (size_t ci = 0; ci < columns.size(); ++ci) {
      const uint32_t c = columns[ci];
      const size_t dict = dict_size(c);
      SingletonTable& st = singles[ci];
      st.col = c;
      st.entries.assign(dict, Entry{});
      st.counts.assign(dict, 0u);
      st.codes.clear();

      // Lane layout for this column (global-data-shape-dependent only).
      const LaneLayout layout(n, dict);
      const uint64_t num_lanes = layout.lanes;
      const uint64_t lane_rows = layout.rows;
      st.lane_rows = lane_rows;
      auto lane_bounds = [&](uint64_t lane) {
        return std::pair<uint64_t, uint64_t>(
            lane * lane_rows, std::min(n, (lane + 1) * lane_rows));
      };

      lane_counts.assign(num_lanes * dict, 0u);
      if (!count_mode) lane_mass.assign(num_lanes * dict, 0.0);

      // Phase A: per-lane occurrence counts and mass sums. A lane spanning
      // a shard boundary scans the shards' sub-ranges in shard order, so
      // the scatter covers shards and threads at once.
      //
      // Segments decode block-wise through the dispatched scan kernels;
      // the per-code accumulation stays a sequential sweep in row order, so
      // floats land identically on every kernel path. Under Count
      // aggregation the mass accumulators are skipped entirely (mass is
      // derived from the integer counts at merge).
      RunChunked(num_lanes, [&](uint64_t lane) {
        const auto [lo, hi] = lane_bounds(lane);
        uint32_t* counts = lane_counts.data() + lane * dict;
        double* mass =
            count_mode ? nullptr : lane_mass.data() + lane * dict;
        uint32_t codes[kScanBlockRows];
        ForEachRange(lo, hi, [&](const Segment& s, uint64_t llo,
                                 uint64_t lhi) {
          const PackedRef col = s.view->table().column(c).ref();
          const double* mass_col = s.mass_col;
          if (mass == nullptr) {
            // Count aggregation needs no decode at all: the counting
            // kernel tallies the packed payload directly (SWAR popcounts
            // on the sub-byte widths).
            kern->count_codes(col, llo, lhi, dict, counts);
            return;
          }
          for (uint64_t b0 = llo; b0 < lhi; b0 += kScanBlockRows) {
            const uint64_t b1 = std::min(lhi, b0 + kScanBlockRows);
            const size_t bn = static_cast<size_t>(b1 - b0);
            kern->unpack(col, b0, b1, codes);
            for (size_t i = 0; i < bn; ++i) {
              const uint32_t code = codes[i];
              ++counts[code];
              mass[code] += mass_col ? mass_col[b0 + i] : 1.0;
            }
          }
        });
      });

      if (DeadlineExpired()) return DeadlineStatus();

      // Gather: merge in lane order; lay out each value's rows and cover.
      // Under Count the mass is the count itself (exact in double up to
      // 2^53 rows, and bit-identical to summing 1.0 per row).
      WallTimer merge_timer;
      offsets.assign(dict + 1, 0u);
      st.cover_at.assign(dict + 1, 0);
      for (size_t v = 0; v < dict; ++v) {
        uint32_t total = 0;
        double mass = 0;
        if (count_mode) {
          for (uint64_t k = 0; k < num_lanes; ++k) {
            total += lane_counts[k * dict + v];
          }
          mass = static_cast<double>(total);
        } else {
          for (uint64_t k = 0; k < num_lanes; ++k) {
            total += lane_counts[k * dict + v];
            mass += lane_mass[k * dict + v];
          }
        }
        st.counts[v] = total;
        st.entries[v].mass = mass;
        offsets[v + 1] = offsets[v] + total;
        st.cover_at[v + 1] =
            st.cover_at[v] + RowSet::StorageWords(total, words);
        if (total > 0) st.codes.push_back(static_cast<uint32_t>(v));
      }
      stats.merge_seconds += merge_timer.ElapsedMillis() / 1e3;

      WeighSingles(st);
      stats.tuple_visits += n;

      // Folded: every covered weight is 0.0 and every mass 1.0, so a
      // value's marginal is max(0, w) times its count, an integer below
      // 2^53 in the exact regime and so exact.
      if (fold) {
        for (uint32_t v : st.codes) {
          Entry& e = st.entries[v];
          if (!e.excluded) e.marginal = std::max(0.0, e.weight) * st.counts[v];
        }
        if (DeadlineExpired()) return DeadlineStatus();
        continue;
      }

      // Turn per-lane counts into per-lane write cursors (exclusive
      // prefix over lanes per code, offset by the value's first row).
      rows.resize(n);
      for (size_t v = 0; v < dict; ++v) {
        uint32_t cursor = offsets[v];
        for (uint64_t k = 0; k < num_lanes; ++k) {
          uint32_t cnt = lane_counts[k * dict + v];
          lane_counts[k * dict + v] = cursor;
          cursor += cnt;
        }
      }

      // Phase B: scatter rows by value, lane-ordered, so each value's rows
      // stay ascending in the concatenated row order.
      RunChunked(num_lanes, [&](uint64_t lane) {
        const auto [lo, hi] = lane_bounds(lane);
        uint32_t* cursors = lane_counts.data() + lane * dict;
        uint32_t codes[kScanBlockRows];
        ForEachRange(lo, hi, [&](const Segment& s, uint64_t llo,
                                 uint64_t lhi) {
          const PackedRef col = s.view->table().column(c).ref();
          for (uint64_t b0 = llo; b0 < lhi; b0 += kScanBlockRows) {
            const uint64_t b1 = std::min(lhi, b0 + kScanBlockRows);
            kern->unpack(col, b0, b1, codes);
            for (uint64_t t = b0; t < b1; ++t) {
              rows[cursors[codes[t - b0]]++] =
                  static_cast<uint32_t>(s.begin + t);
            }
          }
        });
      });

      // Each value's rows take their form, the values in parallel: a
      // bitset is written whole by one task.
      st.covers.resize(st.cover_at[dict]);
      RunChunked(st.codes.size(), [&](uint64_t i) {
        const uint32_t v = st.codes[i];
        WriteRowSet(RowSet::List(rows.data() + offsets[v], st.counts[v], words),
                    st.covers.data() + st.cover_at[v]);
      });
      if (DeadlineExpired()) return DeadlineStatus();
    }
    ++stats.passes;
    if (fold) return Status::OK();

    ApplyPending();
    std::vector<SingleItem> items = CountedSingles();
    RunChunked(items.size(), [&](uint64_t i) { CountSingle(items[i]); });
    return Status::OK();
  }

  /// A singleton to count: its entry, its value's cover and its column's
  /// pass-1 lane length.
  struct SingleItem {
    Entry* e;
    RowSet cover;
    uint64_t lane_rows;
  };

  /// The singletons of weight at most mw, by column and value.
  std::vector<SingleItem> CountedSingles() {
    std::vector<SingleItem> items;
    for (size_t ci = 0; ci < columns.size(); ++ci) {
      SingletonTable& st = singles[ci];
      for (uint32_t v : st.codes) {
        if (st.entries[v].excluded) continue;
        items.push_back(
            SingleItem{&st.entries[v], ValueCover(ci, v), st.lane_rows});
      }
    }
    return items;
  }

  /// Counts a singleton's marginal over its value's cover in pass 1's
  /// lanes, which gives a per-lane scatter's float bit for bit.
  void CountSingle(const SingleItem& item) const {
    Entry& e = *item.e;
    e.marginal = Marginal(item.cover, e.weight, e.mass, item.lane_rows);
  }

  /// Weights for the codes that occur (serial: WeightFunction is not
  /// required to be thread-safe, and this is O(dict), not O(rows)).
  void WeighSingles(SingletonTable& st) {
    Cols one_col{st.col};
    uint32_t one_val[1];
    for (uint32_t v : st.codes) {
      Entry& e = st.entries[v];
      one_val[0] = v;
      e.weight = EffectiveWeight(one_col, one_val);
      SMARTDD_DCHECK(!exact || std::floor(e.weight) == e.weight)
          << weight.name() << " claims IntegerValued";
      e.excluded = e.weight > options.max_weight;
      ++stats.candidates_generated;
      if (e.excluded) {
        e.mass = 0;  // match the lazy path: excluded rules are not counted
      } else {
        ++stats.candidates_counted;
      }
    }
  }

  /// Applies the pending covered-weight update in full along the previous
  /// winner's cover: a singleton's value cover, a wider rule's stored
  /// cover, or, when the full store kept none, the cover CoverOf rebuilds
  /// from the value covers. Every row of the views is covered by the base,
  /// so that is exactly the rows the winner covers. In the exact regime the
  /// cover also moves its rows up the weigher's levels. The update is a
  /// max, so it does not depend on row order.
  void ApplyPending() {
    if (!pass1.pending) return;
    const PassOneStore::Pick pending = *pass1.pending;
    pass1.pending.reset();
    RowSet cover;
    CoverBuffers buffers;
    if (pending.single >= 0) {
      cover = ValueCover(pending.single,
                         pending.rule.value(columns[pending.single]));
    } else if (pending.cover != kNoCover) {
      cover = store.Set(pending.cover, words);
    } else {
      Cols cols;
      std::vector<uint32_t> vals;
      for (uint32_t c : columns) {
        if (pending.rule.is_star(c)) continue;
        cols.push_back(c);
        vals.push_back(pending.rule.value(c));
      }
      uint64_t visits;
      cover = CoverOf(cols, vals.data(), Entry{}, buffers, &visits);
    }
    const double w = pending.weight;
    if (exact) weigher.Raise(cover, w);
    double* cw = covered.data();
    cover.ForEach([&](uint32_t t) {
      if (cw[t] < w) cw[t] = w;
    });
  }

  /// Pass 1 of a Find after the one that built the value covers: counts,
  /// masses, weights and covers are the stored ones, and a singleton's
  /// marginal can only have fallen since it was last counted. Singletons
  /// are taken in decreasing order of that last marginal, in the block
  /// schedule with H frozen per block; one whose last marginal is below H
  /// (or zero) can neither win nor tie, and is set aside. Once H is final,
  /// a set-aside singleton whose last super-rule bound still reaches H is
  /// recounted after all: stale, it would loosen pass 2's bounds and let
  /// through candidates that its fresh count prunes. The others keep their
  /// last marginal as a stale bound, which prunes exactly as the fresh one
  /// would. A recount counts the value's cover as pass 1 did (see
  /// CountSingle), so its float is pass 1's bit for bit.
  Status RecountSingles() {
    for (const SingletonTable& st : singles) {
      stats.candidates_generated += st.codes.size();
    }
    std::vector<SingleItem> items = CountedSingles();
    std::stable_sort(items.begin(), items.end(),
                     [](const SingleItem& a, const SingleItem& b) {
                       return a.e->marginal > b.e->marginal;
                     });

    const bool prune = options.pruning == PruningMode::kFull;
    double h = best_marginal;
    std::vector<size_t> todo;  // indices into `items` to recount
    auto recount = [&] {
      RunChunked(todo.size(), [&](uint64_t k) { CountSingle(items[todo[k]]); });
      for (size_t i : todo) {
        items[i].e->stale = false;
        stats.tuple_visits += items[i].cover.size();
        ++stats.candidates_counted;
        h = std::max(h, items[i].e->marginal);
      }
    };
    SMARTDD_RETURN_IF_ERROR(ForEachBlock(items.size(), [&](size_t begin,
                                                           size_t end) {
      todo.clear();
      for (size_t i = begin; i < end; ++i) {
        Entry& e = *items[i].e;
        e.stale = prune && (e.marginal < h || e.marginal <= 0);
        if (!e.stale) todo.push_back(i);
      }
      recount();
    }));
    if (DeadlineExpired()) return DeadlineStatus();
    todo.clear();
    for (size_t i = 0; i < items.size(); ++i) {
      const Entry& e = *items[i].e;
      if (e.stale && e.marginal > 0 && SuperRuleBound(e) >= h) {
        todo.push_back(i);
      }
    }
    recount();  // each fresh marginal is below H: H stays final
    for (const SingleItem& item : items) {
      stats.candidates_stale_skipped += item.e->stale;
    }
    ++stats.passes;
    return Status::OK();
  }

  // --- Counting passes (arity >= 2) -------------------------------------

  /// The cover of the rule cols=vals of arity >= 2 with entry `e`. It
  /// starts from the shorter of the shortest stored immediate sub-rule
  /// cover (e.source) and the rarest value's cover, selected by occurrence
  /// count, the rows a walk visits, not by mass (under Sum a huge-support
  /// value can have near-zero mass). That is intersected with the cover of
  /// the sub-rule's missing value, or with every other value's cover; the
  /// result is held in `buffers`. Sets *visits to the starting cover's
  /// size.
  RowSet CoverOf(const Cols& cols, const uint32_t* vals, const Entry& e,
                 CoverBuffers& buffers, uint64_t* visits) const {
    const size_t arity = cols.size();
    size_t rare_i = 0;
    uint32_t rare_count = std::numeric_limits<uint32_t>::max();
    for (size_t i = 0; i < arity; ++i) {
      uint32_t cnt = singles[col_dense[cols[i]]].counts[vals[i]];
      if (cnt < rare_count) {
        rare_count = cnt;
        rare_i = i;
      }
    }
    const bool from_source =
        e.source != kNoCover && store.covers[e.source].size < rare_count;
    RowSet cover = from_source
                       ? store.Set(e.source, words)
                       : ValueCover(col_dense[cols[rare_i]], vals[rare_i]);
    *visits = cover.size();
    size_t out = 0;
    for (size_t i = 0; i < arity; ++i) {
      if (from_source ? i != e.source_col : i == rare_i) continue;
      cover = Intersect(cover, ValueCover(col_dense[cols[i]], vals[i]), *kern,
                        buffers[out]);
      out ^= 1;
    }
    return cover;
  }

  /// Counts one candidate: a stored rule's marginal over its stored cover,
  /// with the stored mass; otherwise mass and marginal over the cover
  /// CoverOf builds in `buffers`, which it leaves in *cover. Outside the
  /// exact regime both are sums in row order over exactly the covered
  /// rows, so they never depend on the kernel, on the form of any cover or
  /// on where the shard cuts fall. Returns the rows walked: the stored
  /// cover's size, or the size of the cover CoverOf starts from. Writes
  /// only to `e`, `buffers` and *cover — safe to run concurrently across
  /// distinct candidates.
  uint64_t CountOneCandidate(const Cols& cols, const uint32_t* vals, Entry& e,
                             CoverBuffers& buffers, RowSet* cover) const {
    if (e.cover != kNoCover) {
      const RowSet stored = store.Set(e.cover, words);
      e.mass = store.covers[e.cover].mass;
      e.marginal = Marginal(stored, e.weight, e.mass, kOneLane);
      return stored.size();
    }
    uint64_t visits;
    *cover = CoverOf(cols, vals, e, buffers, &visits);
    if (exact && (!cover->is_list() || count_mode)) {
      e.mass = static_cast<double>(weigher.Mass(*cover, *kern));
      e.marginal = Marginal(*cover, e.weight, e.mass, kOneLane);
    } else {
      e.marginal = Walk(*cover, e.weight, kOneLane, &e.mass);
    }
    return visits;
  }

  /// Passes 2+: candidates are processed in decreasing order of
  /// min(generation-time upper bound, last counted marginal), in the block
  /// schedule. The threshold H is frozen at each block boundary: the long
  /// tail of weak candidates is still skipped without touching a tuple (the
  /// paper's threshold rule, applied per block), while the candidates
  /// inside a block count on all threads. A candidate whose bound is below
  /// H is tombstoned; one whose last marginal is below H (or zero) is not
  /// recounted, keeping that marginal as a stale bound (see Entry::stale).
  /// Ties with H are recounted, so the tie-break sees every contender.
  /// Because the block layout and H-updates are independent of the thread
  /// count, stats and results are bit-identical to serial. Each counted
  /// candidate's cover (when new) and marginal are recorded into the store
  /// in the gather, in item order. Returns DeadlineExceeded when the
  /// deadline fires at a block boundary.
  Status CountCandidates(std::vector<CandidateGroup>& groups) {
    struct Item {
      CandidateGroup* group;
      uint32_t index;  // entry index within the group's map
      double key;      // the sort key, min(bound, last)
      uint64_t visits = 0;
      RowSet cover;  // a new cover, held in its slot's buffers
      bool skip = false;
    };
    std::vector<Item> items;
    for (auto& g : groups) {
      for (uint32_t i = 0; i < g.map.size(); ++i) {
        const Entry& e = g.map.entry(i).second;
        if (!e.excluded) {
          items.push_back(Item{&g, i, std::min(e.bound, e.last)});
        }
      }
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) {
                       return a.key > b.key;
                     });

    const bool prune = options.pruning == PruningMode::kFull;
    double h = best_marginal;
    std::vector<CoverBuffers> slot_buffers(kCountBlock);
    SMARTDD_RETURN_IF_ERROR(ForEachBlock(items.size(), [&](size_t begin,
                                                           size_t end) {
      // Pruning decisions against the frozen H, in order.
      for (size_t i = begin; i < end; ++i) {
        Entry& e = items[i].group->map.entry(items[i].index).second;
        if (!prune) continue;
        if (e.bound < h || e.bound <= 0) {
          e.excluded = true;  // tombstone: super-rules prune through it
          items[i].skip = true;
          ++stats.candidates_pruned;
        } else if (e.last < h || e.last <= 0) {
          e.marginal = e.last;
          e.mass = store.covers[e.cover].mass;
          e.stale = true;
          items[i].skip = true;
          ++stats.candidates_stale_skipped;
        }
      }
      RunChunked(end - begin, [&](uint64_t k) {
        Item& item = items[begin + k];
        if (item.skip) return;
        item.visits = CountOneCandidate(
            item.group->cols, item.group->tuple(item.index),
            item.group->map.entry(item.index).second, slot_buffers[k],
            &item.cover);
      });
      // Gather: merge in item order; record the new covers and the fresh
      // marginals; advance H for the next block.
      WallTimer merge_timer;
      for (size_t i = begin; i < end; ++i) {
        if (items[i].skip) continue;
        auto& [k, e] = items[i].group->map.entry(items[i].index);
        if (e.cover != kNoCover) {
          store.covers[e.cover].marginal = e.marginal;
        } else {
          e.cover = store.Add(items[i].group->store_group, k, items[i].cover,
                              e.mass, e.marginal);
        }
        stats.tuple_visits += items[i].visits;
        ++stats.candidates_counted;
        if (e.marginal > h) h = e.marginal;
      }
      stats.merge_seconds += merge_timer.ElapsedMillis() / 1e3;
    }));
    ++stats.passes;
    return Status::OK();
  }

  // --- Absorbing finished passes ----------------------------------------

  /// Upper bound on the marginal value of any super-rule of a counted rule
  /// (paper §3.5): Marginal(r') + Mass(r') * (mw - W(r')).
  double SuperRuleBound(const Entry& e) const {
    return e.marginal + e.mass * (options.max_weight - e.weight);
  }

  void ConsiderBest(const Entry& e, const Cols& cols, const uint32_t* vals) {
    if (e.excluded || e.stale || e.marginal <= 0) return;
    if (e.marginal > best_marginal ||
        BetterThanBest(e.marginal, e.weight, cols, vals)) {
      TakeBest(e, cols, vals);
    }
  }

  void AbsorbSingles() {
    Cols one_col(1);
    uint32_t one_val[1];
    for (const SingletonTable& st : singles) {
      one_col[0] = st.col;
      for (uint32_t v : st.codes) {
        one_val[0] = v;
        ConsiderBest(st.entries[v], one_col, one_val);
      }
    }
  }

  /// Folds a counted pass into the store; returns the indices the pass's
  /// groups now occupy in `counted` (the next pass extends exactly these).
  std::vector<uint32_t> AbsorbGroups(std::vector<CandidateGroup>& groups) {
    std::vector<uint32_t> ids;
    ids.reserve(groups.size());
    for (auto& g : groups) {
      for (size_t i = 0; i < g.map.size(); ++i) {
        ConsiderBest(g.map.entry(i).second, g.cols, g.tuple(i));
      }
      uint32_t id = static_cast<uint32_t>(counted.size());
      auto [slot, inserted] =
          counted_index.FindOrInsert(ColsKey(g.cols.data(), g.cols.size()));
      SMARTDD_DCHECK(inserted);
      *slot = id;
      counted.push_back(std::move(g));
      ids.push_back(id);
    }
    return ids;
  }

  // --- Candidate generation ---------------------------------------------

  /// Builds `g`'s prefix index: one key per run of entries sharing a
  /// prefix. An exact packer clears the last field off the entry's key; a
  /// hashed one packs the tuple again with last value 0.
  void IndexPrefixes(CandidateGroup& g, std::vector<uint32_t>& scratch) const {
    const size_t arity = g.cols.size();
    auto prefix_of = [&](uint32_t i) {
      if (g.packer.exact()) return g.packer.Prefix(g.map.entry(i).first);
      scratch.assign(g.tuple(i), g.tuple(i) + arity);
      scratch.back() = 0;
      return g.packer.Pack(scratch.data(), arity);
    };
    const uint32_t n = static_cast<uint32_t>(g.map.size());
    Key128 next = n > 0 ? prefix_of(0) : Key128{};
    for (uint32_t begin = 0, end; begin < n; begin = end) {
      const Key128 prefix = next;
      for (end = begin + 1; end < n && (next = prefix_of(end)) == prefix;) {
        ++end;
      }
      auto [bucket, inserted] = g.prefixes.FindOrInsert(prefix);
      SMARTDD_DCHECK(inserted) << "a prefix's entries are one run";
      *bucket = Bucket{begin, end};
    }
  }

  /// Scratch for ExtendParent, reused across parents. For one (parent,
  /// added column) pair, `sub_groups[i]` is the counted group of the
  /// immediate sub-rule that lacks the parent's i-th column (the added
  /// column last), and `buckets[i]` its bucket: the entries whose prefix is
  /// the parent's values less the i-th, ascending in the added value.
  struct GenScratch {
    Cols cand_cols, sub_cols;
    std::vector<uint32_t> cand_vals, sub_vals, index_vals;
    std::vector<const CandidateGroup*> sub_groups;
    std::vector<Bucket> buckets;
  };

  /// Resolves the sub-rule groups and buckets of one (parent, added column
  /// c) pair (parent arity >= 2). Returns false when a group or a bucket
  /// is missing: that sub-rule was never generated for any added value,
  /// so every candidate of the pair lacks it.
  bool ResolveSubGroups(const Cols& pcols, const uint32_t* pvals, uint32_t c,
                        GenScratch& gs) {
    const size_t parity = pcols.size();
    gs.sub_groups.resize(parity);
    gs.buckets.resize(parity);
    gs.sub_vals.resize(parity);
    for (size_t i = 0; i < parity; ++i) {
      gs.sub_cols.clear();
      for (size_t j = 0, n = 0; j < parity; ++j) {
        if (j == i) continue;
        gs.sub_cols.push_back(pcols[j]);
        gs.sub_vals[n++] = pvals[j];
      }
      gs.sub_cols.push_back(c);
      gs.sub_vals[parity - 1] = 0;
      const uint32_t* slot =
          counted_index.Find(ColsKey(gs.sub_cols.data(), parity));
      if (slot == nullptr) return false;
      CandidateGroup& g = counted[*slot];
      if (g.prefixes.empty()) IndexPrefixes(g, gs.index_vals);
      const Bucket* bucket =
          g.prefixes.Find(g.packer.Pack(gs.sub_vals.data(), parity));
      if (bucket == nullptr) return false;
      gs.sub_groups[i] = &g;
      gs.buckets[i] = *bucket;
    }
    return true;
  }

  /// Extends one parent (cols/vals/entry) with every later column's
  /// surviving singletons, appending candidates into `out`.
  ///
  /// A candidate is pruned when an immediate sub-rule is missing, excluded
  /// or of zero mass (the candidate is then itself zero-mass or already
  /// dominated), or when the least SuperRuleBound over them is below H or
  /// not positive. Two sub-rules need no lookup: the parent, and at arity 2
  /// the added singleton. The others are joined: per added column, each
  /// sub-rule's bucket is found once (a missing one prunes every candidate
  /// of the pair), then the added values are merged against the buckets in
  /// ascending order, sub-rules in column order, and the first that prunes
  /// ends the test. The same sub-rules give the shortest stored cover to
  /// count from, ties to the earliest dropped column.
  ///
  /// Every value of `gen_values` is a generated candidate; the loop walks
  /// only those that can survive (the values whose own bound passes at
  /// arity 2, the shortest bucket's above it), or, when the weight cap
  /// binds, all of them, each weighed before its prune test. The rest are
  /// tallied as pruned. Survivors are inserted in ascending value order.
  void ExtendParent(const Cols& pcols, const uint32_t* pvals,
                    const Entry& parent, bool prune,
                    FlatMap<uint32_t>& group_index,
                    std::vector<CandidateGroup>& out, GenScratch& gs) {
    if (parent.excluded || parent.mass <= 0) return;
    const double parent_bound = SuperRuleBound(parent);
    // Cheap parent-level cut: no super-rule of this parent can beat H.
    if (prune && parent_bound < best_marginal) return;

    const size_t parity = pcols.size();
    const size_t arity = parity + 1;
    Cols& cand_cols = gs.cand_cols;
    std::vector<uint32_t>& cand_vals = gs.cand_vals;
    cand_cols.assign(pcols.begin(), pcols.end());
    cand_cols.push_back(0);
    cand_vals.assign(pvals, pvals + parity);
    cand_vals.push_back(0);
    auto fails = [&](double bound) {
      return prune && (bound < best_marginal || bound <= 0);
    };

    for (size_t ci = 0; ci < columns.size(); ++ci) {
      const uint32_t c = columns[ci];
      if (c <= pcols.back()) continue;
      const std::vector<uint32_t>& values = gen_values[ci];
      if (values.empty()) continue;
      stats.candidates_generated += values.size();
      const bool dead = fails(parent_bound) ||
                        (parity >= 2 && !ResolveSubGroups(pcols, pvals, c, gs));
      // The values walked, a list of `walk_n` codes `walk_stride` apart.
      const uint32_t* walk = values.data();
      size_t walk_n = values.size();
      size_t walk_stride = 1;
      if (!cap_binds && dead) {
        walk_n = 0;
      } else if (!cap_binds && parity == 1) {
        walk = gen_passing[ci].data();
        walk_n = gen_passing[ci].size();
      } else if (!cap_binds) {
        size_t shortest = 0;
        for (size_t i = 1; i < parity; ++i) {
          if (gs.buckets[i].end - gs.buckets[i].begin <
              gs.buckets[shortest].end - gs.buckets[shortest].begin) {
            shortest = i;
          }
        }
        // The bucket's last values: its tuples have arity `parity`.
        walk = gs.sub_groups[shortest]->tuple(gs.buckets[shortest].begin) +
               (parity - 1);
        walk_n = gs.buckets[shortest].end - gs.buckets[shortest].begin;
        walk_stride = parity;
      }
      cand_cols[parity] = c;
      const SingletonTable& st = singles[ci];
      CandidateGroup* g = nullptr;  // found or made on the first survivor
      Key128 cand_prefix;
      size_t over_cap = 0;
      size_t kept = 0;
      for (size_t k = 0; k < walk_n; ++k) {
        const uint32_t v1 = walk[k * walk_stride];
        cand_vals[parity] = v1;
        double w = 0;
        if (cap_binds) {
          w = EffectiveWeight(cand_cols, cand_vals.data());
          if (w > options.max_weight) {  // weight cap (mw)
            ++over_cap;
            continue;
          }
          if (dead) continue;
        }

        double bound =
            parity == 1
                ? std::min(parent_bound, SuperRuleBound(st.entries[v1]))
                : parent_bound;
        bool pruned = fails(bound);
        uint32_t source = kNoCover;
        uint32_t source_col = 0;
        uint32_t source_size = std::numeric_limits<uint32_t>::max();
        // At arity 2 the sub-rules are the parent and e1, both known.
        const size_t probed = parity >= 2 ? parity : 0;
        for (size_t i = 0; i < probed && !pruned; ++i) {
          const CandidateGroup& sg = *gs.sub_groups[i];
          Bucket& b = gs.buckets[i];
          while (b.begin < b.end && sg.last(b.begin) < v1) ++b.begin;
          if (b.begin == b.end || sg.last(b.begin) != v1) {
            pruned = true;
            break;
          }
          const Entry& sub = sg.map.entry(b.begin).second;
          if (sub.excluded || sub.mass <= 0) {
            pruned = true;
            break;
          }
          bound = std::min(bound, SuperRuleBound(sub));
          pruned = fails(bound);
          if (sub.cover != kNoCover &&
              store.covers[sub.cover].size < source_size) {
            source = sub.cover;
            source_col = static_cast<uint32_t>(i);
            source_size = store.covers[sub.cover].size;
          }
        }
        if (pruned) continue;
        // The parent is the sub-rule that lacks the added (last) column.
        if (parity >= 2 && parent.cover != kNoCover &&
            store.covers[parent.cover].size < source_size) {
          source = parent.cover;
          source_col = static_cast<uint32_t>(parity);
        }
        if (!cap_binds) w = EffectiveWeight(cand_cols, cand_vals.data());
        SMARTDD_DCHECK(w <= options.max_weight)
            << weight.name() << " exceeds MaxPossibleWeight";
        SMARTDD_DCHECK(!exact || std::floor(w) == w)
            << weight.name() << " claims IntegerValued";

        if (g == nullptr) {
          const Key128 cols_key = ColsKey(cand_cols.data(), arity);
          auto [slot, inserted] = group_index.FindOrInsert(cols_key);
          if (inserted) {
            *slot = static_cast<uint32_t>(out.size());
            out.emplace_back();
            out.back().cols = cand_cols;
            out.back().packer = MakePacker(cand_cols);
            out.back().store_group = store.GroupFor(cols_key);
          }
          g = &out[*slot];
          if (g->packer.exact()) {
            cand_vals[parity] = 0;
            cand_prefix = g->packer.Pack(cand_vals.data(), arity);
            cand_vals[parity] = v1;
          }
        }
        const Key128 vals_key =
            g->packer.exact() ? g->packer.PackLast(cand_prefix, v1)
                              : g->packer.Pack(cand_vals.data(), arity);
        auto [entry, fresh] = g->map.FindOrInsert(vals_key);
        ++kept;
        if (!fresh) continue;  // only a hashed key can collide
        entry->weight = w;
        entry->bound = bound;
        const uint32_t* stored = store.groups[g->store_group].Find(vals_key);
        if (stored != nullptr) {
          entry->cover = *stored;
          entry->last = store.covers[*stored].marginal;
        }
        entry->source = source;
        entry->source_col = source_col;
        g->tuples.insert(g->tuples.end(), cand_vals.begin(), cand_vals.end());
      }
      stats.candidates_pruned += values.size() - over_cap - kept;
    }
  }

  /// Generates size-j candidate groups by extending the size-(j-1)
  /// candidates (`prev_group_ids`, or the singletons when j == 2). Each
  /// candidate extends a parent with one column strictly after the parent's
  /// last column, so every candidate is generated exactly once from its
  /// prefix sub-rule. H stays fixed while a pass generates, so the values
  /// each column may add, and those whose own bound passes, are listed once.
  std::vector<CandidateGroup> GenerateCandidates(
      const std::vector<uint32_t>& prev_group_ids, bool from_singles) {
    const bool prune = options.pruning == PruningMode::kFull;
    gen_values.resize(columns.size());
    gen_passing.resize(columns.size());
    for (size_t ci = 0; ci < columns.size(); ++ci) {
      const SingletonTable& st = singles[ci];
      gen_values[ci].clear();
      gen_passing[ci].clear();
      for (uint32_t v : st.codes) {
        const Entry& e = st.entries[v];
        if (e.excluded || e.mass <= 0) continue;
        gen_values[ci].push_back(v);
        const double bound = SuperRuleBound(e);
        if (!prune || (bound >= best_marginal && bound > 0)) {
          gen_passing[ci].push_back(v);
        }
      }
    }
    FlatMap<uint32_t> group_index;
    std::vector<CandidateGroup> out;
    GenScratch gs;

    if (from_singles) {
      Cols pcols(1);
      uint32_t pvals[1];
      for (const SingletonTable& st : singles) {
        pcols[0] = st.col;
        for (uint32_t v : st.codes) {
          pvals[0] = v;
          ExtendParent(pcols, pvals, st.entries[v], prune, group_index, out,
                       gs);
        }
      }
    } else {
      for (uint32_t id : prev_group_ids) {
        const CandidateGroup& g = counted[id];
        for (size_t i = 0; i < g.map.size(); ++i) {
          ExtendParent(g.cols, g.tuple(i), g.map.entry(i).second, prune,
                       group_index, out, gs);
        }
      }
    }
    return out;
  }

  // --- Driver -----------------------------------------------------------

  Result<MarginalRuleResult> Run() {
    const size_t max_size = std::min(options.max_rule_size, columns.size());
    if (max_size == 0 || total_rows == 0) {
      return Status::NotFound("no rule with positive marginal value");
    }

    // An already-expired deadline aborts before the first scan: the greedy
    // caller keeps whatever rules it has (degrade, not fail). A pending
    // update stays pending.
    if (DeadlineExpired()) return DeadlineStatus();

    // While `covered` is empty every covered weight is 0.0. Under Count in
    // the exact regime, a first Find capped at size-1 rules has no pass to
    // walk the value covers, and every marginal folds from the counts: its
    // pass 1 stops after Phase A, which counts without decoding a row, and
    // builds no covers, and the next Find builds pass 1. (A Sum Phase A
    // decodes every row, so a Sum search builds its covers at once and its
    // stats stay those of the per-row path.) Every other pass needs the
    // covered weights: the array, and in the regime also the levels.
    const bool fold = exact && count_mode && max_size == 1 &&
                      covered.empty() && weigher.level_weights.empty();
    if (exact && weigher.level_weights.empty()) {
      weigher.SetLevels(covered, total_rows);
    }
    if (!fold && covered.empty()) covered.assign(total_rows, 0.0);

    // Pass 1: the first Find scans the view for every size-1 rule and
    // builds the value covers; later Finds update the covered weights along
    // the last winner's cover and recount from the stored state. The
    // pending update is applied in full before the recount starts, even
    // when the recount then fails; after a folded Find, pass 1 applies it
    // once its value covers are built.
    if (pass1.built) {
      ApplyPending();
      SMARTDD_RETURN_IF_ERROR(RecountSingles());
    } else {
      SMARTDD_RETURN_IF_ERROR(CountSizeOne(fold));
      pass1.built = !fold;
    }
    AbsorbSingles();

    // Passes 2..max_size: a-priori-style candidate generation + counting.
    std::vector<uint32_t> prev_ids;
    for (size_t j = 2; j <= max_size; ++j) {
      if (DeadlineExpired()) return DeadlineStatus();
      std::vector<CandidateGroup> next =
          GenerateCandidates(prev_ids, /*from_singles=*/j == 2);
      if (next.empty()) break;
      SMARTDD_RETURN_IF_ERROR(CountCandidates(next));
      prev_ids = AbsorbGroups(next);
    }

    if (best_marginal <= 0) {
      return Status::NotFound("no rule with positive marginal value");
    }
    PassOneStore::Pick& pick = pass1.pending.emplace();
    pick.rule = best_rule;
    pick.weight = best_weight;
    if (best_cols.size() == 1) {
      pick.single = col_dense[best_cols[0]];
    } else {
      pick.cover = best_cover;
    }
    MarginalRuleResult result;
    result.rule = best_rule;
    result.weight = best_weight;
    result.mass = best_mass;
    result.marginal = best_marginal;
    return result;
  }
};

namespace {

/// The exact regime, decided from the finder's inputs: an integer-valued
/// weight; integer, non-negative starting covered weights in at most
/// kMaxStartLevels levels; Count, or Sum over a measure whose every value
/// is a non-negative integer below 2^kMaxMeasurePlanes; and every
/// marginal below 2^53 (the total mass x the largest weight a candidate
/// may have). Returns the number of measure bit-planes the Sum needs (at
/// least 1; 0 under Count), or nullopt outside the regime.
std::optional<size_t> ExactRegime(const std::vector<const TableView*>& views,
                                  const WeightFunction& weight,
                                  const MarginalSearchOptions& options,
                                  const std::vector<double>& covered,
                                  uint64_t rows) {
  const TableView& proto = *views[0];
  if (!weight.IntegerValued()) return std::nullopt;
  const double mw = std::min(options.max_weight,
                             weight.MaxPossibleWeight(proto.num_columns()));
  if (!(mw >= 0)) return std::nullopt;
  std::vector<double> starts = covered;
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  if (starts.size() > kMaxStartLevels) return std::nullopt;
  for (double w : starts) {
    if (!(w >= 0 && std::floor(w) == w)) return std::nullopt;  // NaN, inf
  }
  static_assert(kMaxMeasurePlanes <= 31, "the planes take 32-bit measures");
  double total = static_cast<double>(rows);
  uint64_t bits = 0;  // the OR of every measure value
  if (proto.has_measure()) {
    constexpr double kLimit =
        static_cast<double>(uint64_t{1} << kMaxMeasurePlanes);
    total = 0;
    for (const TableView* v : views) {
      const double* m = v->table().measure_column(*v->measure_index()).data();
      for (uint64_t t = 0; t < v->num_rows(); ++t) {
        // Rejects NaN too; in range, the cast truncates to an integer.
        if (!(m[t] >= 0 && m[t] < kLimit) ||
            static_cast<double>(static_cast<uint32_t>(m[t])) != m[t]) {
          return std::nullopt;
        }
        total += m[t];  // integers below 2^53 (rows < 2^32): exact
        bits |= static_cast<uint32_t>(m[t]);
      }
    }
  }
  if (!(total * std::max(mw, 1.0) < kMaxExactSum)) return std::nullopt;
  if (!proto.has_measure()) return size_t{0};
  return std::max<size_t>(1, static_cast<size_t>(std::bit_width(bits)));
}

}  // namespace

MarginalRuleFinder::MarginalRuleFinder(std::vector<const TableView*> views,
                                       const WeightFunction& weight,
                                       MarginalSearchOptions options,
                                       std::vector<double> covered)
    : views_(std::move(views)),
      weight_(&weight),
      options_(std::move(options)),
      covered_(std::move(covered)),
      store_(std::make_unique<CoverStore>()),
      pass1_(std::make_unique<PassOneStore>()) {
  SMARTDD_CHECK(!views_.empty()) << "the finder needs >= 1 view";
  uint64_t rows = 0;
  for (const TableView* v : views_) {
    rows += v->num_rows();
    SMARTDD_DCHECK(!options_.base_rule ||
                   !GatherCover(*v, *options_.base_rule))
        << "base_rule must cover every row of the views";
  }
  SMARTDD_CHECK(covered_.empty() || covered_.size() == rows)
      << "covered must have one entry per row of the views";
  const std::optional<size_t> planes =
      ExactRegime(views_, weight, options_, covered_, rows);
  pass1_->exact = planes.has_value();
  pass1_->weigher.words = BitsetWords(rows);
  pass1_->weigher.num_planes = planes.value_or(0);
}

MarginalRuleFinder::~MarginalRuleFinder() = default;

bool MarginalRuleFinder::exact_regime() const { return pass1_->exact; }

Result<MarginalRuleResult> MarginalRuleFinder::Find() {
  stats_ = MarginalSearchStats{};
  Impl impl(views_, *weight_, options_, stats_, *store_, *pass1_, covered_);
  return impl.Run();
}

}  // namespace smartdd
