#ifndef SMARTDD_SAMPLING_SAMPLE_HANDLER_H_
#define SMARTDD_SAMPLING_SAMPLE_HANDLER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "rules/rule.h"
#include "sampling/allocation.h"
#include "sampling/sample.h"
#include "storage/scan_source.h"

namespace smartdd {

struct ScanKernels;

/// How a sample request was satisfied (paper §4.3).
enum class SampleMechanism {
  kFind,     ///< an existing sample with exactly this filter sufficed
  kCombine,  ///< assembled from sub-rule samples already in memory
  kCreate,   ///< required a full pass over the source
};

struct SampleHandlerOptions {
  /// M: total tuples the handler may hold across all samples.
  uint64_t memory_capacity = 50000;
  /// minSS: minimum tuples a returned sample must contain (unless the rule
  /// covers fewer tuples in the entire source).
  uint64_t min_sample_size = 5000;
  /// Fraction of M a bare Create (no displayed tree yet) allocates to the
  /// requested rule, never below min_sample_size.
  double create_capacity_fraction = 0.25;
  uint64_t seed = 42;
  /// Threads for the Create/ExactMasses scan passes (0 = all hardware
  /// threads). Results are bit-identical for every value: passes are
  /// partitioned into chunks whose boundaries and RNG streams are pure
  /// functions of the row count (ScanSource::PlanChunks) plus — for Create
  /// passes — memory_capacity and the planned sample capacities (the
  /// transient-memory bound), never of the thread count; per-chunk state is
  /// merged in chunk order.
  size_t num_threads = 0;
};

/// The rule tree currently displayed by the UI, used to plan sample
/// allocation (paper §4.1) and pre-fetching. Node 0 must be the root.
struct DisplayTree {
  struct Node {
    Rule rule{0};
    /// Estimated mass (Count/Sum) of the rule; used to derive selectivity
    /// ratios S(parent, child) = mass(child) / mass(parent).
    double estimated_mass = 0;
    int parent = -1;
    std::vector<int> children;
    /// Probability the user expands this node next (only meaningful for
    /// leaves; pass 0 elsewhere). If all zeros, leaves get uniform weight.
    double expand_probability = 0;
  };
  std::vector<Node> nodes;
};

/// A materialized answer to "give me a sample for rule r".
struct SampleRequest {
  Table table;          ///< full-width sampled tuples, all covered by r
  double scale = 1.0;   ///< full-table mass ~= scale * mass-on-table
  SampleMechanism mechanism = SampleMechanism::kFind;
};

/// Combine (paper §4.3): the de-duplicated union of the tuples of `sources`
/// that `rule` covers, source by source and slot by slot, each row id kept
/// where it first appears, with the Horvitz-Thompson scale of independent
/// sources (1 when one of them is complete, i.e. has scale 1). Every
/// source's filter must be a sub-rule of `rule`; `prototype` is the
/// full-width schema (as for Sample). Built a column at a time from the
/// sources' stored columns, and marked derived. NotFound when there is no
/// source, or when the union is incomplete and holds fewer than
/// `min_sample_size` tuples.
Result<std::unique_ptr<Sample>> CombineSamples(
    const Rule& rule, const std::vector<const Sample*>& sources,
    const Table& prototype, uint64_t min_sample_size);

/// Creates, maintains, retrieves, and evicts in-memory samples of a
/// scan-only source in response to drill-down interactions (paper §4.3).
///
/// Request flow: Find (exact-filter sample big enough) -> Combine (union of
/// sub-rule samples, Horvitz-Thompson scaled, de-duplicated by row id;
/// the union is materialized as a stored sample when it fits under M, so a
/// repeat request is a Find hit) -> Create (one chunked parallel pass over
/// the source, multi-reservoir: realizes the §4.1 allocation for every
/// displayed rule, refreshes exact counts, and respects the memory cap M).
///
/// The Create and ExactMasses passes fan out over the shared thread pool
/// (SampleHandlerOptions::num_threads): each chunk feeds its own
/// sub-reservoirs/accumulators from an independent SplitMix64-derived RNG
/// stream, and the per-chunk states are stitched back deterministically in
/// chunk order, so results are bit-identical for every thread count.
///
/// Concurrency contract (engine/session split): one handler serves many
/// concurrent sessions. The stored-sample map and the per-session
/// displayed trees live behind a reader-writer lock: Find
/// materializes under a shared lock, Combine and the post-pass store swap
/// take the lock exclusively, and scan passes themselves run with no store
/// lock held. Create passes are single-flight: at most one pass over the
/// source runs at a time, and a session that misses while another session's
/// pass is in flight waits for that pass and re-checks Find/Combine first —
/// two sessions requesting the same rule's sample trigger one scan, not
/// two. Per-session state is keyed by an opaque session id (sessions that
/// never pass one share the default id 0, preserving the single-session
/// behaviour). The statistics counters are atomic and may be read at any
/// time, including while a background prefetch pass is running.
class SampleHandler {
 public:
  /// Session key used by the single-session convenience overloads.
  static constexpr uint64_t kDefaultSession = 0;

  /// `source` must outlive the handler.
  SampleHandler(const ScanSource& source, SampleHandlerOptions options);

  /// Returns a sample of tuples covered by `rule` with at least minSS rows
  /// when the rule covers that many in the source. `session` selects whose
  /// displayed tree drives the allocation of a Create pass. `deadline`
  /// bounds the Create scan cooperatively (checked every few thousand rows
  /// per chunk): on expiry the pass is abandoned *without* committing its
  /// partial reservoirs — a torn reservoir is a biased sample, so the store
  /// keeps only samples built by completed passes — and DeadlineExceeded is
  /// returned. Find/Combine hits are in-memory and never check it.
  Result<SampleRequest> GetSampleFor(const Rule& rule,
                                     uint64_t session = kDefaultSession,
                                     const Deadline& deadline = {});

  /// Declares the rule tree `session` currently displays. Subsequent Create
  /// passes for that session allocate memory across its nodes; Prefetch()
  /// runs such a pass immediately (the §4.3 pre-fetching optimization).
  void SetDisplayedTree(uint64_t session, DisplayTree tree);
  void SetDisplayedTree(DisplayTree tree) {
    SetDisplayedTree(kDefaultSession, std::move(tree));
  }

  /// Eagerly runs a Create pass sized by the allocation solver so that
  /// `session`'s likely next drill-downs become Find/Combine hits. No-op
  /// without a displayed tree for the session. The pass is attributed to
  /// prefetch_scans(), not scans_performed().
  Status Prefetch(uint64_t session = kDefaultSession);

  /// Forgets `session`'s displayed tree (its samples stay until evicted).
  void DropSession(uint64_t session);

  /// Exact masses of `rules` computed in one pass over the source: tuple
  /// counts, or sums over measure column `measure` when given.
  Result<std::vector<double>> ExactMasses(
      const std::vector<Rule>& rules,
      std::optional<size_t> measure = std::nullopt);

  // --- Introspection ----------------------------------------------------

  /// Tuples currently held across all samples.
  uint64_t memory_used() const;
  size_t num_samples() const;
  /// Full passes over the source triggered by interactive (foreground)
  /// requests: Create misses and ExactMasses calls. Pre-fetch passes are
  /// counted separately in prefetch_scans().
  uint64_t scans_performed() const {
    return scans_.load(std::memory_order_relaxed);
  }
  /// Full passes run by Prefetch() (§4.3 background work that happens while
  /// the user reads, so it is not an interactive cost).
  uint64_t prefetch_scans() const {
    return prefetch_scans_.load(std::memory_order_relaxed);
  }
  uint64_t find_hits() const { return finds_.load(std::memory_order_relaxed); }
  uint64_t combine_hits() const {
    return combines_.load(std::memory_order_relaxed);
  }
  /// Create passes, foreground and prefetch alike.
  uint64_t creates() const { return creates_.load(std::memory_order_relaxed); }

 private:
  /// Runs one chunked pass building reservoir samples of the given
  /// capacities for the given rules; returns exact per-rule masses. When
  /// `prefetch_pass` is set the pass is attributed to prefetch_scans().
  /// Caller must hold the Create single-flight (create_in_flight_). An
  /// expired `deadline` abandons the scan and commits nothing.
  Result<std::vector<double>> CreateSamples(
      const std::vector<Rule>& rules, const std::vector<uint64_t>& capacities,
      bool prefetch_pass, const Deadline& deadline = {});

  Result<SampleRequest> TryFind(const Rule& rule);
  /// TryFind's acceptance loop; caller holds store_mu_ (either mode).
  Result<SampleRequest> FindLocked(const Rule& rule);
  Result<SampleRequest> TryCombine(const Rule& rule);

  /// Allocation plan for `tree` (+ `extra` rule if not in it); `tree` may
  /// be nullptr (bare Create).
  void PlanAllocation(const DisplayTree* tree, const Rule& extra,
                      std::vector<Rule>* rules,
                      std::vector<uint64_t>* capacities) const;

  /// Copy of `session`'s displayed tree, or nullopt. Takes store_mu_.
  std::optional<DisplayTree> TreeCopy(uint64_t session) const;

  uint64_t MemoryUsedLocked() const;

  /// Blocks until this thread owns the Create single-flight. Returns false
  /// when a pass completed while waiting (the caller should re-check
  /// Find/Combine before trying again).
  bool AcquireCreateFlight();
  void ReleaseCreateFlight();

  const ScanSource* source_;
  /// Empty table sharing the source's dictionaries: the schema every
  /// sample is built against.
  const Table prototype_;
  SampleHandlerOptions options_;
  /// The kernels every pass evaluates rules with (identical results on
  /// every path; SMARTDD_KERNEL picks one).
  const ScanKernels* kernels_;

  /// Guards samples_ and trees_.
  mutable std::shared_mutex store_mu_;
  std::vector<std::unique_ptr<Sample>> samples_;
  std::vector<std::pair<uint64_t, DisplayTree>> trees_;

  /// Single-flight Create pass (also serializes seed_counter_).
  std::mutex create_mu_;
  std::condition_variable create_cv_;
  bool create_in_flight_ = false;
  uint64_t create_epoch_ = 0;

  std::atomic<uint64_t> scans_{0};
  std::atomic<uint64_t> prefetch_scans_{0};
  std::atomic<uint64_t> finds_{0};
  std::atomic<uint64_t> combines_{0};
  std::atomic<uint64_t> creates_{0};
  uint64_t seed_counter_ = 0;  // guarded by the Create single-flight
};

}  // namespace smartdd

#endif  // SMARTDD_SAMPLING_SAMPLE_HANDLER_H_
