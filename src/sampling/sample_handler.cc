#include "sampling/sample_handler.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <unordered_set>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/scan_kernels.h"
#include "rules/rule_ops.h"
#include "sampling/reservoir.h"

namespace smartdd {

namespace {

/// Substream id of the stitch-merge RNG within a rule's seed stream; chunk
/// sub-reservoirs use substreams 0..num_chunks-1, which stay far below this.
constexpr uint64_t kMergeStream = ~uint64_t{0};

/// Calls fn(j) for each j in [0, n) with mask[j] != 0, in ascending order,
/// skipping all-zero 8-byte words of the mask.
template <typename Fn>
void ForEachSet(const uint8_t* mask, size_t n, Fn&& fn) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    uint64_t word;
    std::memcpy(&word, mask + j, sizeof word);
    if (word == 0) continue;
    for (size_t t = j; t < j + 8; ++t) {
      if (mask[t] != 0) fn(t);
    }
  }
  for (; j < n; ++j) {
    if (mask[j] != 0) fn(j);
  }
}

/// One tuple a gathered sample keeps: slot `slot` of input sample `chunk`
/// (a chunk sub-reservoir in a stitch, a source sample in a Combine).
struct SlotRef {
  uint32_t chunk;
  uint32_t slot;
};

/// An accepted reservoir offer of one block: slot `slot` takes block row
/// `row`.
struct Hit {
  uint32_t slot;
  uint32_t row;
};

/// Writes a block's accepted rows into `sample`'s slots, one column at a
/// time. Hits are applied in row order, so a slot hit twice in the block
/// ends holding the later row, as row-at-a-time replacement would leave it.
/// A stored column is decoded once over the hits' row span with the unpack
/// kernel when the hits are dense in it (one or more per 8 rows), and read
/// per hit otherwise.
/// `scratch` holds kScanBlockRows codes.
void ScatterHits(const ScanBlock& block, std::span<const Hit> hits,
                 const ScanKernels& kernels, uint32_t* scratch,
                 Sample* sample) {
  if (hits.empty()) return;
  const uint64_t first = hits.front().row;
  const uint64_t span = hits.back().row + 1 - first;
  const bool dense = hits.size() * 8 >= span;
  const std::vector<size_t>& star_cols = sample->star_columns();
  for (size_t k = 0; k < star_cols.size(); ++k) {
    const PackedRef& col = block.columns[star_cols[k]];
    uint32_t* out = sample->mutable_codes(k);
    if (dense) {
      const uint64_t begin = block.offset + first;
      kernels.unpack(col, begin, begin + span, scratch);
      for (const Hit& h : hits) out[h.slot] = scratch[h.row - first];
    } else {
      for (const Hit& h : hits) out[h.slot] = col.Get(block.offset + h.row);
    }
  }
  for (size_t m = 0; m < block.num_measures; ++m) {
    const double* in = block.measures[m] + block.offset;
    double* out = sample->mutable_measures(m);
    for (const Hit& h : hits) out[h.slot] = in[h.row];
  }
  uint64_t* ids = sample->mutable_row_ids();
  for (const Hit& h : hits) ids[h.slot] = block.row_begin + h.row;
}

/// Exact uniform stitch-merge of two reservoirs over disjoint populations:
/// `acc`, the fold of the chunks before `chunk` (a uniform sample of
/// `*acc_seen` covered tuples), and chunk `chunk`'s sub-reservoir (`b_size`
/// tuples drawn from `b_seen`). It simulates drawing up to `capacity`
/// tuples without replacement from the union: each draw picks side A with
/// probability proportional to its remaining population size and then takes
/// a uniformly random unused element of that side's reservoir (valid
/// because a reservoir is an exchangeable uniform subset of its
/// population). The draws depend only on the population and reservoir
/// sizes, so the fold runs over slot references and the caller copies each
/// kept tuple once, in the final order. All randomness comes from `rng`,
/// and the fold runs in chunk order, so the result is independent of how
/// chunks were scheduled across threads. `remaining_a`, `remaining_b` and
/// `merged` are caller scratch.
void StitchChunk(std::vector<SlotRef>* acc, uint64_t* acc_seen,
                 uint32_t chunk, size_t b_size, uint64_t b_seen,
                 uint64_t capacity, Rng& rng,
                 std::vector<uint32_t>& remaining_a,
                 std::vector<uint32_t>& remaining_b,
                 std::vector<SlotRef>& merged) {
  if (b_seen == 0) return;
  if (*acc_seen == 0) {
    acc->clear();
    for (size_t s = 0; s < b_size; ++s) {
      acc->push_back(SlotRef{chunk, static_cast<uint32_t>(s)});
    }
    *acc_seen = b_seen;
    return;
  }

  merged.clear();
  remaining_a.resize(acc->size());
  remaining_b.resize(b_size);
  std::iota(remaining_a.begin(), remaining_a.end(), 0u);
  std::iota(remaining_b.begin(), remaining_b.end(), 0u);
  uint64_t pop_a = *acc_seen;
  uint64_t pop_b = b_seen;
  while (merged.size() < capacity && (pop_a > 0 || pop_b > 0)) {
    bool from_a =
        pop_b == 0 || (pop_a > 0 && rng.UniformInt(pop_a + pop_b) < pop_a);
    std::vector<uint32_t>& remaining = from_a ? remaining_a : remaining_b;
    if (remaining.empty()) {
      // Unreachable when both inputs hold min(capacity, seen) tuples; guard
      // so a short input can never wedge the loop.
      (from_a ? pop_a : pop_b) = 0;
      continue;
    }
    size_t j = static_cast<size_t>(rng.UniformInt(remaining.size()));
    uint32_t slot = remaining[j];
    remaining[j] = remaining.back();
    remaining.pop_back();
    merged.push_back(from_a ? (*acc)[slot] : SlotRef{chunk, slot});
    --(from_a ? pop_a : pop_b);
  }
  acc->swap(merged);
  *acc_seen += b_seen;
}

/// out[t] = column_of(*chunks[acc[t].chunk])[acc[t].slot] for every kept
/// tuple t: one column of a stitched sample or a Combine union, gathered
/// from its input samples.
template <typename T, typename ColumnOf>
void GatherColumn(const std::vector<SlotRef>& acc,
                  const std::vector<const Sample*>& chunks,
                  ColumnOf column_of, T* out) {
  std::vector<const T*> base(chunks.size());
  for (size_t c = 0; c < chunks.size(); ++c) base[c] = column_of(*chunks[c]);
  for (size_t t = 0; t < acc.size(); ++t) {
    out[t] = base[acc[t].chunk][acc[t].slot];
  }
}

/// mask[j] = 1 iff `rule` covers slot j of `s`. The filter of `s` is a
/// sub-rule of `rule`, so only the columns `rule` instantiates and `s`
/// stores need a test.
void CoverMask(const Rule& rule, const Sample& s, std::vector<uint8_t>* mask) {
  mask->assign(s.size(), 1);
  uint8_t* m = mask->data();
  const std::vector<size_t>& stored = s.star_columns();
  for (size_t k = 0; k < stored.size(); ++k) {
    if (rule.is_star(stored[k])) continue;
    const uint32_t want = rule.value(stored[k]);
    const uint32_t* codes = s.codes(k);
    for (size_t j = 0; j < s.size(); ++j) m[j] &= codes[j] == want ? 1 : 0;
  }
}

/// Index of source column `column` among the stored columns of `s`.
size_t StoredIndex(const Sample& s, size_t column) {
  const std::vector<size_t>& stored = s.star_columns();
  return static_cast<size_t>(
      std::lower_bound(stored.begin(), stored.end(), column) - stored.begin());
}

}  // namespace

Result<std::unique_ptr<Sample>> CombineSamples(
    const Rule& rule, const std::vector<const Sample*>& sources,
    const Table& prototype, uint64_t min_sample_size) {
  if (sources.empty()) {
    return Status::NotFound("no sub-rule samples to combine");
  }
  // A tuple covered by `rule` appears in sample s with probability
  // 1/scale(s) (independent samples); the union's inclusion probability is
  // 1 - prod(1 - 1/scale_s), giving the Horvitz-Thompson scaling. This
  // reduces to the paper's N_s for a single source sample. A union with a
  // complete source (one holding *all* covered tuples, scale 1) is complete
  // itself and needs no minimum size.
  double miss_prob = 1.0;
  bool complete = false;
  for (const Sample* s : sources) {
    double p = s->scale() > 0 ? std::min(1.0, 1.0 / s->scale()) : 1.0;
    miss_prob *= (1.0 - p);
    complete = complete || s->scale() <= 1.0;
  }
  double include_prob = 1.0 - miss_prob;
  if (include_prob <= 0) {
    return Status::NotFound("combined samples have zero inclusion mass");
  }

  // The union as slot references, source by source in slot order, each
  // row id kept where it first appears.
  std::vector<SlotRef> refs;
  std::unordered_set<uint64_t> seen;
  std::vector<uint8_t> mask;
  for (size_t i = 0; i < sources.size(); ++i) {
    const Sample& s = *sources[i];
    SMARTDD_DCHECK(IsSubRuleOf(s.filter(), rule));
    CoverMask(rule, s, &mask);
    const uint64_t* ids = s.row_ids().data();
    ForEachSet(mask.data(), s.size(), [&](size_t j) {
      if (seen.insert(ids[j]).second) {
        refs.push_back(
            SlotRef{static_cast<uint32_t>(i), static_cast<uint32_t>(j)});
      }
    });
  }
  if (refs.size() < min_sample_size && !complete) {
    return Status::NotFound("combined sub-rule samples below minSS");
  }

  auto combined = std::make_unique<Sample>(rule, prototype);
  combined->Resize(refs.size());
  const std::vector<size_t>& stored = combined->star_columns();
  for (size_t k = 0; k < stored.size(); ++k) {
    const size_t column = stored[k];
    GatherColumn(
        refs, sources,
        [column](const Sample& s) { return s.codes(StoredIndex(s, column)); },
        combined->mutable_codes(k));
  }
  for (size_t m = 0; m < prototype.num_measures(); ++m) {
    GatherColumn(
        refs, sources, [m](const Sample& s) { return s.measures(m); },
        combined->mutable_measures(m));
  }
  GatherColumn(
      refs, sources, [](const Sample& s) { return s.row_ids().data(); },
      combined->mutable_row_ids());

  const double scale = complete ? 1.0 : 1.0 / include_prob;
  combined->set_scale(scale);
  combined->set_source_mass(scale * static_cast<double>(combined->size()));
  combined->set_derived(true);
  return combined;
}

SampleHandler::SampleHandler(const ScanSource& source,
                             SampleHandlerOptions options)
    : source_(&source),
      prototype_(source.MakeEmptyTable()),
      options_(options),
      kernels_(&GetScanKernels(ResolveKernelPath(KernelPref::kAuto))) {
  SMARTDD_CHECK(options_.min_sample_size <= options_.memory_capacity)
      << "minSS cannot exceed memory capacity M";
}

uint64_t SampleHandler::MemoryUsedLocked() const {
  uint64_t total = 0;
  for (const auto& s : samples_) total += s->memory_tuples();
  return total;
}

uint64_t SampleHandler::memory_used() const {
  std::shared_lock<std::shared_mutex> lock(store_mu_);
  return MemoryUsedLocked();
}

size_t SampleHandler::num_samples() const {
  std::shared_lock<std::shared_mutex> lock(store_mu_);
  return samples_.size();
}

std::optional<DisplayTree> SampleHandler::TreeCopy(uint64_t session) const {
  std::shared_lock<std::shared_mutex> lock(store_mu_);
  for (const auto& [id, tree] : trees_) {
    if (id == session) return tree;
  }
  return std::nullopt;
}

Result<SampleRequest> SampleHandler::TryFind(const Rule& rule) {
  std::shared_lock<std::shared_mutex> lock(store_mu_);
  return FindLocked(rule);
}

Result<SampleRequest> SampleHandler::FindLocked(const Rule& rule) {
  for (const auto& s : samples_) {
    if (s->filter() == rule &&
        (s->size() >= options_.min_sample_size ||
         // A sample holding *all* covered tuples (scale 1) is complete even
         // if smaller than minSS: the rule simply covers few tuples.
         s->scale() <= 1.0)) {
      SampleRequest req;
      req.table = s->Materialize();
      req.scale = s->scale();
      req.mechanism = SampleMechanism::kFind;
      finds_.fetch_add(1, std::memory_order_relaxed);
      return req;
    }
  }
  return Status::NotFound("no exact-filter sample of sufficient size");
}

Result<SampleRequest> SampleHandler::TryCombine(const Rule& rule) {
  // Exclusive: the union build reads many samples and may append the
  // materialized result, and must not interleave with a concurrent pass's
  // store swap.
  std::unique_lock<std::shared_mutex> lock(store_mu_);
  // Re-check Find under this lock: a rival session's Create pass may have
  // committed an exact-filter sample between the caller's TryFind and now,
  // and that sample must win — serving a Horvitz-Thompson union that
  // *contains* an acceptable exact-filter sample would return a different
  // (noisier) estimate than the serial run for no benefit.
  if (auto found = FindLocked(rule); found.ok()) return found;
  // Gather all samples whose filter is a (non-strict) sub-rule of `rule`:
  // every tuple covered by `rule` is covered by those filters, so each such
  // sample may contain usable tuples.
  std::vector<const Sample*> sources;
  for (const auto& s : samples_) {
    // Derived samples (materialized earlier unions) are deterministic
    // subsets of independent samples that are still in the store; letting
    // them into CombineSamples' inclusion product would double-count their
    // sources' inclusion probability and bias the scale low.
    if (s->derived()) continue;
    if (IsSubRuleOf(s->filter(), rule)) sources.push_back(s.get());
  }
  SMARTDD_ASSIGN_OR_RETURN(
      std::unique_ptr<Sample> combined,
      CombineSamples(rule, sources, prototype_, options_.min_sample_size));

  SampleRequest req;
  req.table = combined->Materialize();
  req.scale = combined->scale();
  req.mechanism = SampleMechanism::kCombine;
  combines_.fetch_add(1, std::memory_order_relaxed);

  // Keep the Horvitz-Thompson union so a repeat request for this rule is a
  // Find hit instead of another full rebuild — but only when it fits under
  // the memory cap M alongside the samples it was derived from.
  if (MemoryUsedLocked() + combined->memory_tuples() <=
      options_.memory_capacity) {
    samples_.push_back(std::move(combined));
  }
  return req;
}

void SampleHandler::PlanAllocation(const DisplayTree* tree_ptr,
                                   const Rule& extra,
                                   std::vector<Rule>* rules,
                                   std::vector<uint64_t>* capacities) const {
  rules->clear();
  capacities->clear();

  const uint64_t m = options_.memory_capacity;
  const uint64_t minss = options_.min_sample_size;

  if (tree_ptr == nullptr) {
    uint64_t cap = std::max<uint64_t>(
        minss, static_cast<uint64_t>(options_.create_capacity_fraction *
                                     static_cast<double>(m)));
    rules->push_back(extra);
    capacities->push_back(std::min(cap, m));
    return;
  }

  const DisplayTree& tree = *tree_ptr;
  const size_t n = tree.nodes.size();

  // Selectivity S(parent, child) = mass(child)/mass(parent); probabilities
  // default to uniform over leaves when unset.
  std::vector<int> parent(n);
  std::vector<double> sel(n, 0.0);
  std::vector<double> prob(n, 0.0);
  double prob_total = 0;
  size_t leaf_count = 0;
  for (size_t i = 0; i < n; ++i) {
    parent[i] = tree.nodes[i].parent;
    if (parent[i] >= 0) {
      double pm = tree.nodes[static_cast<size_t>(parent[i])].estimated_mass;
      sel[i] = pm > 0 ? tree.nodes[i].estimated_mass / pm : 0.0;
      sel[i] = std::clamp(sel[i], 0.0, 1.0);
    }
    if (tree.nodes[i].children.empty() && i != 0) {
      ++leaf_count;
      prob[i] = tree.nodes[i].expand_probability;
      prob_total += prob[i];
    }
  }
  if (prob_total <= 0 && leaf_count > 0) {
    for (size_t i = 0; i < n; ++i) {
      if (tree.nodes[i].children.empty() && i != 0) {
        prob[i] = 1.0 / static_cast<double>(leaf_count);
      }
    }
  } else if (prob_total > 0) {
    for (auto& pv : prob) pv /= prob_total;
  }

  AllocationProblem problem = MakeTreeAllocationProblem(
      parent, sel, prob, static_cast<double>(m), static_cast<double>(minss));

  // The Pareto-frontier DP (§4.1); the convex relaxation (§4.2) when the
  // problem falls outside the DP's tree-restricted model.
  auto dp = SolveAllocationDp(problem);
  const AllocationResult alloc =
      dp.ok() ? std::move(dp).value() : SolveAllocationConvex(problem);

  for (size_t i = 0; i < n; ++i) {
    if (alloc.sample_size[i] > 0) {
      rules->push_back(tree.nodes[i].rule);
      capacities->push_back(alloc.sample_size[i]);
    }
  }

  // Guarantee the requested rule a sample of at least minSS.
  bool extra_present = false;
  for (size_t i = 0; i < rules->size(); ++i) {
    if ((*rules)[i] == extra) {
      (*capacities)[i] = std::max<uint64_t>((*capacities)[i], minss);
      extra_present = true;
    }
  }
  if (!extra_present) {
    rules->push_back(extra);
    capacities->push_back(minss);
  }

  // Enforce the memory cap: shrink the largest allocations first, never
  // below minSS for the requested rule.
  uint64_t total = 0;
  for (uint64_t c : *capacities) total += c;
  while (total > m) {
    size_t largest = 0;
    for (size_t i = 1; i < capacities->size(); ++i) {
      if ((*capacities)[i] > (*capacities)[largest]) largest = i;
    }
    uint64_t reduce = std::min<uint64_t>(total - m, (*capacities)[largest]);
    if ((*rules)[largest] == extra) {
      uint64_t floor_cap = std::min<uint64_t>(minss, m);
      uint64_t room = (*capacities)[largest] > floor_cap
                          ? (*capacities)[largest] - floor_cap
                          : 0;
      reduce = std::min(reduce, room);
      if (reduce == 0) {
        // Shrink others instead.
        bool shrunk = false;
        for (size_t i = 0; i < capacities->size() && total > m; ++i) {
          if (i == largest) continue;
          uint64_t cut = std::min<uint64_t>((*capacities)[i], total - m);
          (*capacities)[i] -= cut;
          total -= cut;
          if (cut > 0) shrunk = true;
        }
        if (!shrunk) break;
        continue;
      }
    }
    (*capacities)[largest] -= reduce;
    total -= reduce;
    if (reduce == 0) break;
  }
  // Drop empty allocations.
  std::vector<Rule> rr;
  std::vector<uint64_t> cc;
  for (size_t i = 0; i < rules->size(); ++i) {
    if ((*capacities)[i] > 0) {
      rr.push_back((*rules)[i]);
      cc.push_back((*capacities)[i]);
    }
  }
  *rules = std::move(rr);
  *capacities = std::move(cc);
}

Result<std::vector<double>> SampleHandler::CreateSamples(
    const std::vector<Rule>& rules, const std::vector<uint64_t>& capacities,
    bool prefetch_pass, const Deadline& deadline) {
  SMARTDD_CHECK(rules.size() == capacities.size());
  SMARTDD_RETURN_IF_ERROR(InjectFault("sample_handler.create"));
  if (deadline.active() && deadline.expired()) {
    return Status::DeadlineExceeded(
        "sample create pass abandoned: deadline exceeded");
  }
  const size_t nrules = rules.size();

  // Chunk layout and seeds are pure functions of (row count, handler seed,
  // capacities, seed_counter_) — never of the thread count — so the
  // stitched result is bit-identical however the chunks are scheduled.
  uint64_t num_chunks = ScanSource::PlanChunks(source_->num_rows());
  // Every chunk needs full-capacity sub-reservoirs for the merge to stay an
  // exact uniform sample, so the pass transiently holds up to
  // num_chunks * sum(capacities) tuples. Keep that within a small multiple
  // of the configured cap M (a bound on capacities, not thread count, so
  // determinism is unaffected).
  constexpr uint64_t kTransientCapFactor = 8;
  uint64_t total_capacity = 0;
  for (uint64_t c : capacities) total_capacity += c;
  if (total_capacity > 0) {
    num_chunks = std::clamp<uint64_t>(
        kTransientCapFactor * options_.memory_capacity / total_capacity, 1,
        num_chunks);
  }
  const size_t parallelism = ThreadPool::EffectiveThreads(options_.num_threads);
  std::vector<uint64_t> rule_seeds;
  rule_seeds.reserve(nrules);
  for (size_t i = 0; i < nrules; ++i) {
    rule_seeds.push_back(DeriveSeed(options_.seed, ++seed_counter_));
  }

  // One builder per (chunk, rule): chunks never share mutable state, so the
  // block callback is data-race free by construction. A builder's columns
  // are reserved for the most its chunk can keep: min(capacity, chunk rows).
  struct ChunkBuilder {
    std::unique_ptr<Sample> sample;
    ReservoirSampler reservoir;
    double mass = 0;
  };
  const uint64_t n = source_->num_rows();
  std::vector<ChunkBuilder> builders;
  builders.reserve(num_chunks * nrules);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    const uint64_t chunk_rows =
        n * (c + 1) / num_chunks - n * c / num_chunks;
    for (size_t i = 0; i < nrules; ++i) {
      builders.push_back(
          ChunkBuilder{std::make_unique<Sample>(rules[i], prototype_),
                       ReservoirSampler(static_cast<size_t>(capacities[i]),
                                        DeriveSeed(rule_seeds[i], c)),
                       0.0});
      builders.back().sample->Reserve(
          static_cast<size_t>(std::min(capacities[i], chunk_rows)));
    }
  }

  // Cooperative cancellation: each chunk polls the deadline once per block;
  // the first chunk to notice expiry raises a shared flag that stops every
  // other chunk at its next block. Inert deadlines skip all of this.
  const bool has_deadline = deadline.active();
  std::atomic<bool> deadline_hit{false};

  // Each rule's reservoir is offered its covered rows in ascending row
  // order, as a row-at-a-time pass would offer them, so every draw and slot
  // is the same; the accepted rows are then written column by column.
  Status scan_status = source_->ScanBlocks(
      [&](const ScanBlock& block) {
        if (has_deadline) {
          if (deadline_hit.load(std::memory_order_relaxed)) return false;
          if (deadline.expired()) {
            deadline_hit.store(true, std::memory_order_relaxed);
            return false;
          }
        }
        uint8_t mask[kScanBlockRows];
        uint32_t scratch[kScanBlockRows];
        Hit hits[kScanBlockRows];
        ChunkBuilder* chunk_builders = &builders[block.chunk * nrules];
        for (size_t i = 0; i < nrules; ++i) {
          ChunkBuilder& b = chunk_builders[i];
          ComputeRuleMask(rules[i], block.columns, block.offset,
                          block.offset + block.num_rows, mask, *kernels_);
          // Every offer writes a hit entry; only an accepted one counts, so
          // the loop does not branch on the random acceptance.
          size_t covered = 0;
          size_t num_hits = 0;
          ForEachSet(mask, block.num_rows, [&](size_t j) {
            ++covered;
            const auto placement = b.reservoir.Offer();
            hits[num_hits] = Hit{static_cast<uint32_t>(placement.slot),
                                 static_cast<uint32_t>(j)};
            num_hits += placement.accept ? 1 : 0;
          });
          // The mass is the tuple count (measures ride along in the
          // sample). Whole-number sums below 2^53 are exact, so adding the
          // block's count at once equals adding 1.0 per row.
          b.mass += static_cast<double>(covered);
          if (num_hits == 0) continue;
          b.sample->Resize(b.reservoir.size());
          ScatterHits(block, std::span<const Hit>(hits, num_hits), *kernels_,
                      scratch, b.sample.get());
        }
        return true;
      },
      num_chunks, parallelism);
  SMARTDD_RETURN_IF_ERROR(scan_status);
  if (deadline_hit.load(std::memory_order_relaxed)) {
    // The pass was cut short: its reservoirs cover only a prefix of each
    // chunk and would be biased samples. Commit nothing.
    return Status::DeadlineExceeded(
        "sample create pass abandoned: deadline exceeded");
  }
  (prefetch_pass ? prefetch_scans_ : scans_)
      .fetch_add(1, std::memory_order_relaxed);
  creates_.fetch_add(1, std::memory_order_relaxed);

  // Stitch the per-chunk sub-reservoirs back together in chunk order, then
  // gather each kept tuple's columns once from the chunk samples.
  std::vector<double> masses;
  std::vector<std::unique_ptr<Sample>> created;
  std::vector<SlotRef> acc, merged;
  std::vector<uint32_t> remaining_a, remaining_b;
  std::vector<const Sample*> chunks(num_chunks);
  for (size_t i = 0; i < nrules; ++i) {
    Rng merge_rng(DeriveSeed(rule_seeds[i], kMergeStream));
    acc.clear();
    uint64_t seen = 0;
    double mass = 0;
    for (uint64_t c = 0; c < num_chunks; ++c) {
      const ChunkBuilder& cb = builders[c * nrules + i];
      mass += cb.mass;
      StitchChunk(&acc, &seen, static_cast<uint32_t>(c), cb.sample->size(),
                  cb.reservoir.seen(), capacities[i], merge_rng, remaining_a,
                  remaining_b, merged);
      chunks[c] = cb.sample.get();
    }
    auto sample = std::make_unique<Sample>(rules[i], prototype_);
    sample->Resize(acc.size());
    for (size_t k = 0; k < sample->star_columns().size(); ++k) {
      GatherColumn(
          acc, chunks, [k](const Sample& s) { return s.codes(k); },
          sample->mutable_codes(k));
    }
    for (size_t m = 0; m < prototype_.num_measures(); ++m) {
      GatherColumn(
          acc, chunks, [m](const Sample& s) { return s.measures(m); },
          sample->mutable_measures(m));
    }
    GatherColumn(
        acc, chunks, [](const Sample& s) { return s.row_ids().data(); },
        sample->mutable_row_ids());
    masses.push_back(mass);
    const size_t size = sample->size();
    sample->set_source_mass(mass);
    sample->set_scale(size > 0 ? mass / static_cast<double>(size) : 1.0);
    created.push_back(std::move(sample));
  }

  // Swap the store: this pass's samples supersede any same-filter samples,
  // and other sessions' older samples are retained newest-pass-first while
  // they still fit under the cap M (single-session behaviour is unchanged —
  // its allocation covers every displayed rule, so leftovers are rare).
  {
    std::unique_lock<std::shared_mutex> lock(store_mu_);
    std::vector<std::unique_ptr<Sample>> store;
    store.reserve(created.size() + samples_.size());
    uint64_t used = 0;
    for (auto& s : created) {
      used += s->memory_tuples();
      store.push_back(std::move(s));
    }
    for (auto& old : samples_) {
      bool superseded = false;
      for (size_t i = 0; i < nrules && !superseded; ++i) {
        superseded = old->filter() == rules[i];
      }
      if (superseded) continue;
      if (used + old->memory_tuples() > options_.memory_capacity) continue;
      used += old->memory_tuples();
      store.push_back(std::move(old));
    }
    samples_ = std::move(store);
    SMARTDD_DCHECK(MemoryUsedLocked() <= options_.memory_capacity);
  }
  return masses;
}

bool SampleHandler::AcquireCreateFlight() {
  std::unique_lock<std::mutex> flight(create_mu_);
  if (!create_in_flight_) {
    create_in_flight_ = true;
    return true;
  }
  const uint64_t epoch = create_epoch_;
  create_cv_.wait(flight, [&]() {
    return create_epoch_ != epoch || !create_in_flight_;
  });
  if (!create_in_flight_) {
    create_in_flight_ = true;
    return true;
  }
  return false;  // a pass completed while we waited; re-check the store
}

void SampleHandler::ReleaseCreateFlight() {
  {
    std::lock_guard<std::mutex> flight(create_mu_);
    create_in_flight_ = false;
    ++create_epoch_;
  }
  create_cv_.notify_all();
}

Result<SampleRequest> SampleHandler::GetSampleFor(const Rule& rule,
                                                  uint64_t session,
                                                  const Deadline& deadline) {
  for (;;) {
    auto find = TryFind(rule);
    if (find.ok()) return find;

    auto combine = TryCombine(rule);
    if (combine.ok()) return combine;

    // Single-flight Create: at most one pass over the source runs at a
    // time. Arriving while another session's pass is in flight, wait for
    // it and re-check Find/Combine — two sessions requesting the same
    // rule's sample trigger one scan, not two.
    if (AcquireCreateFlight()) break;
  }

  // Double-check under the flight: a pass that completed between our last
  // store check and the acquisition may already hold this rule's sample
  // (its store swap happens-before its flight release).
  {
    auto find = TryFind(rule);
    if (find.ok()) {
      ReleaseCreateFlight();
      return find;
    }
    auto combine = TryCombine(rule);
    if (combine.ok()) {
      ReleaseCreateFlight();
      return combine;
    }
  }

  std::vector<Rule> rules;
  std::vector<uint64_t> capacities;
  std::optional<DisplayTree> tree = TreeCopy(session);
  PlanAllocation(tree ? &*tree : nullptr, rule, &rules, &capacities);
  auto masses =
      CreateSamples(rules, capacities, /*prefetch_pass=*/false, deadline);

  // Serve the fresh sample *before* releasing the flight: once released,
  // another session's pass may swap the store and evict it again, and this
  // request must not bounce.
  Result<SampleRequest> again = masses.ok()
                                    ? TryFind(rule)
                                    : Result<SampleRequest>(masses.status());
  ReleaseCreateFlight();
  if (again.ok()) {
    again.value().mechanism = SampleMechanism::kCreate;
    finds_.fetch_sub(1, std::memory_order_relaxed);  // attribute to Create
    return again;
  }
  return again.status();
}

void SampleHandler::SetDisplayedTree(uint64_t session, DisplayTree tree) {
  std::unique_lock<std::shared_mutex> lock(store_mu_);
  for (auto& [id, t] : trees_) {
    if (id == session) {
      t = std::move(tree);
      return;
    }
  }
  trees_.emplace_back(session, std::move(tree));
}

void SampleHandler::DropSession(uint64_t session) {
  std::unique_lock<std::shared_mutex> lock(store_mu_);
  for (size_t i = 0; i < trees_.size(); ++i) {
    if (trees_[i].first == session) {
      trees_.erase(trees_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

Status SampleHandler::Prefetch(uint64_t session) {
  std::optional<DisplayTree> tree_copy = TreeCopy(session);
  if (!tree_copy) return Status::OK();
  // Plan for the most likely leaf (allocation covers all of them anyway).
  const DisplayTree& tree = *tree_copy;
  int best_leaf = -1;
  double best_p = -1;
  for (size_t i = 1; i < tree.nodes.size(); ++i) {
    if (!tree.nodes[i].children.empty()) continue;
    double pv = tree.nodes[i].expand_probability;
    if (pv > best_p) {
      best_p = pv;
      best_leaf = static_cast<int>(i);
    }
  }
  Rule target = best_leaf >= 0 ? tree.nodes[static_cast<size_t>(best_leaf)].rule
                               : tree.nodes[0].rule;
  std::vector<Rule> rules;
  std::vector<uint64_t> capacities;
  PlanAllocation(&tree, target, &rules, &capacities);
  // Prefetch passes take the same single-flight as foreground Creates;
  // waiting out a completed pass still runs ours (the tree may differ).
  while (!AcquireCreateFlight()) {
  }
  auto masses = CreateSamples(rules, capacities, /*prefetch_pass=*/true);
  ReleaseCreateFlight();
  return masses.ok() ? Status::OK() : masses.status();
}

Result<std::vector<double>> SampleHandler::ExactMasses(
    const std::vector<Rule>& rules, std::optional<size_t> measure) {
  if (measure && *measure >= source_->num_measures()) {
    return Status::InvalidArgument("measure index out of range");
  }
  if (rules.empty()) return std::vector<double>{};  // don't pay a pass
  const size_t nrules = rules.size();
  const uint64_t num_chunks = ScanSource::PlanChunks(source_->num_rows());
  const size_t parallelism = ThreadPool::EffectiveThreads(options_.num_threads);

  // Per-chunk accumulators, padded to cache-line multiples so chunks do not
  // false-share; merged in chunk order for thread-count-independent sums.
  // Within a chunk each rule adds its covered rows' masses in ascending row
  // order.
  const size_t stride = ((nrules + 7) / 8) * 8;
  std::vector<double> chunk_masses(num_chunks * stride, 0.0);
  Status s = source_->ScanBlocks(
      [&](const ScanBlock& block) {
        uint8_t mask[kScanBlockRows];
        double* acc = &chunk_masses[block.chunk * stride];
        const double* m =
            measure ? block.measures[*measure] + block.offset : nullptr;
        for (size_t i = 0; i < nrules; ++i) {
          ComputeRuleMask(rules[i], block.columns, block.offset,
                          block.offset + block.num_rows, mask, *kernels_);
          if (m != nullptr) {
            ForEachSet(mask, block.num_rows, [&](size_t j) { acc[i] += m[j]; });
          } else {
            // Whole-number sums below 2^53 are exact, so adding the block's
            // count at once equals adding 1.0 per row.
            size_t count = 0;
            for (size_t j = 0; j < block.num_rows; ++j) count += mask[j] & 1;
            acc[i] += static_cast<double>(count);
          }
        }
        return true;
      },
      num_chunks, parallelism);
  SMARTDD_RETURN_IF_ERROR(s);
  scans_.fetch_add(1, std::memory_order_relaxed);

  std::vector<double> masses(nrules, 0.0);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    for (size_t i = 0; i < nrules; ++i) {
      masses[i] += chunk_masses[c * stride + i];
    }
  }
  return masses;
}

}  // namespace smartdd
