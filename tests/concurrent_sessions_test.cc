// Engine/session split: N sessions exploring one shared ExplorationEngine
// concurrently must behave exactly like the same interaction scripts run
// serially. Exact-mode (in-memory) drill-downs are deterministic pure reads
// with chunk-merged parallel passes, so per-session display trees are
// byte-identical to the serial run for every thread count and session
// interleaving. Sampling-mode sessions share the handler's locked store;
// there the suite checks safety invariants (single-flight Create, valid
// estimates, exact refresh) rather than byte-identity, since estimates
// legitimately depend on which samples are resident.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "data/synth.h"
#include "explore/engine.h"
#include "explore/session.h"
#include "rules/rule_ops.h"
#include "storage/scan_source.h"
#include "weights/standard_weights.h"

namespace smartdd {
namespace {

/// Full-precision fingerprint of a session's display tree: node topology,
/// rule values, and %.17g-formatted masses/weights, so two trees compare
/// equal iff they are bit-identical.
std::string Fingerprint(const ExplorationSession& session) {
  std::string out;
  char buf[128];
  for (int id : session.DisplayOrder()) {
    const ExplorationNode& n = session.node(id);
    std::snprintf(buf, sizeof(buf), "%d:%d:%d[", id, n.parent, n.depth);
    out += buf;
    for (uint32_t v : n.rule.values()) {
      std::snprintf(buf, sizeof(buf), "%u,", v);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "]w=%.17g m=%.17g mm=%.17g e=%d\n",
                  n.weight, n.mass, n.marginal_mass, n.exact ? 1 : 0);
    out += buf;
  }
  return out;
}

/// One of a few deterministic interaction scripts, selected by `variant`,
/// so concurrent sessions do *different* work against the shared engine.
void RunScript(ExplorationSession& session, int variant) {
  auto first = session.Expand(session.root());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->empty());
  switch (variant % 4) {
    case 0: {
      // Drill into the first child, then roll it up and drill the last.
      auto second = session.Expand((*first)[0]);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      ASSERT_TRUE(session.Collapse((*first)[0]).ok());
      auto third = session.Expand((*first)[first->size() - 1]);
      ASSERT_TRUE(third.ok()) << third.status().ToString();
      break;
    }
    case 1: {
      // Star drill-down on column 1 of the root, then expand a child.
      auto stars = session.ExpandStar(session.root(), 1);
      ASSERT_TRUE(stars.ok()) << stars.status().ToString();
      if (!stars->empty()) {
        auto deeper = session.Expand((*stars)[0]);
        ASSERT_TRUE(deeper.ok()) << deeper.status().ToString();
      }
      break;
    }
    case 2: {
      // Two-level drill, then re-expand the root (collapse + redo).
      auto second = session.Expand((*first)[0]);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      auto redo = session.Expand(session.root());
      ASSERT_TRUE(redo.ok()) << redo.status().ToString();
      break;
    }
    default: {
      // Deep chain along the first child.
      int node = (*first)[0];
      for (int depth = 0; depth < 2; ++depth) {
        auto next = session.Expand(node);
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (next->empty()) break;
        node = (*next)[0];
      }
      break;
    }
  }
}

Table MakeTable() {
  SynthSpec spec;
  spec.rows = 30000;
  spec.cardinalities = {6, 5, 4, 3};
  spec.zipf = {1.1, 0.7, 1.3, 0.4};
  spec.seed = 404;
  return GenerateSyntheticTable(spec);
}

TEST(ConcurrentSessionsTest, SessionIsMoveOnly) {
  static_assert(!std::is_copy_constructible_v<ExplorationSession>);
  static_assert(!std::is_copy_assignable_v<ExplorationSession>);
  static_assert(std::is_move_constructible_v<ExplorationSession>);
  static_assert(std::is_move_assignable_v<ExplorationSession>);

  Table table = MakeTable();
  SizeWeight weight;
  ExplorationEngine engine(table, weight);
  ExplorationSession a = *engine.NewSession();
  ASSERT_TRUE(a.Expand(a.root()).ok());
  std::string before = Fingerprint(a);
  ExplorationSession b = std::move(a);  // transfer, not alias
  EXPECT_EQ(Fingerprint(b), before);
  EXPECT_TRUE(b.Expand(b.root()).ok());  // moved-to session stays usable
  EXPECT_EQ(engine.num_sessions(), 1u);
}

TEST(ConcurrentSessionsTest, SixteenSessionsMatchSerialRunsBitIdentically) {
  Table table = MakeTable();
  SizeWeight weight;
  constexpr int kSessions = 16;

  // Serial baselines, one per script variant, on a dedicated engine.
  std::vector<std::string> baseline(kSessions);
  {
    ExplorationEngine engine(table, weight);
    for (int i = 0; i < kSessions; ++i) {
      ExplorationSession session = *engine.NewSession();
      RunScript(session, i);
      if (::testing::Test::HasFatalFailure()) return;
      baseline[i] = Fingerprint(session);
    }
  }

  // The same scripts, all 16 sessions concurrently on one shared engine.
  ExplorationEngine engine(table, weight);
  std::vector<std::string> concurrent(kSessions);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i]() {
        ExplorationSession session = *engine.NewSession();
        RunScript(session, i);
        concurrent[i] = Fingerprint(session);
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(engine.num_sessions(), 0u);
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(concurrent[i], baseline[i]) << "session " << i << " diverged";
  }
}

TEST(ConcurrentSessionsTest, ThreadKnobDoesNotChangeConcurrentResults) {
  // The chunk-merge determinism contract extends through the engine: the
  // same script gives byte-identical trees for num_threads 1 vs 8, even
  // while other sessions hammer the shared pool.
  Table table = MakeTable();
  SizeWeight weight;
  ExplorationEngine engine(table, weight);

  std::string fingerprints[2];
  std::vector<std::thread> threads;
  for (int v = 0; v < 2; ++v) {
    threads.emplace_back([&, v]() {
      SessionOptions options;
      options.num_threads = v == 0 ? 1 : 8;
      ExplorationSession session = *engine.NewSession(options);
      RunScript(session, 0);
      fingerprints[v] = Fingerprint(session);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

class ConcurrentSamplingTest : public ::testing::Test {
 protected:
  ConcurrentSamplingTest() : table_(MakeTable()), source_(table_) {}

  EngineOptions SamplingOptions() {
    EngineOptions o;
    o.use_sampling = true;
    o.sampler.memory_capacity = 12000;
    o.sampler.min_sample_size = 3000;
    return o;
  }

  Table table_;
  MemoryScanSource source_;
  SizeWeight weight_;
};

TEST_F(ConcurrentSamplingTest, SingleFlightCreateDeduplicatesScans) {
  ExplorationEngine engine(source_, weight_, SamplingOptions());
  SampleHandler* handler = engine.sampler();
  ASSERT_NE(handler, nullptr);

  // Eight threads request the same (missing) rule's sample at once: the
  // single-flight contract says exactly one Create pass runs; everyone
  // else is served from the store it fills.
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&]() {
      auto req = handler->GetSampleFor(Rule::Trivial(4));
      EXPECT_TRUE(req.ok()) << req.status().ToString();
      EXPECT_GE(req->table.num_rows(), 3000u);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(handler->creates(), 1u);
  EXPECT_EQ(handler->scans_performed(), 1u);
}

TEST_F(ConcurrentSamplingTest, ConcurrentSamplingSessionsStaySane) {
  ExplorationEngine engine(source_, weight_, SamplingOptions());
  constexpr int kSessions = 6;
  std::vector<std::thread> threads;
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i]() {
      SessionOptions options;
      options.prefetch = i % 2 == 0;
      ExplorationSession session = *engine.NewSession(options);
      auto children = session.Expand(session.root());
      ASSERT_TRUE(children.ok()) << children.status().ToString();
      ASSERT_FALSE(children->empty());
      auto deeper = session.Expand((*children)[0]);
      ASSERT_TRUE(deeper.ok()) << deeper.status().ToString();
      EXPECT_TRUE(session.WaitForPrefetch().ok());
      // Exact refresh must converge every displayed mass to the truth.
      ASSERT_TRUE(session.RefreshExactCounts().ok());
      TableView full(table_);
      for (int id : session.DisplayOrder()) {
        const ExplorationNode& node = session.node(id);
        EXPECT_TRUE(node.exact);
        EXPECT_DOUBLE_EQ(node.mass, RuleMass(full, node.rule));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(engine.num_sessions(), 0u);
}

TEST_F(ConcurrentSamplingTest, PerSessionTreesDriveIndependentPrefetch) {
  // Two sessions with different displayed trees: each session's prefetch
  // must plan from its *own* tree, and a prefetch pass for one session
  // must not wipe out the other's ability to Find its displayed rules.
  ExplorationEngine engine(source_, weight_, SamplingOptions());
  SessionOptions options;
  options.prefetch = true;
  ExplorationSession a = *engine.NewSession(options);
  ExplorationSession b = *engine.NewSession(options);

  auto a_children = a.Expand(a.root());
  ASSERT_TRUE(a_children.ok()) << a_children.status().ToString();
  auto b_children = b.ExpandStar(b.root(), 2);
  ASSERT_TRUE(b_children.ok()) << b_children.status().ToString();
  // Both background prefetch passes must have finished cleanly.
  EXPECT_TRUE(a.WaitForPrefetch().ok());
  EXPECT_TRUE(b.WaitForPrefetch().ok());

  // Both sessions drill further; their samples come from trees that were
  // prefetched per session, so no expansion may fail.
  auto a_deep = a.Expand((*a_children)[0]);
  EXPECT_TRUE(a_deep.ok()) << a_deep.status().ToString();
  if (!b_children->empty()) {
    auto b_deep = b.Expand((*b_children)[0]);
    EXPECT_TRUE(b_deep.ok()) << b_deep.status().ToString();
  }
}

}  // namespace
}  // namespace smartdd
