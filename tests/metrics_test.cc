// common/metrics tests: counter/gauge/histogram correctness under
// concurrent writers (the TSan-guarded contract — every update is one
// relaxed atomic RMW), Prometheus text rendering, and registry identity
// (same name -> same instrument), and the build-info gauge's kernel label.

#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "core/scan_kernels.h"
#include "tests/test_util.h"

namespace smartdd {
namespace {

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(GaugeTest, ConcurrentAddSubBalancesToZero) {
  Gauge gauge;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge]() {
      for (int i = 0; i < 50000; ++i) {
        gauge.Add(3);
        gauge.Sub(3);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(gauge.value(), 0);
  gauge.Set(-7);
  EXPECT_EQ(gauge.value(), -7);
}

TEST(HistogramTest, BucketPlacementFollowsPrometheusSemantics) {
  Histogram h({1.0, 2.0, 5.0});
  h.Observe(0.5);   // <= 1
  h.Observe(1.0);   // <= 1 (bounds are inclusive)
  h.Observe(1.5);   // <= 2
  h.Observe(5.0);   // <= 5
  h.Observe(100.0); // +Inf only
  EXPECT_EQ(h.CumulativeCount(0), 2u);
  EXPECT_EQ(h.CumulativeCount(1), 3u);
  EXPECT_EQ(h.CumulativeCount(2), 4u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 100.0);
}

TEST(HistogramTest, ConcurrentObservationsConserveCountAndSum) {
  Histogram h(Histogram::LatencySeconds());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(1e-4 * static_cast<double>(1 + ((t + i) % 7)));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads * kPerThread));
  // Every observation lands below 1ms on this ladder except none; the last
  // finite bucket must therefore hold everything.
  EXPECT_EQ(h.CumulativeCount(h.bounds().size() - 1), h.count());
  EXPECT_GT(h.sum(), 0.0);
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test_total", "help one");
  Counter& b = registry.GetCounter("test_total", "ignored (first wins)");
  EXPECT_EQ(&a, &b);
  a.Inc(41);
  b.Inc();
  EXPECT_EQ(a.value(), 42u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationIsSingleInstrument) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry]() {
      for (int i = 0; i < 2000; ++i) {
        registry.GetCounter("racey_total", "shared").Inc();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.GetCounter("racey_total", "shared").value(),
            static_cast<uint64_t>(kThreads) * 2000u);
}

TEST(MetricsRegistryTest, RenderPrometheusFormat) {
  MetricsRegistry registry;
  registry.GetCounter("zz_requests_total", "Requests served").Inc(3);
  registry.GetGauge("aa_depth", "Queue depth").Set(-2);
  Histogram& h =
      registry.GetHistogram("mm_latency_seconds", "Latency", {0.1, 1.0});
  h.Observe(0.05);
  h.Observe(0.5);
  h.Observe(10.0);

  std::string text = registry.RenderPrometheus();
  // Families are sorted by name: aa_, mm_, zz_.
  size_t aa = text.find("aa_depth");
  size_t mm = text.find("mm_latency_seconds");
  size_t zz = text.find("zz_requests_total");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(mm, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, mm);
  EXPECT_LT(mm, zz);

  EXPECT_NE(text.find("# HELP aa_depth Queue depth\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE aa_depth gauge\naa_depth -2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE zz_requests_total counter\n"
                      "zz_requests_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("mm_latency_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("mm_latency_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mm_latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("mm_latency_seconds_count 3\n"), std::string::npos);
}

TEST(MetricsRegistryTest, DefaultRegistryIsAProcessSingleton) {
  EXPECT_EQ(&MetricsRegistry::Default(), &MetricsRegistry::Default());
}

// smartdd_build_info labels the path the scan kernels resolve to under
// each SMARTDD_KERNEL value, so /metrics tells hosts on different paths
// apart.
TEST(BuildInfoTest, KernelLabelIsTheResolvedPath) {
  for (const char* kernel : testing::AvailableKernels()) {
    testing::ScopedKernel scoped(kernel);
    const std::string resolved = KernelPathName(ResolveKernelPath());
    EXPECT_EQ(resolved, kernel);
    EXPECT_EQ(GetBuildInfo().kernel, resolved);
    EXPECT_NE(BuildInfoLine().find(" kernel=" + resolved), std::string::npos);
    RegisterBuildInfoMetric();
    const std::string text = MetricsRegistry::Default().RenderPrometheus();
    EXPECT_NE(text.find("kernel=\"" + resolved + "\"} 1\n"),
              std::string::npos)
        << kernel;
  }
}

TEST(HistogramTest, LatencyLadderIsStrictlyIncreasing) {
  std::vector<double> bounds = Histogram::LatencySeconds();
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

}  // namespace
}  // namespace smartdd
