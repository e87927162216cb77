// Registry semantics: identity, instrument arithmetic, bounds helpers,
// and snapshot consistency under concurrent writers.
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace epto::obs {
namespace {

TEST(CounterTest, IncAndSet) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.set(7);  // mirror pattern: publish an externally maintained total
  EXPECT_EQ(c.value(), 7u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(HistogramTest, BucketsAreInclusiveUpperEdges) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // bucket 0 (<= 1)
  h.observe(1.0);  // bucket 0 (inclusive edge)
  h.observe(1.5);  // bucket 1
  h.observe(4.0);  // bucket 2
  h.observe(100);  // +Inf overflow
  const auto counts = h.bucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
}

TEST(RegistryTest, SameIdentityReturnsSameInstrument) {
  Registry registry;
  Counter& a = registry.counter("epto_x_total");
  Counter& b = registry.counter("epto_x_total");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(registry.instrumentCount(), 1u);
}

TEST(RegistryTest, LabelsAreIdentity) {
  Registry registry;
  Counter& a = registry.counter("epto_x_total", {{"node", "0"}});
  Counter& b = registry.counter("epto_x_total", {{"node", "1"}});
  EXPECT_NE(&a, &b);
  EXPECT_EQ(registry.instrumentCount(), 2u);
}

TEST(RegistryTest, HistogramBoundsFixedAtRegistration) {
  Registry registry;
  Histogram& h = registry.histogram("epto_h", {}, {1.0, 10.0});
  // Second request ignores the new bounds and returns the same cell.
  Histogram& again = registry.histogram("epto_h", {}, {99.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 10.0}));
  // Empty bounds mean defaultBounds().
  Histogram& dflt = registry.histogram("epto_dflt");
  EXPECT_EQ(dflt.bounds(), Registry::defaultBounds());
}

TEST(RegistryTest, SnapshotPreservesRegistrationOrder) {
  Registry registry;
  registry.counter("epto_a_total").inc(3);
  registry.gauge("epto_b").set(-2);
  registry.histogram("epto_c", {}, {1.0}).observe(0.5);
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "epto_a_total");
  EXPECT_EQ(snap[0].kind, Kind::Counter);
  EXPECT_EQ(snap[0].counter, 3u);
  EXPECT_EQ(snap[1].name, "epto_b");
  EXPECT_EQ(snap[1].kind, Kind::Gauge);
  EXPECT_EQ(snap[1].gauge, -2);
  EXPECT_EQ(snap[2].name, "epto_c");
  EXPECT_EQ(snap[2].kind, Kind::Histogram);
  ASSERT_EQ(snap[2].buckets.size(), 2u);
  EXPECT_EQ(snap[2].buckets[0], 1u);
  EXPECT_EQ(snap[2].count, 1u);
}

TEST(RegistryTest, ExponentialBounds) {
  const auto bounds = Registry::exponentialBounds(1.0, 2.0, 4);
  EXPECT_EQ(bounds, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  const auto dflt = Registry::defaultBounds();
  ASSERT_FALSE(dflt.empty());
  EXPECT_DOUBLE_EQ(dflt.front(), 1.0);
  EXPECT_DOUBLE_EQ(dflt.back(), 4096.0);
}

// Many writer threads against one registry; snapshots taken mid-flight
// must be internally consistent and the final totals exact. This is the
// UdpCluster scrape-thread contract.
TEST(RegistryTest, SnapshotUnderConcurrentWriters) {
  Registry registry;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIncrements = 20000;
  Counter& counter = registry.counter("epto_ops_total");
  Histogram& hist = registry.histogram("epto_vals", {}, {0.5});

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      while (!go.load()) {
      }
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        counter.inc();
        hist.observe(1.0);
      }
    });
  }
  go = true;
  // Scrape concurrently: totals must be monotone and histogram count must
  // never exceed its bucket sum's plausible range.
  std::uint64_t lastSeen = 0;
  for (int s = 0; s < 50; ++s) {
    const Snapshot snap = registry.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_GE(snap[0].counter, lastSeen);
    lastSeen = snap[0].counter;
  }
  for (auto& w : writers) w.join();

  EXPECT_EQ(counter.value(), kThreads * kIncrements);
  EXPECT_EQ(hist.count(), kThreads * kIncrements);
  const auto counts = hist.bucketCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[1], kThreads * kIncrements);  // all in +Inf (1.0 > 0.5)
  EXPECT_DOUBLE_EQ(hist.sum(), static_cast<double>(kThreads * kIncrements));
}

}  // namespace
}  // namespace epto::obs
