// Latency decomposition at the sim level: the three phases recorded for
// every ordered delivery must sum exactly to the end-to-end latency, and
// the histograms must surface in ExperimentResult::metrics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/latency.h"
#include "util/mutex.h"
#include "workload/cluster.h"

namespace epto::workload {
namespace {

ExperimentConfig tinyConfig() {
  ExperimentConfig config;
  config.systemSize = 40;
  config.broadcastRounds = 8;
  config.seed = 5;
  return config;
}

TEST(LatencyDecomposition, PhasesSumExactlyToEndToEndPerDelivery) {
  SimCluster cluster(tinyConfig());

  struct Seen {
    ProcessId node;
    EventId id;
    obs::LatencySample sample;
  };
  util::Mutex mutex;
  std::vector<Seen> samples;
  cluster.latencyRecorder().setHook(
      [&](ProcessId node, const EventId& id, const obs::LatencySample& sample) {
        const util::MutexLock lock(mutex);
        samples.push_back(Seen{node, id, sample});
      });

  cluster.run();
  const auto result = cluster.result();
  ASSERT_TRUE(result.report.allPropertiesHold());
  ASSERT_GT(samples.size(), 0u);

  // One sample per ordered delivery, cluster-wide.
  EXPECT_EQ(samples.size(), result.report.deliveries);
  EXPECT_EQ(cluster.latencyRecorder().observed(), result.report.deliveries);

  for (const Seen& seen : samples) {
    // The construction guarantee: no residue, no negative phase.
    EXPECT_EQ(seen.sample.dissemination + seen.sample.stabilityWait +
                  seen.sample.orderingWait,
              seen.sample.endToEnd)
        << "node " << seen.node << " event " << seen.id.source << ":"
        << seen.id.sequence;
  }

  // The stability wait dominates on a healthy network: EpTO pays the TTL
  // horizon (Alg. 2) on every delivery, while dissemination to the first
  // copy takes O(log n) rounds.
  std::uint64_t totalStability = 0;
  std::uint64_t totalEndToEnd = 0;
  for (const Seen& seen : samples) {
    totalStability += seen.sample.stabilityWait;
    totalEndToEnd += seen.sample.endToEnd;
  }
  EXPECT_GT(totalStability * 2, totalEndToEnd);
}

TEST(LatencyDecomposition, HistogramsSurfaceInExperimentMetrics) {
  auto config = tinyConfig();
  const auto result = runExperiment(config);
  ASSERT_TRUE(result.report.allPropertiesHold());

  const std::vector<std::string> wanted{
      "epto_latency_end_to_end", "epto_latency_dissemination",
      "epto_latency_stability_wait", "epto_latency_ordering_wait"};
  std::uint64_t endToEndCount = 0;
  std::size_t found = 0;
  for (const auto& sample : result.metrics) {
    for (const auto& name : wanted) {
      if (sample.name != name) continue;
      ++found;
      EXPECT_EQ(sample.kind, obs::Kind::Histogram) << name;
      EXPECT_EQ(sample.count, result.report.deliveries) << name;
      if (name == "epto_latency_end_to_end") endToEndCount = sample.count;
    }
  }
  EXPECT_EQ(found, wanted.size());
  EXPECT_GT(endToEndCount, 0u);
}

}  // namespace
}  // namespace epto::workload
