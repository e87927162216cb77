// runExperiments (parallel sweep driver): the job count must never
// change results — only wall-clock time. Each experiment owns all its
// mutable state, so running the same config list with 1 worker and with
// many workers must produce field-identical results in submission order,
// and a worker's exception must surface on the calling thread.
#include <gtest/gtest.h>

#include <vector>

#include "obs/exporters.h"
#include "util/ensure.h"
#include "workload/sweep.h"

namespace epto::workload {
namespace {

ExperimentConfig smallConfig(std::uint64_t seed, std::size_t systemSize) {
  ExperimentConfig config;
  config.systemSize = systemSize;
  config.broadcastProbability = 0.05;
  config.broadcastRounds = 6;
  config.seed = seed;
  return config;
}

void expectSameResult(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.report.deliveries, b.report.deliveries);
  EXPECT_EQ(a.report.eventsMeasured, b.report.eventsMeasured);
  EXPECT_EQ(a.report.holes, b.report.holes);
  EXPECT_EQ(a.report.orderViolations, b.report.orderViolations);
  EXPECT_EQ(a.report.integrityViolations, b.report.integrityViolations);
  EXPECT_EQ(a.report.validityViolations, b.report.validityViolations);
  EXPECT_EQ(a.network.sent, b.network.sent);
  EXPECT_EQ(a.fanoutUsed, b.fanoutUsed);
  EXPECT_EQ(a.ttlUsed, b.ttlUsed);
  EXPECT_EQ(a.roundsExecuted, b.roundsExecuted);
  EXPECT_EQ(a.eventsRelayed, b.eventsRelayed);
  EXPECT_EQ(a.maxBallSize, b.maxBallSize);
  EXPECT_EQ(a.simulatedTicks, b.simulatedTicks);
  EXPECT_EQ(a.finalSystemSize, b.finalSystemSize);
  EXPECT_EQ(a.report.delays.total(), b.report.delays.total());
  EXPECT_EQ(a.report.delays.percentile(0.50), b.report.delays.percentile(0.50));
  EXPECT_EQ(a.report.delays.percentile(0.99), b.report.delays.percentile(0.99));
  // Every exported metric too: a run's registry must describe that run
  // alone, not whatever else shared its process.
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_EQ(obs::sampleJson(a.metrics[i]), obs::sampleJson(b.metrics[i]));
  }
}

TEST(SweepTest, JobCountDoesNotChangeResults) {
  std::vector<ExperimentConfig> configs;
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 99ull}) {
    configs.push_back(smallConfig(seed, 40 + 10 * (seed % 4)));
  }

  const auto sequential = runExperiments(configs, 1);
  const auto parallel = runExperiments(configs, 4);

  ASSERT_EQ(sequential.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    expectSameResult(sequential[i], parallel[i]);
  }
}

TEST(SweepTest, ResultsArriveInSubmissionOrder) {
  // Distinct system sizes make the pairing observable: results[i] must
  // belong to configs[i] even when workers finish out of order.
  std::vector<ExperimentConfig> configs;
  const std::vector<std::size_t> sizes{30, 80, 45, 60, 35, 70};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    configs.push_back(smallConfig(/*seed=*/100 + i, sizes[i]));
  }
  const auto results = runExperiments(configs, 3);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(results[i].finalSystemSize, sizes[i]) << "result " << i;
  }
}

TEST(SweepTest, MoreJobsThanConfigsIsFine) {
  std::vector<ExperimentConfig> configs{smallConfig(5, 40), smallConfig(6, 40)};
  const auto results = runExperiments(configs, 16);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].report.deliveries, 0u);
  EXPECT_GT(results[1].report.deliveries, 0u);
}

TEST(SweepTest, WorkerExceptionPropagatesToCaller) {
  std::vector<ExperimentConfig> configs{smallConfig(1, 40), smallConfig(2, 40)};
  configs[1].fanoutOverride = 0;  // violates the fanout >= 1 contract
  EXPECT_THROW({ auto results = runExperiments(configs, 2); (void)results; },
               util::ContractViolation);
  EXPECT_THROW({ auto results = runExperiments(configs, 1); (void)results; },
               util::ContractViolation);
}

}  // namespace
}  // namespace epto::workload
