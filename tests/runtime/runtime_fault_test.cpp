// Fault injection in the UDP runtime: crash/restart with graceful
// rejoin, partitions with a scheduled heal, GC-pause stalls, burst loss,
// delay spikes, and the fault-aware quiescence bookkeeping — all over
// real loopback sockets.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_plan.h"
#include "runtime/udp_cluster.h"
#include "util/ensure.h"

namespace epto::runtime {
namespace {

using namespace std::chrono_literals;

UdpClusterOptions fastOptions(std::size_t nodes, const fault::FaultPlan& plan) {
  UdpClusterOptions options;
  options.nodeCount = nodes;
  options.roundPeriod = 3ms;
  options.seed = 7;
  options.faultPlan = &plan;
  return options;
}

/// Spin until node `index` leaves its crash window (bounded).
void waitUntilUp(const UdpCluster& cluster, std::size_t index) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (cluster.nodeDown(index)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "node never rejoined";
    std::this_thread::sleep_for(1ms);
  }
}

TEST(UdpFault, PermanentlyCrashedNodeOwesNothing) {
  fault::FaultPlan plan;
  plan.crash(10'000, 3);  // down 10ms in, forever

  UdpCluster cluster(fastOptions(8, plan));
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) {
    if (i != 3) cluster.broadcast(i);
  }
  std::this_thread::sleep_for(20ms);  // let the crash window engage
  cluster.broadcast(0);               // born after the crash
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  EXPECT_TRUE(cluster.nodeDown(3));
  cluster.stop();

  ASSERT_NE(cluster.faultController(), nullptr);
  const fault::FaultStats stats = cluster.faultController()->stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.restarts, 0u);
  const auto report = cluster.report();
  EXPECT_EQ(report.orderViolations, 0u);
  EXPECT_EQ(report.integrityViolations, 0u);
  // Agreement/validity judged over the correct processes only.
  EXPECT_TRUE(report.allPropertiesHold());
}

TEST(UdpFault, CrashRestartOverRealSockets) {
  fault::FaultPlan plan;
  plan.crash(15'000, 1, /*restartAt=*/80'000);

  UdpCluster cluster(fastOptions(5, plan));
  cluster.start();
  for (std::size_t i = 0; i < 5; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();

  waitUntilUp(cluster, 1);
  cluster.broadcast(0);  // the reborn node owes this one
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  // And the reborn node itself can broadcast again: its event is
  // injected (not discarded) and reaches everyone.
  const std::uint64_t broadcastsBefore = cluster.report().broadcasts;
  cluster.broadcast(1);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  ASSERT_NE(cluster.faultController(), nullptr);
  EXPECT_EQ(cluster.faultController()->stats().crashes, 1u);
  EXPECT_EQ(cluster.faultController()->stats().restarts, 1u);
  const auto report = cluster.report();
  EXPECT_EQ(report.broadcasts, broadcastsBefore + 1);
  EXPECT_EQ(report.restarts, 1u);
  EXPECT_TRUE(report.allPropertiesHold())
      << "order=" << report.orderViolations << " holes=" << report.holes;

  // Satellite: refused sendTo() calls are counted and exported instead of
  // being silently swallowed (zero on a healthy loopback run).
  const std::string text = cluster.prometheusSnapshot();
  EXPECT_NE(text.find("epto_udp_send_failures_total"), std::string::npos);
  EXPECT_EQ(cluster.sendFailures(), 0u);
}

TEST(RuntimeFault, RestartedNodeRejoinsAndReconverges) {
  fault::FaultPlan plan;
  plan.crash(10'000, 2, /*restartAt=*/60'000);

  UdpCluster cluster(fastOptions(8, plan));
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();

  waitUntilUp(cluster, 2);
  const std::uint64_t broadcastsBefore = cluster.report().broadcasts;
  // Traffic from a survivor must reach the reborn node (it is up, so it
  // owes the delivery) — this also catches its logical clock up.
  cluster.broadcast(0);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  // And the reborn node itself can broadcast again.
  cluster.broadcast(2);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  const fault::FaultStats stats = cluster.faultController()->stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  const auto report = cluster.report();
  EXPECT_EQ(report.broadcasts, broadcastsBefore + 2);
  EXPECT_EQ(report.restarts, 1u);
  EXPECT_TRUE(report.allPropertiesHold())
      << "order=" << report.orderViolations << " holes=" << report.holes;
}

TEST(UdpFault, PartitionHealsAndReconverges) {
  // Island {0,1,2} vs the rest for 40ms starting 100ms in. A trickle of
  // broadcasts keeps balls in flight so the split is observable through
  // the drop counters regardless of scheduler speed (sanitizers slow the
  // run down by an order of magnitude); once the split provably bites,
  // one event is born on each side and must cross after the heal.
  fault::FaultPlan plan;
  plan.partition(100'000, 140'000, {0, 1, 2});

  auto options = fastOptions(8, plan);
  // Node rounds are unsynchronized, so an event's ttl advances roughly
  // once per *node* round boundary along its fastest relay chain (each
  // hop increments, copies merge to the max) — in the 3-node island the
  // mid-split event ages ~3 ttl per round period, not 1. TTL must cover
  // (partition remainder + crossing) at that inflated rate: 200 keeps
  // the island copy relayable for ~200/3 round periods (~200ms), well
  // past the 40ms the split lasts.
  options.ttlOverride = 200;
  options.fanoutOverride = 7;  // full mesh: the 3-node island cannot lose
                               // its epidemic to unlucky peer sampling
  UdpCluster cluster(options);
  cluster.start();
  cluster.broadcast(0);  // converges before the split
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();

  const auto deadline = std::chrono::steady_clock::now() + 20s;
  std::size_t turn = 0;
  while (cluster.faultController()->stats().partitionDrops == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "split never engaged";
    cluster.broadcast(++turn % 2 == 0 ? 1 : 5);
    std::this_thread::sleep_for(5ms);
  }
  cluster.broadcast(1);  // born mid-partition on the island side
  cluster.broadcast(5);  // born mid-partition on the majority side
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  EXPECT_GT(cluster.faultController()->stats().partitionDrops, 0u);
  const auto report = cluster.report();
  EXPECT_EQ(report.holes, 0u) << "partition did not re-converge";
  EXPECT_TRUE(report.allPropertiesHold());
}

TEST(UdpFault, StalledNodeCatchesUpFromItsSocket) {
  // ~12 rounds of GC pause: the node's socket keeps buffering traffic in
  // the kernel, and the node must catch up from that backlog.
  fault::FaultPlan plan;
  plan.stall(5'000, 40'000, 4);

  UdpCluster cluster(fastOptions(8, plan));
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i % 4);  // senders != 4
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  EXPECT_GE(cluster.faultController()->stats().stalls, 1u);
  EXPECT_EQ(cluster.faultController()->stats().crashes, 0u);
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 8u * 8u);  // the stalled node caught up
  EXPECT_TRUE(report.allPropertiesHold());
}

TEST(UdpFault, QuiescenceTimeoutNamesTheHoldouts) {
  // Node 1 is cut off from everyone for the whole run but stays up, so
  // it keeps owing every delivery — the wait must time out and say why.
  fault::FaultPlan plan;
  plan.partition(0, 3'600'000'000ULL, {1});

  UdpCluster cluster(fastOptions(4, plan));
  cluster.start();
  cluster.broadcast(0);
  EXPECT_FALSE(cluster.awaitQuiescence(300ms));
  const std::string why = cluster.lastQuiescenceReport();
  EXPECT_NE(why.find("not yet delivered everywhere"), std::string::npos) << why;
  EXPECT_NE(why.find("missing at"), std::string::npos) << why;
  cluster.stop();
}

TEST(UdpFault, FaultCountersReachTheMetricsRegistry) {
  fault::FaultPlan plan;
  plan.crash(5'000, 1, /*restartAt=*/30'000);

  UdpCluster cluster(fastOptions(6, plan));
  cluster.start();
  cluster.broadcast(0);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  waitUntilUp(cluster, 1);
  cluster.stop();

  const std::string text = cluster.prometheusSnapshot();
  for (const char* family :
       {"epto_fault_crashes_total", "epto_fault_restarts_total",
        "epto_fault_stalls_total", "epto_fault_crash_drops_total",
        "epto_fault_partition_drops_total", "epto_fault_burst_drops_total",
        "epto_fault_fragment_drops_total", "epto_fault_delayed_messages_total"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " "), std::string::npos)
        << "missing family: " << family;
  }
  EXPECT_NE(text.find("epto_fault_crashes_total 1"), std::string::npos);
}

// The background scrape publishes through the same path as
// prometheusSnapshot(), so its JSONL series carries the fault counters.
TEST(UdpFault, BackgroundScrapeCarriesFaultCounters) {
  // Per-process name: parallel runs of this binary must not share it.
  const std::string path = ::testing::TempDir() + "epto_udp_scrape_test." +
                           std::to_string(::getpid()) + ".jsonl";
  std::remove(path.c_str());
  fault::FaultPlan plan;
  plan.crash(5'000, 1, /*restartAt=*/30'000);
  {
    auto options = fastOptions(4, plan);
    options.scrapeInterval = 5ms;
    options.metricsOutPath = path;
    UdpCluster cluster(options);
    cluster.start();
    cluster.broadcast(0);
    ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
    waitUntilUp(cluster, 1);
    cluster.stop();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"ts\":"), std::string::npos);
    EXPECT_NE(line.find("\"samples\":["), std::string::npos);
  }
  // The final scrape (written by stop()) carries the finished run.
  EXPECT_NE(lines.back().find("epto_ordering_delivered_ordered_total"),
            std::string::npos);
  EXPECT_NE(lines.back().find("epto_fault_crashes_total"), std::string::npos);
  std::remove(path.c_str());
}

// Broadcasts that race their node's permanent crash must each settle:
// either injected by a round that really sends its ball (so every
// survivor delivers it) or discarded — never left queued at the down
// node, and never recorded by a round whose copies the crash cuts.
TEST(UdpFault, BroadcastsRacingAPermanentCrashAllSettle) {
  fault::FaultPlan plan;
  plan.crash(30'000, 1);  // down 30ms after start(), forever

  auto options = fastOptions(4, plan);
  options.shardCount = 1;
  UdpCluster cluster(options);
  const auto started = std::chrono::steady_clock::now();
  cluster.start();
  std::this_thread::sleep_until(started + 27ms);
  const auto deadline = started + 10s;
  while (!cluster.nodeDown(1)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "crash never engaged";
    cluster.broadcast(1);
    std::this_thread::sleep_for(20us);
  }
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  const auto report = cluster.report();
  EXPECT_TRUE(report.allPropertiesHold())
      << "order=" << report.orderViolations << " holes=" << report.holes;
}

// 10% loss and +1ms on every link for the whole run, with broadcasts
// born a round apart so new events meet old ones on the lossy links.
TEST(UdpFault, SurvivesMessageLossAndDelay) {
  fault::FaultPlan plan;
  plan.burstLoss(0, 60'000'000, 0.10);
  plan.delaySpike(0, 60'000'000, /*extraDelay=*/1'000);

  UdpCluster cluster(fastOptions(8, plan));
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) {
    cluster.broadcast(i);
    std::this_thread::sleep_for(3ms);
  }
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 8u * 8u);
  EXPECT_EQ(report.orderViolations, 0u);
  EXPECT_EQ(report.integrityViolations, 0u);
  EXPECT_EQ(report.holes, 0u);
  EXPECT_GT(cluster.faultController()->stats().burstDrops, 0u);
  EXPECT_GT(cluster.faultController()->stats().delayedMessages, 0u);
}

TEST(UdpFault, DelaySpikesUseTheSenderHoldbackQueue) {
  // The spike and the 10% burst loss cover the whole run (60s ≫ any
  // sanitizer slowdown), so every datagram goes through the sender's
  // loss trial and holdback queue.
  fault::FaultPlan plan;
  plan.delaySpike(0, 60'000'000, /*extraDelay=*/4'000);  // +4ms on every link
  plan.burstLoss(0, 60'000'000, 0.10);

  UdpCluster cluster(fastOptions(5, plan));
  cluster.start();
  for (std::size_t i = 0; i < 5; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  EXPECT_GT(cluster.faultController()->stats().delayedMessages, 0u);
  EXPECT_GT(cluster.faultController()->stats().burstDrops, 0u);
  const auto report = cluster.report();
  EXPECT_EQ(report.holes, 0u);
  EXPECT_TRUE(report.allPropertiesHold());
}

TEST(UdpFault, RejectsPlansReferencingUnknownNodes) {
  fault::FaultPlan plan;
  plan.stall(10, 100, 7);
  UdpClusterOptions options;
  options.nodeCount = 4;
  options.faultPlan = &plan;
  EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
}

TEST(RuntimeFault, RejectsPlansReferencingUnknownNodes) {
  {
    fault::FaultPlan plan;
    plan.crash(10, 9);  // node 9 of an 8-node cluster
    EXPECT_THROW(UdpCluster{fastOptions(8, plan)}, util::ContractViolation);
  }
  {
    fault::FaultPlan plan;
    plan.partition(10, 100, {0, 8});  // node 8 is one past the last
    EXPECT_THROW(UdpCluster{fastOptions(8, plan)}, util::ContractViolation);
  }
  {
    fault::FaultPlan plan;
    plan.crash(10, 7);  // the last node is fine
    EXPECT_NO_THROW(UdpCluster{fastOptions(8, plan)});
  }
}

}  // namespace
}  // namespace epto::runtime
