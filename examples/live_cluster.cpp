// A real multi-threaded EpTO cluster (§8.5) — no simulator.
//
// Ten nodes exchange balls as UDP datagrams over loopback sockets, with
// steady-clock rounds driven by the cluster's shard threads. A
// whole-run fault plan drops 5% of datagrams at the sender. Application
// threads fire broadcasts concurrently; the run ends with the Table 1
// verdict and the delivery delays.
//
// A background scrape thread appends the cluster's metric registry as
// JSONL to /tmp/live_cluster_metrics.jsonl while the run is in flight,
// and the run ends by printing an excerpt of the Prometheus snapshot.
//
// Build & run:   ./build/examples/live_cluster
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "fault/fault_plan.h"
#include "runtime/udp_cluster.h"

int main() {
  using namespace epto;
  using namespace std::chrono_literals;

  fault::FaultPlan plan;
  plan.burstLoss(0, /*until=*/3'600'000'000ULL, 0.05);  // every link, whole run

  runtime::UdpClusterOptions options;
  options.nodeCount = 10;
  options.roundPeriod = 3ms;
  options.roundJitter = 0.10;
  options.clockMode = ClockMode::Logical;
  options.faultPlan = &plan;
  options.seed = 1234;
  options.scrapeInterval = 50ms;
  options.metricsOutPath = "/tmp/live_cluster_metrics.jsonl";

  runtime::UdpCluster cluster(options);
  std::printf("live_cluster: %zu UDP nodes on %zu shard threads, round=%lldus, K=%zu, "
              "TTL=%u, 5%% loss\n",
              options.nodeCount, cluster.shardCountUsed(),
              static_cast<long long>(options.roundPeriod.count()), cluster.fanoutUsed(),
              cluster.ttlUsed());

  cluster.start();

  // Three concurrent application threads, each broadcasting through a
  // different subset of nodes.
  std::vector<std::thread> apps;
  for (int app = 0; app < 3; ++app) {
    apps.emplace_back([&cluster, app, &options] {
      for (int i = 0; i < 10; ++i) {
        cluster.broadcast(static_cast<std::size_t>(app * 3 + i) % options.nodeCount);
        std::this_thread::sleep_for(2ms);
      }
    });
  }
  for (auto& t : apps) t.join();

  const bool drained = cluster.awaitQuiescence(30s);
  cluster.stop();

  const auto report = cluster.report();
  const fault::FaultStats faults = cluster.faultController()->stats();
  std::printf("\nbroadcasts=%llu deliveries=%llu (expected %llu)\n",
              static_cast<unsigned long long>(report.broadcasts),
              static_cast<unsigned long long>(report.deliveries),
              static_cast<unsigned long long>(report.broadcasts * options.nodeCount));
  std::printf("faults: %llu datagrams dropped by loss injection\n",
              static_cast<unsigned long long>(faults.burstDrops + faults.fragmentDrops));
  if (!report.delays.empty()) {
    std::printf("delivery delay: p50=%.1fms p99=%.1fms\n",
                static_cast<double>(report.delays.percentile(0.5)) / 1000.0,
                static_cast<double>(report.delays.percentile(0.99)) / 1000.0);
  }
  // Prometheus-text excerpt: the per-node delivery counters plus the
  // fault totals (full output is one line per node per metric).
  std::printf("\nmetrics (excerpt of the Prometheus snapshot; full JSONL series in %s):\n",
              options.metricsOutPath.c_str());
  std::istringstream snapshot(cluster.prometheusSnapshot());
  for (std::string line; std::getline(snapshot, line);) {
    if (line.find("epto_ordering_delivered_ordered_total") != std::string::npos ||
        line.find("epto_fault_") == 0 || line.rfind("# TYPE epto_fault_", 0) == 0) {
      std::printf("  %s\n", line.c_str());
    }
  }

  std::printf("Table 1 verdict: integrity=%llu order=%llu validity=%llu holes=%llu\n",
              static_cast<unsigned long long>(report.integrityViolations),
              static_cast<unsigned long long>(report.orderViolations),
              static_cast<unsigned long long>(report.validityViolations),
              static_cast<unsigned long long>(report.holes));
  std::printf("result: %s\n",
              drained && report.allPropertiesHold() ? "OK — total order held on real "
                                                      "sockets under loss"
                                                    : "FAILED");
  return drained && report.allPropertiesHold() ? 0 : 1;
}
