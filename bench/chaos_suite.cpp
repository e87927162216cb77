// Chaos suite — the fault-injection scenario matrix (DESIGN.md §"Fault
// injection", EXPERIMENTS.md "Chaos suite").
//
// Each scenario runs the simulated deployment under one fault schedule
// (fault/fault_plan.h) and re-checks the Table 1 verdicts over the
// correct processes: crash with restart, a clean partition with a
// scheduled heal, GC-pause stalls, burst loss, delay spikes, and a
// combined "bad day" mix — plus a fault-free control. One JSON line per
// scenario reports delivery rate, order/integrity/validity violations,
// agreement holes, convergence time (max delivery delay) and what the
// fault controller actually injected.
//
// The suite's pass criterion mirrors the paper's: zero total-order
// violations among correct processes in every scenario; agreement and
// validity judged over processes that survived to the end of the run.
//
// A second block runs Byzantine scenarios (fault/adversary.h, DESIGN.md
// §14): the full attack repertoire against a BASALT-sampled deployment,
// a concentrated junk flood against a tight per-sender rate cap, and
// pure lineage forgery — each must keep every Table 1 verdict green over
// the honest processes while the ingress-guard counters prove the
// attack actually ran.
//
// A third block of scenarios exercises the overload-hardened UDP
// runtime over real loopback sockets (DESIGN.md §10): jumbo balls far
// beyond the 64 KiB datagram limit (fragmentation/reassembly), an
// ingress flood against a tight queue bound, fragment-level burst loss,
// and a control run whose delivery rate is compared against the
// simulator's — sim and UDP must both converge to rate 1.0 with green
// verdicts for the suite to pass.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/ingress_guard.h"
#include "fault/adversary.h"
#include "fault/fault_plan.h"
#include "obs/flight_recorder.h"
#include "runtime/udp_cluster.h"
#include "util/rng.h"

namespace {

using namespace epto;
using namespace epto::bench;

struct Scenario {
  std::string name;
  fault::FaultPlan plan;
};

/// The scenario matrix, in simulator ticks (round interval 125, so the
/// broadcast window [0, rounds*125) — faults land mid-window and every
/// window heals well before the drain so the system can re-converge.
std::vector<Scenario> buildScenarios(std::size_t n) {
  const ProcessId half = static_cast<ProcessId>(n / 2);
  std::vector<Scenario> scenarios;

  scenarios.push_back({"control", fault::FaultPlan{}});

  {
    fault::FaultPlan plan;
    plan.crash(1000, 3, /*restartAt=*/2200);  // down ~10 rounds, rejoins
    plan.crash(1500, 7);                      // down forever
    scenarios.push_back({"crash_restart", std::move(plan)});
  }
  {
    std::vector<ProcessId> island;
    for (ProcessId id = 0; id < half / 2; ++id) island.push_back(id);
    fault::FaultPlan plan;
    plan.partition(1200, 1700, std::move(island));  // 4 rounds, then heal
    scenarios.push_back({"partition_heal", std::move(plan)});
  }
  {
    fault::FaultPlan plan;
    plan.stall(1000, 2500, 2);  // 12-round GC pause
    plan.stall(1200, 2400, 5);
    scenarios.push_back({"stall", std::move(plan)});
  }
  {
    fault::FaultPlan plan;
    plan.burstLoss(1000, 2200, 0.4);  // 40% extra loss, all links
    scenarios.push_back({"burst_loss", std::move(plan)});
  }
  {
    fault::FaultPlan plan;
    plan.delaySpike(1000, 2400, /*extraDelay=*/300);  // +2.4 rounds one-way
    scenarios.push_back({"delay_spike", std::move(plan)});
  }
  {
    fault::FaultPlan plan;
    plan.crash(900, 4, /*restartAt=*/2000);
    plan.stall(1100, 2000, 1);
    plan.burstLoss(1300, 1900, 0.3, {0, 2, 6});
    plan.delaySpike(1500, 2300, 200);
    scenarios.push_back({"combined", std::move(plan)});
  }
  return scenarios;
}

void printJson(const std::string& scenario, const workload::ExperimentResult& result) {
  const auto& report = result.report;
  const double expected =
      static_cast<double>(report.eventsMeasured) *
      static_cast<double>(result.finalSystemSize);
  const double rate =
      expected > 0.0 ? static_cast<double>(report.deliveries) / expected : 0.0;
  const Timestamp convergence =
      report.delays.empty() ? 0 : report.delays.percentile(1.0);
  std::printf(
      "{\"scenario\":\"%s\",\"delivery_rate\":%.4f,"
      "\"order_violations\":%llu,\"integrity_violations\":%llu,"
      "\"validity_violations\":%llu,\"holes\":%llu,"
      "\"convergence_ticks\":%llu,\"events_measured\":%llu,"
      "\"deliveries\":%llu,\"final_system_size\":%zu,"
      "\"crashes\":%llu,\"restarts\":%llu,\"stalls\":%llu,"
      "\"crash_drops\":%llu,\"partition_drops\":%llu,\"burst_drops\":%llu,"
      "\"delayed_messages\":%llu}\n",
      scenario.c_str(), rate > 1.0 ? 1.0 : rate,
      static_cast<unsigned long long>(report.orderViolations),
      static_cast<unsigned long long>(report.integrityViolations),
      static_cast<unsigned long long>(report.validityViolations),
      static_cast<unsigned long long>(report.holes),
      static_cast<unsigned long long>(convergence),
      static_cast<unsigned long long>(report.eventsMeasured),
      static_cast<unsigned long long>(report.deliveries), result.finalSystemSize,
      static_cast<unsigned long long>(result.faultStats.crashes),
      static_cast<unsigned long long>(result.faultStats.restarts),
      static_cast<unsigned long long>(result.faultStats.stalls),
      static_cast<unsigned long long>(result.faultStats.crashDrops),
      static_cast<unsigned long long>(result.faultStats.partitionDrops),
      static_cast<unsigned long long>(result.faultStats.burstDrops),
      static_cast<unsigned long long>(result.faultStats.delayedMessages));
  std::fflush(stdout);
}

/// One Byzantine scenario: an adversary plan plus the sampler expected
/// to withstand it. All run hardened (ingress guard on at every honest
/// node) with the derived K/TTL — unlike the ablation_byzantine knee,
/// the chaos suite asks whether the verdicts survive at full margin.
struct ByzScenario {
  std::string name;
  fault::AdversaryPlan plan;
  workload::PssKind pss = workload::PssKind::Basalt;
  std::uint32_t rateCap = 64;
  /// Guard counter that must be non-zero for the attack to count as
  /// exercised (the scenario is vacuous otherwise).
  std::uint64_t core::IngressStats::* mustTrip = nullptr;
};

std::vector<ByzScenario> buildByzScenarios() {
  std::vector<ByzScenario> scenarios;
  {
    // Everything at once: poisoned shuffles, equivocation, forged
    // lineage, replay and flooding from a 10% minority, BASALT sampling
    // plus the full ingress guard on the honest side.
    ByzScenario s;
    s.name = "byz_full_attack";
    s.plan.fraction(0.10).seed(99);
    s.mustTrip = &core::IngressStats::ballsRejectedLineage;
    scenarios.push_back(std::move(s));
  }
  {
    // Concentrated flood: two attackers at forty junk balls per round
    // against an 8-ball per-sender budget — the rate cap must shed the
    // excess without touching honest traffic.
    ByzScenario s;
    s.name = "byz_flood_ratecap";
    fault::AdversaryBehaviors behaviors;
    behaviors.poisonPss = false;
    behaviors.equivocate = false;
    behaviors.forgeLineage = false;
    behaviors.replayStale = false;
    s.plan.members({0, 1}).behaviors(behaviors).floodBallsPerRound(40);
    s.pss = workload::PssKind::UniformOracle;
    s.rateCap = 8;
    s.mustTrip = &core::IngressStats::ballsRejectedRate;
    scenarios.push_back(std::move(s));
  }
  {
    // Pure lineage forgery: hop > ttl and absurd ttl/originRound fields
    // must die whole at ingress, counted per cause.
    ByzScenario s;
    s.name = "byz_lineage_forgery";
    fault::AdversaryBehaviors behaviors;
    behaviors.poisonPss = false;
    behaviors.equivocate = false;
    behaviors.replayStale = false;
    behaviors.flood = false;
    s.plan.fraction(0.05).seed(99).behaviors(behaviors);
    s.pss = workload::PssKind::UniformOracle;
    s.mustTrip = &core::IngressStats::ballsRejectedLineage;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

/// Run one Byzantine scenario and print its JSON line: Table 1 verdicts
/// over the honest processes plus what the attackers did and what the
/// guard caught. Returns false when a verdict broke or the attack never
/// tripped its guard counter.
bool runByzScenario(const ByzScenario& scenario, std::size_t n, BenchArgs& args) {
  workload::ExperimentConfig config;
  config.systemSize = n;
  config.broadcastProbability = 0.02;
  config.broadcastRounds = 25;
  config.seed = args.seed;
  config.pss = scenario.pss;
  config.adversaryPlan = &scenario.plan;
  config.hardenIngress = true;
  config.ingressRateCap = scenario.rateCap;

  const auto result = runSeries(scenario.name, config, args);
  const auto& report = result.report;
  const double expected =
      static_cast<double>(report.eventsMeasured) *
      static_cast<double>(result.finalSystemSize);
  const double rate =
      expected > 0.0 ? static_cast<double>(report.deliveries) / expected : 0.0;
  const bool tripped =
      scenario.mustTrip == nullptr || result.ingressStats.*scenario.mustTrip > 0;
  std::printf(
      "{\"scenario\":\"%s\",\"adversary\":true,\"delivery_rate\":%.4f,"
      "\"order_violations\":%llu,\"integrity_violations\":%llu,"
      "\"validity_violations\":%llu,\"holes\":%llu,"
      "\"byzantine\":%zu,\"view_poison\":%.4f,"
      "\"balls_rejected_lineage\":%llu,\"balls_rejected_rate\":%llu,"
      "\"events_filtered_equivocation\":%llu,\"junk_deliveries_filtered\":%llu,"
      "\"flood_balls\":%llu,\"equivocations\":%llu,\"honest_balls_sunk\":%llu,"
      "\"guard_tripped\":%s}\n",
      scenario.name.c_str(), rate > 1.0 ? 1.0 : rate,
      static_cast<unsigned long long>(report.orderViolations),
      static_cast<unsigned long long>(report.integrityViolations),
      static_cast<unsigned long long>(report.validityViolations),
      static_cast<unsigned long long>(report.holes), result.byzantineCount,
      result.viewPoisonFraction,
      static_cast<unsigned long long>(result.ingressStats.ballsRejectedLineage),
      static_cast<unsigned long long>(result.ingressStats.ballsRejectedRate),
      static_cast<unsigned long long>(result.ingressStats.eventsFilteredEquivocation),
      static_cast<unsigned long long>(result.adversaryDeliveriesFiltered),
      static_cast<unsigned long long>(result.adversaryStats.floodBallsSent),
      static_cast<unsigned long long>(result.adversaryStats.equivocations),
      static_cast<unsigned long long>(result.adversaryStats.honestBallsSunk),
      tripped ? "true" : "false");
  std::fflush(stdout);
  return report.allPropertiesHold() && tripped;
}

/// One broadcast request against the UDP cluster: node index + payload
/// size (0 = no payload).
struct UdpBroadcast {
  std::size_t node = 0;
  std::size_t payloadBytes = 0;
  QosClass qos = QosClass::Safe;
};

struct UdpScenario {
  std::string name;
  runtime::UdpClusterOptions options;
  std::vector<UdpBroadcast> broadcasts;
  fault::FaultPlan plan;  ///< empty = no fault injection.
  /// When > 0, the scenario additionally requires the recv-batch p99 to
  /// exceed this — proof the batched recvmmsg path actually coalesced
  /// datagrams under the scenario's load (a p99 of 1 means every poll
  /// found a single datagram and the scenario never stressed batching).
  double minRecvBatchP99 = 0.0;
};

struct UdpScenarioResult {
  metrics::TrackerReport report;
  bool quiescent = false;
  double deliveryRate = 0.0;
  double recvBatchP99 = 0.0;
  double sendBatchP99 = 0.0;
  bool batchP99Ok = true;

  [[nodiscard]] bool holds() const {
    return quiescent && report.allPropertiesHold() && batchP99Ok;
  }
};

/// The p99 of a registry histogram, read from its bucket counts: the
/// upper bound of the first bucket at which the cumulative count covers
/// 99% of observations (Prometheus-style upper-bound quantile). Returns
/// 0 when the instrument is absent or empty.
double histogramP99(const obs::Snapshot& snapshot, const std::string& name) {
  for (const obs::Sample& sample : snapshot) {
    if (sample.kind != obs::Kind::Histogram || sample.name != name) continue;
    if (sample.count == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(0.99 * static_cast<double>(sample.count)));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
      cumulative += sample.buckets[i];
      if (cumulative >= target) {
        return i < sample.bounds.size() ? sample.bounds[i]
                                        : sample.bounds.back() * 2.0;
      }
    }
  }
  return 0.0;
}

PayloadPtr makePayload(std::size_t size, util::Rng& rng) {
  if (size == 0) return {};
  PayloadBytes bytes(size);
  for (auto& b : bytes) b = static_cast<std::byte>(rng.below(256));
  return std::make_shared<const PayloadBytes>(std::move(bytes));
}

/// Run one UDP scenario to quiescence and print its JSON line with the
/// Table 1 verdicts plus the transport-hardening counters.
UdpScenarioResult runUdpScenario(UdpScenario& scenario, std::uint64_t seed,
                                 BenchArgs& args) {
  scenario.options.seed = seed;
  if (!scenario.plan.empty()) scenario.options.faultPlan = &scenario.plan;
  // Post-mortem surface: crash and stall-watchdog dumps land in a
  // per-scenario file next to the suite (CI uploads them on failure).
  // Drop records are off the default flight mask (one fires per
  // duplicate copy — too hot for production rings) but are exactly what
  // a chaos post-mortem wants, and these clusters are small.
  obs::FlightRecorder::global().setTypeMask(
      obs::FlightRecorder::kDefaultMask |
      obs::FlightRecorder::bitOf(obs::TraceType::Drop));
  scenario.options.flightDumpPath = "epto_flight_" + scenario.name + ".jsonl";
  std::remove(scenario.options.flightDumpPath.c_str());  // dumps append
  beginTraceSection(args, scenario.name);
  runtime::UdpCluster cluster(scenario.options);
  util::Rng payloadRng(seed ^ 0x5CE9A810u);
  cluster.start();
  for (const UdpBroadcast& b : scenario.broadcasts) {
    cluster.broadcast(b.node, makePayload(b.payloadBytes, payloadRng), b.qos);
  }
  UdpScenarioResult result;
  result.quiescent = cluster.awaitQuiescence(std::chrono::seconds(60));
  cluster.stop();
  endTraceSection(args);
  result.report = cluster.report();
  // Scrape the batched-I/O histograms (DESIGN.md §16) out of the
  // cluster registry: batch-size p99s are the evidence that the
  // recvmmsg/sendmmsg paths coalesced real traffic.
  const obs::Snapshot metricsSnapshot = cluster.metricsRegistry().snapshot();
  result.recvBatchP99 = histogramP99(metricsSnapshot, "epto_udp_recv_batch_size");
  result.sendBatchP99 = histogramP99(metricsSnapshot, "epto_udp_send_batch_size");
  result.batchP99Ok = scenario.minRecvBatchP99 <= 0.0 ||
                      result.recvBatchP99 > scenario.minRecvBatchP99;

  const auto& report = result.report;
  const double expected = static_cast<double>(report.eventsMeasured) *
                          static_cast<double>(scenario.options.nodeCount);
  result.deliveryRate =
      expected > 0.0 ? static_cast<double>(report.deliveries) / expected : 0.0;
  const Timestamp convergence =
      report.delays.empty() ? 0 : report.delays.percentile(1.0);
  const fault::FaultController* faults = cluster.faultController();
  std::printf(
      "{\"scenario\":\"%s\",\"transport\":\"udp\",\"delivery_rate\":%.4f,"
      "\"quiescent\":%s,"
      "\"order_violations\":%llu,\"integrity_violations\":%llu,"
      "\"validity_violations\":%llu,\"holes\":%llu,"
      "\"convergence_us\":%llu,\"events_measured\":%llu,\"deliveries\":%llu,"
      "\"balls_fragmented\":%llu,\"fragments_sent\":%llu,"
      "\"balls_reassembled\":%llu,\"reassembly_expired\":%llu,"
      "\"ingress_shed\":%llu,\"ingress_high_water\":%llu,"
      "\"truncated\":%llu,\"frames_rejected\":%llu,\"send_failures\":%llu,"
      "\"send_retries\":%llu,\"watchdog_recoveries\":%llu,"
      "\"fragment_drops\":%llu,"
      "\"shards\":%zu,\"recv_batch_p99\":%.1f,\"send_batch_p99\":%.1f,"
      "\"mailbox_post_rejections\":%llu}\n",
      scenario.name.c_str(), result.deliveryRate > 1.0 ? 1.0 : result.deliveryRate,
      result.quiescent ? "true" : "false",
      static_cast<unsigned long long>(report.orderViolations),
      static_cast<unsigned long long>(report.integrityViolations),
      static_cast<unsigned long long>(report.validityViolations),
      static_cast<unsigned long long>(report.holes),
      static_cast<unsigned long long>(convergence),
      static_cast<unsigned long long>(report.eventsMeasured),
      static_cast<unsigned long long>(report.deliveries),
      static_cast<unsigned long long>(cluster.ballsFragmented()),
      static_cast<unsigned long long>(cluster.fragmentsSent()),
      static_cast<unsigned long long>(cluster.ballsReassembled()),
      static_cast<unsigned long long>(cluster.reassemblyExpired()),
      static_cast<unsigned long long>(cluster.ingressShed()),
      static_cast<unsigned long long>(cluster.ingressHighWater()),
      static_cast<unsigned long long>(cluster.truncatedDatagrams()),
      static_cast<unsigned long long>(cluster.framesRejected()),
      static_cast<unsigned long long>(cluster.sendFailures()),
      static_cast<unsigned long long>(cluster.sendRetries()),
      static_cast<unsigned long long>(cluster.watchdogRecoveries()),
      static_cast<unsigned long long>(faults != nullptr ? faults->stats().fragmentDrops
                                                        : 0),
      cluster.shardCountUsed(), result.recvBatchP99, result.sendBatchP99,
      static_cast<unsigned long long>(cluster.mailboxPostRejections()));
  std::fflush(stdout);
  if (!result.quiescent) {
    std::fprintf(stderr, "%s: quiescence timeout: %s\n", scenario.name.c_str(),
                 cluster.lastQuiescenceReport().c_str());
  }
  if (!result.batchP99Ok) {
    std::fprintf(stderr,
                 "%s: recv_batch_p99 %.1f did not exceed the required %.1f — "
                 "the batched receive path never coalesced under this load\n",
                 scenario.name.c_str(), result.recvBatchP99,
                 scenario.minRecvBatchP99);
  }
  return result;
}

/// The UDP scenario matrix: overload shapes the simulator cannot model
/// (real datagram limits, kernel buffers, thread scheduling).
std::vector<UdpScenario> buildUdpScenarios() {
  using namespace std::chrono_literals;
  std::vector<UdpScenario> scenarios;

  {
    // Control: small balls, no faults — the sim-vs-UDP comparison point.
    UdpScenario s;
    s.name = "udp_control";
    s.options.nodeCount = 6;
    s.options.roundPeriod = 4ms;
    for (std::size_t i = 0; i < 6; ++i) s.broadcasts.push_back({i, 64});
    scenarios.push_back(std::move(s));
  }
  {
    // Jumbo balls: frames ~100 KiB, far beyond one datagram — delivery
    // depends entirely on fragmentation + reassembly.
    UdpScenario s;
    s.name = "udp_jumbo_ball";
    s.options.nodeCount = 4;
    s.options.roundPeriod = 8ms;
    s.broadcasts.push_back({0, 96 * 1024});
    s.broadcasts.push_back({1, 96 * 1024});
    s.broadcasts.push_back({2, 96 * 1024});
    scenarios.push_back(std::move(s));
  }
  {
    // Crash with restart over real sockets: the owning shard tears the
    // node's process down mid-run and it rejoins with a fresh
    // incarnation. This is the scenario that exercises the flight
    // recorder's crash dump (epto_flight_udp_crash_restart.jsonl).
    UdpScenario s;
    s.name = "udp_crash_restart";
    s.options.nodeCount = 6;
    s.options.roundPeriod = 4ms;
    s.plan.crash(/*at=*/20'000, /*node=*/3, /*restartAt=*/48'000);
    for (std::size_t i = 0; i < 6; ++i) s.broadcasts.push_back({i, 128});
    scenarios.push_back(std::move(s));
  }
  {
    // Ingress overload: all-to-all gossip against a tiny queue bound and
    // drain budget — backpressure must shed without breaking Table 1.
    UdpScenario s;
    s.name = "udp_ingress_overload";
    s.options.nodeCount = 8;
    s.options.roundPeriod = 4ms;
    s.options.fanoutOverride = 7;
    s.options.ingressCapacity = 4;
    s.options.ingressDrainBudget = 1;
    for (std::size_t i = 0; i < 8; ++i) s.broadcasts.push_back({i, 256});
    scenarios.push_back(std::move(s));
  }
  {
    // Fragment-level burst loss. Loss rolled per fragment compounds per
    // ball: a b-fragment ball survives with (1-rate)^b, so large merged
    // balls under heavy loss drive EpTO's relay-once epidemic
    // subcritical and events go extinct — that regime is a finding, not
    // a pass criterion. This scenario stays inside the protocol's loss
    // envelope (~3-fragment merged balls, 5% fragment loss, full
    // fanout) and checks that compounded fragment loss is absorbed like
    // ordinary ball loss: verdicts green, fragment_drops > 0.
    UdpScenario s;
    s.name = "udp_fragment_loss";
    s.options.nodeCount = 5;
    s.options.roundPeriod = 4ms;
    s.options.fanoutOverride = 4;
    s.options.reassemblyTtlRounds = 4;
    s.plan.burstLoss(/*start=*/0, /*end=*/60'000, 0.05);  // first 60 ms
    for (std::size_t i = 0; i < 5; ++i) s.broadcasts.push_back({i, 600});
    scenarios.push_back(std::move(s));
  }
  {
    // Sharded-executor overload (DESIGN.md §16): all-to-all gossip at
    // full fanout onto TWO worker shards, so every cross-node datagram
    // really crosses the shard boundary through the batched I/O path.
    // Must hold every Table 1 verdict AND show recv_batch_p99 > 1 —
    // under this load the recvmmsg drain has to coalesce multi-datagram
    // chunks, or the batching layer is dead code in disguise.
    UdpScenario s;
    s.name = "udp_sharded_overload";
    s.options.nodeCount = 8;
    s.options.roundPeriod = 4ms;
    s.options.fanoutOverride = 7;
    s.options.ingressCapacity = 8;
    s.options.shardCount = 2;
    s.minRecvBatchP99 = 1.0;
    for (std::size_t i = 0; i < 8; ++i) s.broadcasts.push_back({i, 256});
    scenarios.push_back(std::move(s));
  }
  {
    // Mid-run loss spike with the adaptive stack on: each node
    // runs a FeedbackController (src/adapt) off its real ball-arrival
    // shortfall and retunes TTL/K while the spike is live, and every
    // broadcast is Fast-class with speculation enabled — the QoS byte
    // travels in real datagrams (codec kFlagQos) and speculative
    // emission races actual socket timing. Committed verdicts must stay
    // green throughout; the controller and the preview channel are
    // additive, never load-bearing.
    UdpScenario s;
    s.name = "udp_loss_spike_adaptive";
    s.options.nodeCount = 6;
    s.options.roundPeriod = 4ms;
    s.options.adaptive = true;
    s.options.adaptiveWorstCaseLoss = 0.15;
    s.options.speculation = true;
    s.plan.burstLoss(/*start=*/16'000, /*end=*/80'000, 0.10);  // spike mid-run
    for (std::size_t i = 0; i < 6; ++i) {
      s.broadcasts.push_back({i, 128, QosClass::Fast});
    }
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = parseArgs(argc, argv);
  const std::size_t n = args.paperScale ? 200 : 60;
  printHeader("chaos suite", "Table 1 verdicts under injected faults", args);

  auto scenarios = buildScenarios(n);
  bool allHold = true;
  double simControlRate = 0.0;
  for (auto& scenario : scenarios) {
    workload::ExperimentConfig config;
    config.systemSize = n;
    config.broadcastProbability = 0.02;
    config.broadcastRounds = 25;
    config.seed = args.seed;
    if (!scenario.plan.empty()) config.faultPlan = &scenario.plan;

    const auto result = runSeries(scenario.name, config, args);
    printJson(scenario.name, result);
    // Total order must hold unconditionally; dissemination guarantees
    // (agreement/validity) are judged over surviving processes and must
    // hold in this envelope too.
    if (!result.report.allPropertiesHold()) allHold = false;
    if (scenario.name == "control") {
      const double expected = static_cast<double>(result.report.eventsMeasured) *
                              static_cast<double>(result.finalSystemSize);
      simControlRate =
          expected > 0.0 ? static_cast<double>(result.report.deliveries) / expected : 0.0;
    }
  }

  // The same verdicts under malice: DESIGN.md §14's adversary against
  // the hardened ingress path and the BASALT sampler. Skipped under
  // --trace-out: the flood/equivocation scenarios emit millions of
  // attack events and the lineage trace grows to tens of GB — the
  // adversarial verdicts are gated by the untraced pass (CI runs both).
  const auto byzScenarios = buildByzScenarios();
  if (args.traceOut.empty()) {
    for (const auto& scenario : byzScenarios) {
      if (!runByzScenario(scenario, n, args)) allHold = false;
    }
  } else {
    std::fprintf(stderr,
                 "chaos_suite: skipping %zu Byzantine scenarios under "
                 "--trace-out (attack traffic makes traces unbounded)\n",
                 byzScenarios.size());
  }

  // The same verdicts over real sockets: the overload-hardened UDP
  // runtime under datagram-scale stress.
  auto udpScenarios = buildUdpScenarios();
  double udpControlRate = 0.0;
  for (auto& scenario : udpScenarios) {
    const auto result = runUdpScenario(scenario, args.seed, args);
    if (!result.holds()) allHold = false;
    if (scenario.name == "udp_control") udpControlRate = result.deliveryRate;
  }

  // Sim-vs-UDP convergence: both deployments must reach full delivery
  // in their fault-free control — a divergence means the transport layer
  // changed protocol behaviour, not just timing.
  const bool converged = simControlRate >= 1.0 && udpControlRate >= 1.0;
  std::printf(
      "{\"scenario\":\"sim_udp_convergence\",\"sim_delivery_rate\":%.4f,"
      "\"udp_delivery_rate\":%.4f,\"converged\":%s}\n",
      simControlRate, udpControlRate, converged ? "true" : "false");
  if (!converged) allHold = false;

  const std::size_t byzRan = args.traceOut.empty() ? byzScenarios.size() : 0;
  std::printf("chaos_suite %s: %zu scenarios\n", allHold ? "PASS" : "FAIL",
              scenarios.size() + byzRan + udpScenarios.size() + 1);
  return allHold ? 0 : 1;
}
