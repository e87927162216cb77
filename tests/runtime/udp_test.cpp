// Tests of EpTO over real UDP sockets on loopback (§8.5), including the
// overload-hardening layer: fragmentation, truncation detection, send
// classification/backoff, bounded ingress, and the stall watchdog
// (DESIGN.md §10).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codec/ball_codec.h"
#include "core/config.h"
#include "core/ingress_guard.h"
#include "codec/fragment_codec.h"
#include "runtime/udp_cluster.h"
#include "runtime/udp_transport.h"
#include "util/ensure.h"
#include "util/rng.h"

namespace epto::runtime {
namespace {

using namespace std::chrono_literals;

Ball makeBall(std::uint32_t seq) {
  Ball ball;
  Event e;
  e.id = EventId{1, seq};
  e.ts = 10 + seq;
  e.ttl = 2;
  ball.push_back(e);
  return ball;
}

PayloadPtr makePayload(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  PayloadBytes bytes(size);
  for (auto& b : bytes) b = static_cast<std::byte>(rng.below(256));
  return std::make_shared<const PayloadBytes>(std::move(bytes));
}

TEST(UdpSocket, BindsToDistinctLoopbackPorts) {
  UdpSocket a;
  UdpSocket b;
  EXPECT_GT(a.port(), 0);
  EXPECT_GT(b.port(), 0);
  EXPECT_NE(a.port(), b.port());
}

TEST(UdpSocket, DatagramRoundTrip) {
  UdpSocket sender;
  UdpSocket receiver;
  ASSERT_TRUE(sendBall(sender, receiver.port(), makeBall(7)));
  const auto datagram = receiver.receive(2000);
  ASSERT_TRUE(datagram.has_value());
  EXPECT_FALSE(datagram->truncated);
  EXPECT_EQ(datagram->fromPort, sender.port());
  const auto decoded = codec::decodeBall(datagram->bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.ball.size(), 1u);
  EXPECT_EQ(decoded.ball[0].id.sequence, 7u);
  EXPECT_EQ(decoded.ball[0].ts, 17u);
}

TEST(UdpSocket, ReceiveTimesOutWhenQuiet) {
  UdpSocket socket;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(socket.receive(30).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 25ms);
}

TEST(UdpSocket, ManyDatagramsArrive) {
  UdpSocket sender;
  UdpSocket receiver;
  for (std::uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(sendBall(sender, receiver.port(), makeBall(i)));
  }
  int received = 0;
  while (receiver.receive(100).has_value()) ++received;
  // Loopback UDP can drop under pressure, but most must land.
  EXPECT_GE(received, 40);
}

TEST(UdpSocket, GarbageDatagramFailsValidationNotCrash) {
  UdpSocket sender;
  UdpSocket receiver;
  ASSERT_TRUE(sender.sendTo(receiver.port(),
                            {std::byte{0xDE}, std::byte{0xAD}, std::byte{0xBE}}));
  const auto datagram = receiver.receive(2000);
  ASSERT_TRUE(datagram.has_value());
  EXPECT_FALSE(codec::decodeBall(datagram->bytes).ok());
}

TEST(UdpSocket, OversizedDatagramIsFlaggedTruncated) {
  UdpSocket sender;
  UdpSocket receiver(/*receiveBufferBytes=*/128);
  ASSERT_TRUE(sender.sendTo(receiver.port(), std::vector<std::byte>(512)));
  const auto datagram = receiver.receive(2000);
  ASSERT_TRUE(datagram.has_value());
  EXPECT_TRUE(datagram->truncated);
  EXPECT_EQ(datagram->bytes.size(), 128u);  // MSG_TRUNC keeps the prefix
}

TEST(UdpSocket, SendBeyondUdpLimitIsAHardFailure) {
  UdpSocket sender;
  UdpSocket receiver;
  // 70000 bytes exceed what a UDP datagram can carry: EMSGSIZE, which
  // no amount of retrying fixes.
  const std::vector<std::byte> frame(70'000);
  EXPECT_EQ(sender.trySendTo(receiver.port(), frame), SendStatus::Hard);
  EXPECT_FALSE(sender.sendTo(receiver.port(), frame));
}

TEST(UdpSocket, BackoffDoesNotRetryHardFailures) {
  UdpSocket sender;
  UdpSocket receiver;
  util::Rng rng(1);
  SendBackoffPolicy policy;
  policy.maxAttempts = 5;
  const auto outcome =
      sendWithBackoff(sender, receiver.port(), std::vector<std::byte>(70'000),
                      policy, rng);
  EXPECT_EQ(outcome.status, SendStatus::Hard);
  EXPECT_EQ(outcome.retries, 0);
}

TEST(UdpSocket, BackoffDeliversOrdinaryDatagrams) {
  UdpSocket sender;
  UdpSocket receiver;
  util::Rng rng(2);
  const auto outcome = sendWithBackoff(sender, receiver.port(),
                                       codec::encodeBall(makeBall(3)),
                                       SendBackoffPolicy{}, rng);
  EXPECT_EQ(outcome.status, SendStatus::Sent);
  EXPECT_TRUE(receiver.receive(2000).has_value());
}

TEST(UdpCluster, TotalOrderOverRealSockets) {
  UdpClusterOptions options;
  options.nodeCount = 6;
  options.roundPeriod = 4ms;
  options.seed = 11;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 6; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.broadcasts, 6u);
  EXPECT_EQ(report.deliveries, 36u);
  EXPECT_EQ(report.orderViolations, 0u);
  EXPECT_EQ(report.integrityViolations, 0u);
  EXPECT_EQ(report.holes, 0u);
  EXPECT_EQ(cluster.framesRejected(), 0u);
}

// Two waves from every node, the second a couple of rounds after the
// first: every node delivers all sixteen events, once each, in one order.
TEST(UdpCluster, DeliversEverythingEverywhereInOrder) {
  UdpClusterOptions options;
  options.nodeCount = 8;
  options.roundPeriod = 3ms;
  options.seed = 7;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i);
  std::this_thread::sleep_for(6ms);
  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.broadcasts, 16u);
  EXPECT_EQ(report.deliveries, 16u * 8u);
  EXPECT_EQ(report.orderViolations, 0u);
  EXPECT_EQ(report.integrityViolations, 0u);
  EXPECT_EQ(report.validityViolations, 0u);
  EXPECT_EQ(report.holes, 0u);
}

// Every ball crosses the wire as a codec frame: encoded on send,
// CRC-checked and decoded on receive, then inspected by the ingress
// guard — payloads included.
TEST(UdpCluster, SerializedFramesRoundTripEndToEnd) {
  UdpClusterOptions options;
  options.nodeCount = 8;
  options.roundPeriod = 3ms;
  options.seed = 7;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i, makePayload(32 * (i + 1), i));
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 8u * 8u);
  EXPECT_TRUE(report.allPropertiesHold());
  EXPECT_GT(cluster.ingressGuardStats().ballsInspected, 0u);
  EXPECT_EQ(cluster.framesRejected(), 0u);
  EXPECT_EQ(cluster.truncatedDatagrams(), 0u);
}

// In-flight corruption behaves like loss: a bit-flipped ball frame and a
// bit-flipped fragment fail their CRC and are counted and dropped before
// anything reaches the protocol, so no verdict ever notices them.
TEST(UdpCluster, CorruptedFramesAreDetectedAndDropped) {
  UdpClusterOptions options;
  options.nodeCount = 8;
  options.roundPeriod = 3ms;
  options.seed = 7;
  UdpCluster cluster(options);
  cluster.start();

  std::vector<std::byte> ballFrame =
      codec::encodeBall(makeBall(900), codec::EncodeOptions{.lineage = true});
  ballFrame[ballFrame.size() / 2] ^= std::byte{0x10};
  Ball jumbo = makeBall(901);
  jumbo[0].payload = makePayload(4 * options.mtuBytes, 901);
  auto fragments = codec::fragmentFrame(
      codec::encodeBall(jumbo, codec::EncodeOptions{.lineage = true}), options.mtuBytes,
      /*ballId=*/901);
  ASSERT_GT(fragments.size(), 1u);
  fragments[1][fragments[1].size() / 2] ^= std::byte{0x10};
  UdpSocket attacker;
  ASSERT_TRUE(attacker.sendTo(cluster.nodePort(0), ballFrame));
  ASSERT_TRUE(attacker.sendTo(cluster.nodePort(0), fragments[1]));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (cluster.framesRejected() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }

  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 8u * 8u);
  EXPECT_TRUE(report.allPropertiesHold());
  // Exactly the two corrupted datagrams: honest frames all validate.
  EXPECT_EQ(cluster.framesRejected(), 2u);
}

TEST(UdpCluster, ConcurrentBroadcastersFromManyThreads) {
  UdpClusterOptions options;
  options.nodeCount = 6;
  options.roundPeriod = 3ms;
  options.seed = 7;
  UdpCluster cluster(options);
  cluster.start();
  std::vector<std::thread> apps;
  for (std::size_t node = 0; node < 6; ++node) {
    apps.emplace_back([&cluster, node] {
      for (int i = 0; i < 3; ++i) cluster.broadcast(node);
    });
  }
  for (auto& t : apps) t.join();
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.broadcasts, 18u);
  EXPECT_EQ(report.deliveries, 18u * 6u);
  EXPECT_EQ(report.orderViolations, 0u);
  EXPECT_EQ(report.integrityViolations, 0u);
}

TEST(UdpCluster, GlobalClockModeOverSockets) {
  UdpClusterOptions options;
  options.nodeCount = 5;
  options.roundPeriod = 4ms;
  options.clockMode = ClockMode::Global;
  options.seed = 13;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 5; ++i) cluster.broadcast(i % 5);
  ASSERT_TRUE(cluster.awaitQuiescence(30s));
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 25u);
  EXPECT_TRUE(report.allPropertiesHold());
}

// Every node stamps its events from the one shared steady clock; two
// back-to-back broadcasts per node still deliver in one total order.
TEST(UdpCluster, GlobalClockModeWorksWithSharedSteadyClock) {
  UdpClusterOptions options;
  options.nodeCount = 6;
  options.roundPeriod = 3ms;
  options.clockMode = ClockMode::Global;
  options.seed = 7;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 6; ++i) {
    cluster.broadcast(i);
    cluster.broadcast(i);
  }
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.broadcasts, 12u);
  EXPECT_EQ(report.deliveries, 12u * 6u);
  EXPECT_EQ(report.orderViolations, 0u);
  EXPECT_EQ(report.holes, 0u);
}

// The tentpole end-to-end: balls far beyond the 64 KiB datagram limit
// must be fragmented, survive the wire, reassemble and deliver with
// every Table 1 verdict green.
TEST(UdpCluster, JumboBallsDeliverThroughFragmentation) {
  UdpClusterOptions options;
  options.nodeCount = 4;
  options.roundPeriod = 8ms;
  options.seed = 17;
  UdpCluster cluster(options);
  cluster.start();
  cluster.broadcast(0, makePayload(100'000, 170));
  cluster.broadcast(1, makePayload(100'000, 171));
  ASSERT_TRUE(cluster.awaitQuiescence(60s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 8u);
  EXPECT_TRUE(report.allPropertiesHold());
  EXPECT_GT(cluster.ballsFragmented(), 0u);
  EXPECT_GT(cluster.fragmentsSent(), 0u);
  EXPECT_GT(cluster.ballsReassembled(), 0u);
  EXPECT_EQ(cluster.framesRejected(), 0u);
  EXPECT_EQ(cluster.truncatedDatagrams(), 0u);
}

// Overload flood: a tight ingress bound with a tiny drain budget under
// all-to-all gossip. The queue must respect its bound and the protocol
// must still converge to green verdicts — shedding costs redundancy,
// not correctness.
TEST(UdpCluster, IngressBoundHoldsUnderFloodAndVerdictsStayGreen) {
  UdpClusterOptions options;
  options.nodeCount = 8;
  options.roundPeriod = 4ms;
  options.fanoutOverride = 7;
  options.ingressCapacity = 4;
  options.ingressDrainBudget = 1;
  options.seed = 19;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 8; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(60s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 64u);
  EXPECT_TRUE(report.allPropertiesHold());
  EXPECT_LE(cluster.ingressHighWater(), 4u);
}

// A round period far below what one loop iteration costs makes every
// round a miss; the watchdog must fire, force-drain, and the cluster
// must still deliver everything (recovery processes the backlog, it
// never discards it).
TEST(UdpCluster, WatchdogRecoversAnOverdrivenSchedule) {
  UdpClusterOptions options;
  options.nodeCount = 3;
  options.roundPeriod = std::chrono::microseconds{20};
  options.watchdogMissedRounds = 2;
  options.seed = 23;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 3; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 9u);
  EXPECT_TRUE(report.allPropertiesHold());
  EXPECT_GT(cluster.watchdogRecoveries(), 0u);
}

TEST(UdpCluster, ExportsLabeledTransportCounters) {
  UdpClusterOptions options;
  options.nodeCount = 3;
  options.roundPeriod = 4ms;
  options.seed = 29;
  UdpCluster cluster(options);
  cluster.start();
  cluster.broadcast(0);
  ASSERT_TRUE(cluster.awaitQuiescence(30s));
  cluster.stop();
  const std::string snapshot = cluster.prometheusSnapshot();
  EXPECT_NE(snapshot.find("epto_udp_send_failures_total{cause=\"transient\"}"),
            std::string::npos);
  EXPECT_NE(snapshot.find("epto_udp_send_failures_total{cause=\"hard\"}"),
            std::string::npos);
  EXPECT_NE(snapshot.find("epto_udp_truncated_total"), std::string::npos);
  EXPECT_NE(snapshot.find("epto_udp_ingress_shed_total"), std::string::npos);
  EXPECT_NE(snapshot.find("epto_udp_watchdog_recoveries_total"), std::string::npos);
  EXPECT_NE(snapshot.find("epto_ingress_rejected_total{cause=\"lineage\"}"),
            std::string::npos);
  EXPECT_NE(snapshot.find("epto_ingress_rejected_total{cause=\"equivocation\"}"),
            std::string::npos);
  // Per-node labeling: each node reports its own delivery of the one
  // broadcast, and node 0 its broadcast.
  for (int node = 0; node < 3; ++node) {
    const std::string line = "epto_ordering_delivered_ordered_total{node=\"" +
                             std::to_string(node) + "\"} 1";
    EXPECT_NE(snapshot.find(line), std::string::npos) << "missing: " << line;
  }
  EXPECT_NE(snapshot.find("epto_dissemination_broadcasts_total{node=\"0\"} 1"),
            std::string::npos);
}

TEST(UdpCluster, PrometheusSnapshotCoversEveryProtocolCounter) {
  UdpClusterOptions options;
  options.nodeCount = 4;
  options.roundPeriod = 3ms;
  options.seed = 7;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 4; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();

  const std::string text = cluster.prometheusSnapshot();
  // Every OrderingStats / DisseminationStats counter plus the wire totals
  // must appear as a Prometheus family.
  for (const char* family :
       {"epto_ordering_rounds_total", "epto_ordering_delivered_ordered_total",
        "epto_ordering_delivered_out_of_order_total",
        "epto_ordering_dropped_out_of_order_total",
        "epto_ordering_dropped_duplicates_total", "epto_ordering_ttl_merges_total",
        "epto_ordering_received_high_water", "epto_dissemination_broadcasts_total",
        "epto_dissemination_balls_received_total", "epto_dissemination_balls_sent_total",
        "epto_dissemination_events_relayed_total",
        "epto_dissemination_events_expired_total", "epto_dissemination_rounds_total",
        "epto_dissemination_max_ball_size", "epto_received_set_size",
        "epto_pending_relay_count", "epto_last_delivered_ts", "epto_last_delivered_lag",
        "epto_udp_frames_rejected_total", "epto_udp_fragments_sent_total",
        "epto_udp_send_batch_size", "epto_udp_recv_batch_size"}) {
    EXPECT_NE(text.find(std::string("# TYPE ") + family + " "), std::string::npos)
        << "missing family: " << family;
  }
  // Per-node labeling: each of the four nodes reports its delivery count.
  for (int node = 0; node < 4; ++node) {
    const std::string line = "epto_ordering_delivered_ordered_total{node=\"" +
                             std::to_string(node) + "\"} 4";
    EXPECT_NE(text.find(line), std::string::npos) << "missing: " << line;
  }
}

// --- hostile-frame injection (ISSUE 7: the runtime half of the ---------
// --- adversary model: a guard between decode and the protocol) ---------

/// Craft a v2 wire frame around `ball` and fire it at `port` from an
/// attacker-owned socket (a well-formed frame the codec will happily
/// decode — only the ingress guard stands between it and the protocol).
void injectFrame(UdpSocket& attacker, std::uint16_t port, const Ball& ball) {
  ASSERT_TRUE(attacker.sendTo(
      port, codec::encodeBall(ball, codec::EncodeOptions{.lineage = true})));
}

/// Poll the cluster's aggregated guard stats until `done` or deadline.
template <typename Predicate>
bool awaitGuardStats(const UdpCluster& cluster, Predicate done,
                     std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done(cluster.ingressGuardStats())) return true;
    std::this_thread::sleep_for(2ms);
  }
  return done(cluster.ingressGuardStats());
}

TEST(UdpClusterByzantine, ForgedLineageAndUnknownSourcesAreRejectedWhole) {
  UdpClusterOptions options;
  options.nodeCount = 4;
  options.roundPeriod = 4ms;
  options.ttlOverride = 6;
  options.seed = 31;
  UdpCluster cluster(options);
  cluster.start();

  UdpSocket attacker;
  const std::uint16_t victim = cluster.nodePort(0);
  // hop > ttl: impossible for any honest relay chain.
  {
    Ball ball = makeBall(100);
    ball[0].ttl = 3;
    ball[0].hop = 9;
    injectFrame(attacker, victim, ball);
  }
  // ttl beyond the protocol TTL: forged aging.
  {
    Ball ball = makeBall(101);
    ball[0].ttl = 40;
    injectFrame(attacker, victim, ball);
  }
  // A source id outside the static membership.
  {
    Ball ball = makeBall(102);
    ball[0].id.source = 99;
    injectFrame(attacker, victim, ball);
  }
  EXPECT_TRUE(awaitGuardStats(
      cluster,
      [](const core::IngressStats& stats) {
        return stats.ballsRejectedLineage >= 2 &&
               stats.ballsRejectedUnknownSource >= 1;
      },
      5s))
      << "rejections never surfaced";

  // Honest traffic is untouched by the hostile noise.
  for (std::size_t i = 0; i < 4; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 16u);
  EXPECT_TRUE(report.allPropertiesHold());
  // The frames parsed fine — they fell to the guard, not the codec.
  EXPECT_EQ(cluster.framesRejected(), 0u);
  EXPECT_GE(cluster.ingressRejected(), 3u);
}

TEST(UdpClusterByzantine, EquivocatingVariantsAreFilteredAtIngress) {
  UdpClusterOptions options;
  options.nodeCount = 3;
  options.roundPeriod = 4ms;
  options.ttlOverride = 6;
  options.seed = 37;
  UdpCluster cluster(options);
  cluster.start();

  UdpSocket attacker;
  const std::uint16_t victim = cluster.nodePort(0);
  // Two divergent payloads under one EventId and incarnation: the first
  // variant wins, every later divergent copy is filtered event-by-event.
  Ball variantA = makeBall(500);
  variantA.back().payload = makePayload(16, 1);
  Ball variantB = makeBall(500);
  variantB.back().payload = makePayload(16, 2);
  injectFrame(attacker, victim, variantA);
  for (int i = 0; i < 5; ++i) injectFrame(attacker, victim, variantB);

  EXPECT_TRUE(awaitGuardStats(
      cluster,
      [](const core::IngressStats& stats) {
        return stats.eventsFilteredEquivocation >= 1;
      },
      5s))
      << "equivocation filter never fired";
  cluster.stop();
}

TEST(UdpClusterByzantine, RateCapShedsAConcentratedFlood) {
  UdpClusterOptions options;
  options.nodeCount = 3;
  options.roundPeriod = 4ms;
  options.ttlOverride = 6;
  options.ingressRateCap = 4;
  options.seed = 41;
  UdpCluster cluster(options);
  cluster.start();

  UdpSocket attacker;
  const std::uint16_t victim = cluster.nodePort(0);
  // Every flood ball is also lineage-forged, so the ones under the cap
  // are rejected too — no junk is ever admitted to the protocol.
  for (std::uint32_t i = 0; i < 64; ++i) {
    Ball ball = makeBall(1000 + i);
    ball[0].ttl = 2;
    ball[0].hop = 7;
    injectFrame(attacker, victim, ball);
  }
  EXPECT_TRUE(awaitGuardStats(
      cluster,
      [](const core::IngressStats& stats) {
        return stats.ballsRejectedRate >= 1;
      },
      5s))
      << "rate cap never tripped";

  for (std::size_t i = 0; i < 3; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  EXPECT_TRUE(cluster.report().allPropertiesHold());
}

TEST(UdpClusterByzantine, GuardCanBeDisabledForMixedFleets) {
  UdpClusterOptions options;
  options.nodeCount = 3;
  options.roundPeriod = 4ms;
  options.hardenIngress = false;
  options.seed = 43;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 3; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s));
  cluster.stop();
  EXPECT_TRUE(cluster.report().allPropertiesHold());
  EXPECT_EQ(cluster.ingressGuardStats().ballsInspected, 0u);
}

TEST(UdpCluster, StopIsIdempotent) {
  UdpClusterOptions options;
  options.nodeCount = 3;
  options.roundPeriod = 3ms;
  UdpCluster cluster(options);
  // The derived K and TTL are exposed, and a report before any traffic
  // is clean.
  EXPECT_GE(cluster.fanoutUsed(), 1u);
  EXPECT_LE(cluster.fanoutUsed(), 2u);
  EXPECT_GE(cluster.ttlUsed(), 1u);
  const auto before = cluster.report();
  EXPECT_EQ(before.broadcasts, 0u);
  EXPECT_TRUE(before.allPropertiesHold());
  cluster.start();
  cluster.broadcast(0);
  cluster.stop();
  cluster.stop();  // no-op; the destructor runs stop() once more
}

TEST(UdpCluster, StopIsIdempotentAndDestructorSafe) {
  UdpClusterOptions options;
  options.nodeCount = 4;
  options.roundPeriod = 3ms;
  {
    UdpCluster idle(options);  // never started: nothing to stop
  }
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 4; ++i) cluster.broadcast(i);
  // No stop(): the destructor must join the shards with traffic in
  // flight, without hanging or crashing.
}

TEST(UdpCluster, ReportBeforeAnyTrafficIsClean) {
  UdpClusterOptions options;
  options.nodeCount = 4;
  options.roundPeriod = 3ms;
  UdpCluster cluster(options);
  EXPECT_EQ(cluster.report().broadcasts, 0u);
  EXPECT_TRUE(cluster.report().allPropertiesHold());
  // Rounds that gossip nothing leave it clean too.
  cluster.start();
  EXPECT_TRUE(cluster.awaitQuiescence(1s)) << cluster.lastQuiescenceReport();
  std::this_thread::sleep_for(15ms);
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.broadcasts, 0u);
  EXPECT_EQ(report.deliveries, 0u);
  EXPECT_TRUE(report.allPropertiesHold());
}

TEST(UdpCluster, DerivedParametersExposed) {
  UdpClusterOptions options;
  options.nodeCount = 8;
  const UdpCluster derived(options);
  const Config expected =
      Config::forSystemSize(8, options.clockMode, Robustness{.c = options.c});
  EXPECT_EQ(derived.fanoutUsed(), expected.fanout);
  EXPECT_EQ(derived.ttlUsed(), expected.ttl);
  EXPECT_GE(derived.fanoutUsed(), 1u);
  EXPECT_LE(derived.fanoutUsed(), 7u);
  EXPECT_GE(derived.ttlUsed(), 1u);
  // Overrides replace the derived values.
  options.fanoutOverride = 5;
  options.ttlOverride = 9;
  const UdpCluster overridden(options);
  EXPECT_EQ(overridden.fanoutUsed(), 5u);
  EXPECT_EQ(overridden.ttlUsed(), 9u);
}

TEST(UdpCluster, RejectsDegenerateOptions) {
  {
    UdpClusterOptions options;
    options.nodeCount = 1;
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
  {
    UdpClusterOptions options;
    options.mtuBytes = codec::kMinFragmentMtu - 1;
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
  {
    UdpClusterOptions options;
    options.mtuBytes = kMaxUdpDatagramBytes + 1;
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
  {
    UdpClusterOptions options;
    options.ingressCapacity = 0;
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
  {
    UdpClusterOptions options;
    options.ingressDrainBudget = 0;
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
  {
    UdpClusterOptions options;
    options.reassemblyTtlRounds = 0;
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
  {
    UdpClusterOptions options;
    options.sendBackoff.maxAttempts = 0;
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
  {
    UdpClusterOptions options;
    options.sendBackoff.multiplier = 0.5;
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
}

// The rest of what the constructor validates.
TEST(UdpCluster, RejectsBadOptions) {
  {
    UdpClusterOptions options;
    options.nodeCount = 0;
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
  {
    UdpClusterOptions options;
    options.roundPeriod = std::chrono::microseconds{0};
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
  {
    UdpClusterOptions options;
    options.reassemblyCapacity = 0;
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
  {
    UdpClusterOptions options;
    options.sendBackoff.initialDelay = std::chrono::microseconds{-1};
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
  {
    UdpClusterOptions options;
    options.mailboxCapacity = 0;
    EXPECT_THROW(UdpCluster{options}, util::ContractViolation);
  }
}

}  // namespace
}  // namespace epto::runtime
