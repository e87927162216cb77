// Tests of the batched UDP I/O paths (recvmmsg/sendmmsg) and of
// UdpCluster's shard threads (DESIGN.md §16): batch receive
// semantics, per-message backoff classification in batch sends, and
// multi-shard clusters over the full protocol.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <thread>
#include <vector>

#include "codec/ball_codec.h"
#include "runtime/udp_cluster.h"
#include "runtime/udp_transport.h"
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

std::vector<std::byte> frameOf(std::uint32_t seq) {
  return codec::encodeBall(makeBall(seq));
}

TEST(UdpBatchReceive, DrainsQueuedDatagramsInOneCall) {
  UdpSocket sender;
  UdpSocket receiver;
  std::vector<std::vector<std::byte>> frames;
  for (std::uint32_t i = 0; i < 10; ++i) {
    frames.push_back(frameOf(i));
    ASSERT_TRUE(sender.sendTo(receiver.port(), frames.back()));
  }
  // Give loopback a moment to queue everything.
  std::vector<UdpSocket::Datagram> out;
  std::size_t got = 0;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (got < 10 && std::chrono::steady_clock::now() < deadline) {
    got += receiver.receiveBatch(out, 10 - got, /*timeoutMillis=*/100);
  }
  ASSERT_EQ(got, 10u);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].fromPort, sender.port());
    EXPECT_FALSE(out[i].truncated);
    const auto decoded = codec::decodeBall(out[i].bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.ball[0].id.sequence, i);
  }
}

TEST(UdpBatchReceive, RespectsMaxBatchAndAppends) {
  UdpSocket sender;
  UdpSocket receiver;
  std::vector<std::vector<std::byte>> frames;
  for (std::uint32_t i = 0; i < 6; ++i) {
    frames.push_back(frameOf(i));
    ASSERT_TRUE(sender.sendTo(receiver.port(), frames.back()));
  }
  std::vector<UdpSocket::Datagram> out;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (out.size() < 6 && std::chrono::steady_clock::now() < deadline) {
    const std::size_t got = receiver.receiveBatch(out, 2, /*timeoutMillis=*/100);
    EXPECT_LE(got, 2u);  // maxBatch caps every call
  }
  ASSERT_EQ(out.size(), 6u);  // appended across calls, nothing replaced
}

TEST(UdpBatchReceive, EmptySocketReturnsZeroWithoutBlocking) {
  UdpSocket receiver;
  std::vector<UdpSocket::Datagram> out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(receiver.receiveBatch(out, 32, /*timeoutMillis=*/0), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 100ms);
  EXPECT_TRUE(out.empty());
}

TEST(UdpBatchReceive, TruncationIsFlaggedPerDatagram) {
  UdpSocket sender;
  UdpSocket receiver(/*receiveBufferBytes=*/128);
  const auto small = frameOf(1);
  ASSERT_LE(small.size(), 128u);
  ASSERT_TRUE(sender.sendTo(receiver.port(), small));
  ASSERT_TRUE(sender.sendTo(receiver.port(), std::vector<std::byte>(512)));
  ASSERT_TRUE(sender.sendTo(receiver.port(), small));
  std::vector<UdpSocket::Datagram> out;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (out.size() < 3 && std::chrono::steady_clock::now() < deadline) {
    receiver.receiveBatch(out, 3 - out.size(), /*timeoutMillis=*/100);
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FALSE(out[0].truncated);
  EXPECT_TRUE(out[1].truncated);
  EXPECT_EQ(out[1].bytes.size(), 128u);  // surviving prefix only
  EXPECT_FALSE(out[2].truncated);
  // Each slot is copied out at its own received length: the short
  // datagrams on either side of the cut one come back exactly.
  EXPECT_EQ(out[0].bytes, small);
  EXPECT_EQ(out[2].bytes, small);
}

TEST(UdpBatchSend, WholeBatchArrivesAtItsTargets) {
  UdpSocket sender;
  UdpSocket receiverA;
  UdpSocket receiverB;
  std::vector<std::vector<std::byte>> frames;
  for (std::uint32_t i = 0; i < 8; ++i) frames.push_back(frameOf(i));
  std::vector<OutgoingDatagram> batch;
  for (std::uint32_t i = 0; i < 8; ++i) {
    batch.push_back(OutgoingDatagram{i % 2 == 0 ? receiverA.port() : receiverB.port(),
                                     &frames[i], false});
  }
  util::Rng rng(7);
  const BatchSendOutcome outcome =
      sendBatchWithBackoff(sender, batch, SendBackoffPolicy{}, rng);
  EXPECT_EQ(outcome.sent, 8u);
  EXPECT_EQ(outcome.transientLost, 0u);
  EXPECT_EQ(outcome.hardLost, 0u);
  EXPECT_GE(outcome.syscalls, 1u);
  std::vector<UdpSocket::Datagram> atA;
  std::vector<UdpSocket::Datagram> atB;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while ((atA.size() < 4 || atB.size() < 4) &&
         std::chrono::steady_clock::now() < deadline) {
    receiverA.receiveBatch(atA, 8, /*timeoutMillis=*/50);
    receiverB.receiveBatch(atB, 8, /*timeoutMillis=*/50);
  }
  ASSERT_EQ(atA.size(), 4u);
  ASSERT_EQ(atB.size(), 4u);
  // Interleaving split the batch by target but preserved per-target order.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(codec::decodeBall(atA[i].bytes).ball[0].id.sequence, 2 * i);
    EXPECT_EQ(codec::decodeBall(atB[i].bytes).ball[0].id.sequence, 2 * i + 1);
  }
}

TEST(UdpBatchSend, HardFailureSkipsTheMessageAndContinues) {
  UdpSocket sender;
  UdpSocket receiver;
  const auto good = frameOf(1);
  // Beyond the UDP payload limit: EMSGSIZE, a hard per-message failure.
  const std::vector<std::byte> oversized(kMaxUdpDatagramBytes + 1000);
  std::vector<OutgoingDatagram> batch{
      OutgoingDatagram{receiver.port(), &good, false},
      OutgoingDatagram{receiver.port(), &oversized, true},
      OutgoingDatagram{receiver.port(), &good, false},
  };
  util::Rng rng(11);
  const BatchSendOutcome outcome =
      sendBatchWithBackoff(sender, batch, SendBackoffPolicy{}, rng);
  EXPECT_EQ(outcome.sent, 2u);
  EXPECT_EQ(outcome.hardLost, 1u);
  EXPECT_EQ(outcome.transientLost, 0u);
  EXPECT_EQ(outcome.fragmentsSent, 0u);  // the only fragment was the lost one
  std::vector<UdpSocket::Datagram> got;
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (got.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    receiver.receiveBatch(got, 2, /*timeoutMillis=*/100);
  }
  EXPECT_EQ(got.size(), 2u);
}

TEST(UdpBatchSend, EmptyBatchIsANoOp) {
  UdpSocket sender;
  util::Rng rng(3);
  const BatchSendOutcome outcome =
      sendBatchWithBackoff(sender, {}, SendBackoffPolicy{}, rng);
  EXPECT_EQ(outcome.sent, 0u);
  EXPECT_EQ(outcome.syscalls, 0u);
}

// Nodes on two shards exchange every ball across the shard boundary
// and must still agree on one total order over real sockets.
TEST(UdpShardedCluster, DeliversTotalOrderAcrossTwoShards) {
  UdpClusterOptions options;
  options.nodeCount = 5;
  options.roundPeriod = 3ms;
  options.seed = 99;
  options.shardCount = 2;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 5; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 25u);
  EXPECT_TRUE(report.allPropertiesHold());
  EXPECT_EQ(cluster.shardCountUsed(), 2u);
}

TEST(UdpShardedCluster, ManyNodesPerShardStillQuiesce) {
  UdpClusterOptions options;
  options.nodeCount = 12;
  options.roundPeriod = 4ms;
  options.seed = 101;
  options.shardCount = 2;  // 6 nodes per shard
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 12; ++i) cluster.broadcast(i % 12);
  ASSERT_TRUE(cluster.awaitQuiescence(60s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 144u);
  EXPECT_TRUE(report.allPropertiesHold());
}

TEST(UdpShardedCluster, BatchHistogramsAreObserved) {
  UdpClusterOptions options;
  options.nodeCount = 4;
  options.roundPeriod = 3ms;
  options.seed = 55;
  options.shardCount = 1;
  UdpCluster cluster(options);
  cluster.start();
  for (std::size_t i = 0; i < 4; ++i) cluster.broadcast(i);
  ASSERT_TRUE(cluster.awaitQuiescence(30s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const std::string text = cluster.prometheusSnapshot();
  // The batched-I/O instruments are exported.
  EXPECT_NE(text.find("epto_udp_recv_batch_size_count"), std::string::npos);
  EXPECT_NE(text.find("epto_udp_send_batch_size_count"), std::string::npos);
  // Every ball this run sent went through the send aggregator.
  EXPECT_EQ(text.find("epto_udp_send_batch_size_count 0\n"), std::string::npos);
}

// With nothing to send, each shard should sleep from one round slot to
// the next. A millisecond poll timeout would spin through the last
// millisecond before every slot instead: over half a core for this
// cluster. At 8 ms rounds the rounds themselves stay near 0.1 cores
// even in a TSan build, well under the bound.
TEST(UdpShardedCluster, IdleShardsSleepUntilTheirNextRound) {
  UdpClusterOptions options;
  options.nodeCount = 6;
  options.shardCount = 3;
  options.roundPeriod = 8ms;
  options.seed = 23;
  UdpCluster cluster(options);
  cluster.start();
  std::this_thread::sleep_for(50ms);  // past thread start-up
  const std::clock_t cpuBefore = std::clock();
  const auto wallBefore = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(500ms);
  const double cpuSeconds =
      static_cast<double>(std::clock() - cpuBefore) / CLOCKS_PER_SEC;
  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wallBefore).count();
  cluster.stop();
  EXPECT_LT(cpuSeconds / wallSeconds, 0.3)
      << cpuSeconds << " s of process CPU over " << wallSeconds << " s";
}

// A burst far faster than the rounds piles up in each node's pending
// list; every request is still stamped, and so are requests made before
// start(), which wait for the node's first round.
TEST(UdpShardedCluster, BroadcastBurstAllDelivers) {
  UdpClusterOptions options;
  options.nodeCount = 2;
  options.roundPeriod = 3ms;
  options.seed = 77;
  UdpCluster cluster(options);
  cluster.broadcast(0);
  cluster.broadcast(1);
  cluster.start();
  for (int i = 0; i < 50; ++i) cluster.broadcast(static_cast<std::size_t>(i % 2));
  ASSERT_TRUE(cluster.awaitQuiescence(60s)) << cluster.lastQuiescenceReport();
  cluster.stop();
  const auto report = cluster.report();
  EXPECT_EQ(report.deliveries, 104u);
  EXPECT_TRUE(report.allPropertiesHold());
}

}  // namespace
}  // namespace epto::runtime
