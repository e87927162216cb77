// UdpCluster — EpTO over real UDP sockets on loopback (paper §8.5).
//
// The repository's one real-thread runtime: every node owns a UDP
// socket; balls are serialized through the wire codec into datagrams;
// nothing but the OS network stack sits between processes. A fixed
// ShardedExecutor pool (DESIGN.md §16) drives the nodes — each shard
// owns a contiguous slice and runs its nodes' receive, ingest and round
// work on one thread — so the sans-io core again needs no locks.
//
// Overload hardening (DESIGN.md §10): balls larger than the MTU are
// fragmented (codec/fragment_codec.h) and reassembled per node with
// TTL/capacity-bounded partial state (runtime/reassembly.h); decoded
// balls pass through a bounded ingress queue that sheds oldest-first
// under flood (runtime/ingress_queue.h); transient send refusals are
// retried with jittered backoff (runtime/udp_transport.h); and a stall
// watchdog (runtime/stall_watchdog.h) force-drains a node that keeps
// missing its round deadline. Every shed, retry, truncation and
// recovery is counted and exported through epto_obs.
//
// Membership is a static port table exchanged at startup — a real
// deployment would gossip addresses through the PSS; the protocol logic
// is identical.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include <string>

#include <unordered_map>

#include "adapt/controller.h"
#include "core/ingress_guard.h"
#include "core/process.h"
#include "fault/fault_controller.h"
#include "fault/fault_plan.h"
#include "metrics/delivery_tracker.h"
#include "metrics/quiescence.h"
#include "obs/latency.h"
#include "obs/registry.h"
#include "obs/scrape.h"
#include "runtime/ingress_queue.h"
#include "runtime/reassembly.h"
#include "runtime/sharded_executor.h"
#include "runtime/stall_watchdog.h"
#include "runtime/udp_transport.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace epto::runtime {

struct UdpClusterOptions {
  std::size_t nodeCount = 6;
  std::chrono::microseconds roundPeriod{4000};
  double roundJitter = 0.05;
  ClockMode clockMode = ClockMode::Logical;
  double c = 2.0;
  std::optional<std::size_t> fanoutOverride;
  std::optional<std::uint32_t> ttlOverride;
  /// Scheduled fault injection (fault/fault_plan.h); timestamps are in
  /// microseconds since start(). Crashed nodes stop receiving and
  /// sending; their socket stays bound, and the backlog is discarded
  /// when they rejoin with fresh state. Delay spikes are enforced by
  /// holding outgoing datagrams back at the sender. Burst-loss trials
  /// roll per datagram, i.e. at fragment granularity for fragmented
  /// balls. Must outlive the cluster.
  const fault::FaultPlan* faultPlan = nullptr;
  std::uint64_t seed = 42;
  /// Background metrics scrape. 0 disables the thread unless
  /// metricsOutPath is set (then a 100ms default applies).
  std::chrono::milliseconds scrapeInterval{0};
  /// JSONL time-series destination; empty = no file output.
  std::string metricsOutPath;

  // --- transport hardening (all validated at construction) -------------
  /// Largest datagram the cluster emits; ball frames beyond it are
  /// fragmented. Also sizes the receive buffer, so an over-MTU datagram
  /// from a misconfigured peer is counted as truncated, not silently
  /// mis-parsed. In [codec::kMinFragmentMtu, kMaxUdpDatagramBytes].
  std::size_t mtuBytes = 1400;
  /// Decoded balls buffered per node before oldest-first shedding.
  std::size_t ingressCapacity = 1024;
  /// Balls handed to the protocol per loop iteration — bounds the time
  /// the node spends processing before it re-checks its round deadline.
  std::size_t ingressDrainBudget = 256;
  /// Partial (fragmented, incomplete) frames held per node.
  std::size_t reassemblyCapacity = 64;
  /// Rounds a partial frame may sit idle before eviction.
  std::uint32_t reassemblyTtlRounds = 8;
  /// Consecutive rounds late by more than a full period before the
  /// watchdog forces recovery (drain backlog, reset schedule). 0 = off.
  std::uint32_t watchdogMissedRounds = 3;
  /// Retry schedule for transient send refusals (EAGAIN/ENOBUFS).
  SendBackoffPolicy sendBackoff{};
  /// Speculative delivery (core/speculation.h): Fast-class broadcasts
  /// surface ahead of the committed frontier with confirm/revoke
  /// notifications; committed delivery is unaffected.
  bool speculation = false;
  double speculationThreshold = 0.9;
  std::size_t speculationWindow = 64;
  /// Online TTL/K feedback control (adapt/controller.h) per node, off
  /// the observed ball-arrival shortfall, within Lemma-safe bounds.
  bool adaptive = false;
  double adaptiveWorstCaseLoss = 0.15;
  double adaptiveInitialLoss = 0.0;
  /// Route every decoded ball through an IngressGuard before it reaches
  /// the ingress queue (core/ingress_guard.h): lineage sanity (hop <=
  /// ttl, ttl within the protocol TTL), plausible originRound, sources
  /// within the static membership, equivocation/incarnation filtering.
  /// A datagram that merely parsed is still attacker-controlled input;
  /// the guard is what makes its fields trustworthy.
  bool hardenIngress = true;
  /// Per-sender (UDP source port) balls admitted between round
  /// boundaries; 0 disables the rate cap. Off by default: a node
  /// catching up after a stall legitimately processes many rounds worth
  /// of backlog from each peer in one window, and the ingress queue
  /// already bounds total buffering.
  std::uint32_t ingressRateCap = 0;
  /// When non-empty, the flight recorder (obs/flight_recorder.h) is
  /// dumped to this JSONL file whenever the stall watchdog forces a
  /// recovery or a fault-plan crash takes a node down (and on demand via
  /// dumpFlightRecorder()).
  std::string flightDumpPath;

  // --- execution model (DESIGN.md §16) ---------------------------------
  /// Worker shards; 0 = hardware_concurrency (clamped to nodeCount).
  std::size_t shardCount = 0;
  /// Capacity of each shard's SPSC command mailbox (broadcast requests).
  std::size_t mailboxCapacity = 1024;
};

class UdpCluster {
 public:
  explicit UdpCluster(UdpClusterOptions options);
  ~UdpCluster();

  UdpCluster(const UdpCluster&) = delete;
  UdpCluster& operator=(const UdpCluster&) = delete;

  void start();

  /// Ask node `index` to broadcast before its next round (thread-safe).
  /// A request that reaches a crashed node is discarded, never injected.
  /// Fast-class broadcasts are eligible for speculative delivery (no-op
  /// unless options.speculation is on).
  void broadcast(std::size_t index, PayloadPtr payload = {},
                 QosClass qos = QosClass::Safe);

  /// Block until every broadcast has been delivered by every node that
  /// still owes it (crashed nodes owe nothing; restarted nodes only owe
  /// events broadcast after they rejoined), or timeout.
  bool awaitQuiescence(std::chrono::milliseconds timeout) EPTO_EXCLUDES(trackerMutex_);

  /// Diagnosis of the most recent awaitQuiescence() timeout ("" after a
  /// successful wait).
  [[nodiscard]] std::string lastQuiescenceReport() const EPTO_EXCLUDES(trackerMutex_);

  /// Signal and join all shard threads. Idempotent.
  void stop();

  [[nodiscard]] metrics::TrackerReport report() const EPTO_EXCLUDES(trackerMutex_);
  [[nodiscard]] std::size_t fanoutUsed() const noexcept { return fanout_; }
  [[nodiscard]] std::uint32_t ttlUsed() const noexcept { return ttl_; }
  /// Worker shards actually running.
  [[nodiscard]] std::size_t shardCountUsed() const noexcept { return executor_->shardCount(); }
  /// Broadcast commands refused by a full shard mailbox (each was
  /// retried until accepted; this counts the backpressure events).
  [[nodiscard]] std::uint64_t mailboxPostRejections() const noexcept {
    return executor_->postRejections();
  }
  /// Datagrams that arrived but failed frame validation.
  [[nodiscard]] std::uint64_t framesRejected() const noexcept {
    return framesRejected_.load();
  }
  /// Datagrams the kernel truncated to the receive buffer (MSG_TRUNC).
  [[nodiscard]] std::uint64_t truncatedDatagrams() const noexcept {
    return truncatedDatagrams_.load();
  }
  /// Datagrams lost to the OS refusing the send: transient refusals that
  /// survived the whole backoff schedule, and hard refusals.
  [[nodiscard]] std::uint64_t sendFailures() const noexcept {
    return sendFailuresTransient_.load() + sendFailuresHard_.load();
  }
  [[nodiscard]] std::uint64_t sendFailuresTransient() const noexcept {
    return sendFailuresTransient_.load();
  }
  [[nodiscard]] std::uint64_t sendFailuresHard() const noexcept {
    return sendFailuresHard_.load();
  }
  /// Backoff sleeps taken for transient refusals (whether or not the
  /// retry eventually succeeded).
  [[nodiscard]] std::uint64_t sendRetries() const noexcept { return sendRetries_.load(); }
  /// Balls whose frame exceeded the MTU and was split into fragments.
  [[nodiscard]] std::uint64_t ballsFragmented() const noexcept {
    return ballsFragmented_.load();
  }
  [[nodiscard]] std::uint64_t fragmentsSent() const noexcept {
    return fragmentsSent_.load();
  }
  [[nodiscard]] std::uint64_t fragmentsReceived() const noexcept {
    return fragmentsReceived_.load();
  }
  /// Frames fully reassembled from fragments.
  [[nodiscard]] std::uint64_t ballsReassembled() const noexcept {
    return ballsReassembled_.load();
  }
  /// Partial frames evicted after sitting idle for the reassembly TTL.
  [[nodiscard]] std::uint64_t reassemblyExpired() const noexcept {
    return reassemblyExpired_.load();
  }
  /// Partial frames displaced by the reassembly capacity bound.
  [[nodiscard]] std::uint64_t reassemblyShed() const noexcept {
    return reassemblyShed_.load();
  }
  /// Balls shed oldest-first by a full ingress queue.
  [[nodiscard]] std::uint64_t ingressShed() const noexcept { return ingressShed_.load(); }
  /// Aggregate ingress-guard verdicts across all nodes (zeroes when
  /// hardenIngress is off). Published as
  /// `epto_ingress_rejected_total{cause=...}`.
  [[nodiscard]] core::IngressStats ingressGuardStats() const noexcept;
  /// Balls dropped whole by the ingress guard (lineage/origin_round/
  /// rate/unknown_source).
  [[nodiscard]] std::uint64_t ingressRejected() const noexcept {
    return ingressGuardStats().ballsRejected();
  }
  /// The loopback UDP port node `index` is bound to — where peers (and
  /// chaos tests injecting hostile frames) address it.
  [[nodiscard]] std::uint16_t nodePort(std::size_t index) const;
  /// Deepest any node's ingress queue has been — never exceeds
  /// UdpClusterOptions::ingressCapacity.
  [[nodiscard]] std::uint64_t ingressHighWater() const noexcept {
    return ingressHighWater_.load();
  }
  /// Forced recoveries by the stall watchdog.
  [[nodiscard]] std::uint64_t watchdogRecoveries() const noexcept {
    return watchdogRecoveries_.load();
  }
  /// Null when the cluster has no fault plan.
  [[nodiscard]] const fault::FaultController* faultController() const noexcept {
    return faults_.get();
  }
  /// True while node `index` is inside a fault-injected crash window.
  [[nodiscard]] bool nodeDown(std::size_t index) const;

  [[nodiscard]] obs::Registry& metricsRegistry() noexcept { return registry_; }
  /// Prometheus text exposition of every node's protocol counters.
  [[nodiscard]] std::string prometheusSnapshot();
  /// The cluster-wide latency decomposition sink (obs/latency.h); install
  /// hooks before start().
  [[nodiscard]] obs::LatencyRecorder& latencyRecorder() noexcept {
    return latencyRecorder_;
  }
  /// Dump the process-global flight recorder to `path` (JSONL, append),
  /// tagged with `reason`. Returns records written. Callable any time.
  std::size_t dumpFlightRecorder(const std::string& path,
                                 const std::string& reason = "manual");

 private:
  /// A datagram held back by a delay-spike window, due at `due`.
  struct HeldDatagram {
    std::chrono::steady_clock::time_point due;
    std::uint16_t port = 0;
    bool isFragment = false;
    std::vector<std::byte> frame;
  };

  struct PendingBroadcast {
    PayloadPtr payload;
    QosClass qos = QosClass::Safe;
  };

  /// Every mutable field is owned by the node's shard; the exceptions
  /// are `up` (read anywhere) and the mutex-guarded pending list.
  struct NodeState {
    NodeState(std::size_t receiveBufferBytes, const ReassemblyOptions& reassembly,
              std::size_t ingressCapacity, std::uint32_t watchdogMissedRounds)
        : socket(receiveBufferBytes),
          reassembler(reassembly),
          ingress(ingressCapacity),
          watchdog(watchdogMissedRounds) {}

    ProcessId id = 0;
    UdpSocket socket;
    std::unique_ptr<Process> process;
    /// Feedback controller (null unless adaptive).
    std::unique_ptr<adapt::FeedbackController> controller;
    std::uint64_t lastBallsReceived = 0;
    /// Leaf lock: never held together with trackerMutex_ (DESIGN.md §12).
    util::Mutex broadcastMutex;
    std::vector<PendingBroadcast> pendingBroadcasts EPTO_GUARDED_BY(broadcastMutex);
    /// False while inside a crash window (the shard writes, others read).
    std::atomic<bool> up{true};
    std::uint32_t incarnation = 0;
    std::vector<HeldDatagram> heldBack;
    Reassembler reassembler;
    IngressQueue ingress;
    /// Null unless UdpClusterOptions::hardenIngress.
    std::unique_ptr<core::IngressGuard> guard;
    StallWatchdog watchdog;
    std::uint64_t roundCounter = 0;
    std::uint32_t fragmentSeq = 0;  ///< ballId low bits.
    util::Rng rng{0};
    std::chrono::steady_clock::time_point nextRound{};
    bool stallNoted = false;
    /// Last reassembly/ingress/watchdog figures mirrored into the
    /// cluster atomics (published once per round).
    ReassemblyStats publishedReassembly;
    std::uint64_t publishedIngressShed = 0;
    std::uint64_t publishedWatchdogRecoveries = 0;
    core::IngressStats publishedGuard;
  };

  /// Emits one round's datagrams: aggregates them and flushes through
  /// sendmmsg (udp_cluster.cpp).
  class BatchSink;

  /// One shard's whole life: init owned nodes, then poll/ingest/round
  /// until stop (ShardedExecutor body).
  void shardLoop(ShardedExecutor::ShardContext& ctx);
  /// A node's wheel timer fired: fault gates, then the round, then
  /// re-arm.
  void serviceDueNode(std::size_t index, ShardedExecutor::ShardContext& ctx,
                      BatchSink& sink);
  /// The round boundary body (broadcasts, onRound, fanout send via
  /// `sink`, controller feedback, metrics, watchdog). `now` is the one
  /// timestamp the round's fault gates, link fates and tracker records
  /// all use. Returns true when the watchdog forced a recovery — the
  /// caller must re-anchor the schedule to now instead of advancing it.
  bool runNodeRound(NodeState& node, Timestamp now,
                    std::chrono::steady_clock::duration lateness, BatchSink& sink);
  /// recvmmsg-drain one readable socket into the node's ingress queue,
  /// bounded per wakeup; observes the recv batch histogram.
  void batchIngest(NodeState& node, std::vector<UdpSocket::Datagram>& scratch);
  [[nodiscard]] std::chrono::microseconds jitteredPeriod(util::Rng& rng) const;
  [[nodiscard]] std::unique_ptr<Process> makeProcess(ProcessId id,
                                                     std::uint32_t incarnation);
  /// Fresh controller at the static tuning (null when adaptation is off).
  [[nodiscard]] std::unique_ptr<adapt::FeedbackController> makeController(
      ProcessId id) const;
  void enterCrash(NodeState& node) EPTO_EXCLUDES(trackerMutex_);
  void leaveCrash(NodeState& node) EPTO_EXCLUDES(trackerMutex_);
  void flushHeldBack(NodeState& node);
  /// Route one received datagram: truncation check, fragment reassembly
  /// or direct decode, then ingress admission.
  void ingestDatagram(NodeState& node, const UdpSocket::Datagram& datagram);
  void enqueueBallFrame(NodeState& node, std::span<const std::byte> frame,
                        std::uint16_t fromPort);
  /// Mirror the node's local overload counters into the cluster atomics.
  void publishNodeCounters(NodeState& node);
  /// Copy the cluster-wide transport and fault counters into the
  /// registry — the one publish path, shared by the background scrape
  /// and prometheusSnapshot().
  void publishTransportMetrics();
  [[nodiscard]] std::vector<ProcessId> upNodes() const;
  [[nodiscard]] Timestamp ticksNow() const;

  UdpClusterOptions options_;
  std::size_t fanout_ = 0;
  std::uint32_t ttl_ = 0;
  std::chrono::steady_clock::time_point epoch_;

  std::unique_ptr<fault::FaultController> faults_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::vector<std::uint16_t> ports_;  // ProcessId -> UDP port
  std::unique_ptr<ShardedExecutor> executor_;

  obs::Registry registry_;
  /// Batched-I/O instruments, registered once at construction so hot
  /// paths never touch the registry lock.
  obs::Histogram* recvBatchSize_ = nullptr;
  obs::Histogram* sendBatchSize_ = nullptr;
  /// Constructed after registry_ (it registers its histograms there).
  obs::LatencyRecorder latencyRecorder_{registry_};
  std::unique_ptr<obs::ScrapeLoop> scrape_;

  /// Correctness-accounting capability (tracker + ledger + lifetimes +
  /// quiescence diagnosis). Leaf lock — nothing else is ever acquired
  /// while it is held.
  mutable util::Mutex trackerMutex_;
  metrics::DeliveryTracker tracker_ EPTO_GUARDED_BY(trackerMutex_);
  metrics::QuiescenceLedger ledger_ EPTO_GUARDED_BY(trackerMutex_);
  std::unordered_map<ProcessId, metrics::ProcessLifetime> lifetimes_
      EPTO_GUARDED_BY(trackerMutex_);
  std::string quiescenceReport_ EPTO_GUARDED_BY(trackerMutex_);
  /// Every broadcast() call; settled once injected or discarded.
  std::atomic<std::uint64_t> requestedBroadcasts_{0};
  std::atomic<std::uint64_t> discardedBroadcasts_{0};
  std::atomic<std::uint64_t> framesRejected_{0};
  std::atomic<std::uint64_t> truncatedDatagrams_{0};
  std::atomic<std::uint64_t> sendFailuresTransient_{0};
  std::atomic<std::uint64_t> sendFailuresHard_{0};
  std::atomic<std::uint64_t> sendRetries_{0};
  std::atomic<std::uint64_t> ballsFragmented_{0};
  std::atomic<std::uint64_t> fragmentsSent_{0};
  std::atomic<std::uint64_t> fragmentsReceived_{0};
  std::atomic<std::uint64_t> ballsReassembled_{0};
  std::atomic<std::uint64_t> reassemblyExpired_{0};
  std::atomic<std::uint64_t> reassemblyShed_{0};
  std::atomic<std::uint64_t> ingressShed_{0};
  std::atomic<std::uint64_t> ingressHighWater_{0};
  std::atomic<std::uint64_t> watchdogRecoveries_{0};
  std::atomic<std::uint64_t> guardInspected_{0};
  std::atomic<std::uint64_t> guardRejectedLineage_{0};
  std::atomic<std::uint64_t> guardRejectedOriginRound_{0};
  std::atomic<std::uint64_t> guardRejectedRate_{0};
  std::atomic<std::uint64_t> guardRejectedUnknownSource_{0};
  std::atomic<std::uint64_t> guardFilteredEquivocation_{0};
  std::atomic<std::uint64_t> guardFilteredIncarnation_{0};
  std::atomic<std::uint64_t> guardFingerprintRotations_{0};

  std::atomic<bool> running_{false};
  std::atomic<bool> stopRequested_{false};
};

}  // namespace epto::runtime
