#include "runtime/udp_cluster.h"

#include <poll.h>

#include <algorithm>
#include <ctime>
#include <thread>

#include "codec/ball_codec.h"
#include "codec/fragment_codec.h"
#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "util/ensure.h"

namespace epto::runtime {

namespace {

/// Uniform sampler over the static membership 0..count-1.
class StaticSampler final : public PeerSampler {
 public:
  StaticSampler(ProcessId self, std::size_t count, util::Rng rng) : rng_(rng) {
    others_.reserve(count - 1);
    for (std::size_t id = 0; id < count; ++id) {
      if (static_cast<ProcessId>(id) != self) others_.push_back(static_cast<ProcessId>(id));
    }
  }

  std::vector<ProcessId> samplePeers(std::size_t k) override {
    const std::size_t want = std::min(k, others_.size());
    for (std::size_t i = 0; i < want; ++i) {
      const std::size_t j = i + rng_.below(others_.size() - i);
      std::swap(others_[i], others_[j]);
    }
    return {others_.begin(), others_.begin() + static_cast<std::ptrdiff_t>(want)};
  }

 private:
  util::Rng rng_;
  std::vector<ProcessId> others_;
};

/// Relaxed atomic max (for the ingress high-water gauge).
void storeMax(std::atomic<std::uint64_t>& cell, std::uint64_t value) {
  std::uint64_t seen = cell.load(std::memory_order_relaxed);
  while (seen < value &&
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

/// Version-2 frames carrying per-event lineage, with per-event QoS
/// classes when a ball holds a Fast event (codec/ball_codec.h; the
/// codec's own tests cover the version-1 fallback).
constexpr codec::EncodeOptions kWireFormat{.lineage = true, .qos = true};
/// Datagrams drained per recvmmsg() call.
constexpr std::size_t kRecvBatch = 32;
/// Send-aggregator flush threshold: datagrams accumulated per node round
/// before a sendmmsg() flush (the round end always flushes).
constexpr std::size_t kSendBatch = 64;
/// Datagrams pulled off one socket per wakeup, so a flood cannot hold
/// the shard loop past its nodes' rounds.
constexpr std::size_t kMaxDatagramsPerPoll = 512;
/// Longest a shard sleeps in one wait, which bounds how late it sees a
/// stop request.
constexpr std::chrono::milliseconds kMaxShardWait{50};
/// Round slot width, shared with perfbench's replay of the schedule.
constexpr std::chrono::microseconds kRoundSlot = ShardedExecutorOptions{}.wheelGranularity;

timespec toTimespec(std::chrono::nanoseconds wait) {
  const auto whole = std::chrono::duration_cast<std::chrono::seconds>(wait);
  return timespec{static_cast<std::time_t>(whole.count()),
                  static_cast<long>((wait - whole).count())};
}

}  // namespace

UdpCluster::UdpCluster(UdpClusterOptions options)
    : options_(options),
      epoch_(std::chrono::steady_clock::now()),
      faults_(options.faultPlan != nullptr
                  ? std::make_unique<fault::FaultController>(*options.faultPlan)
                  : nullptr) {
  EPTO_ENSURE_MSG(options_.nodeCount >= 2, "need at least two nodes");
  EPTO_ENSURE_MSG(options_.roundPeriod.count() > 0, "round period must be positive");
  EPTO_ENSURE_MSG(options_.mtuBytes >= codec::kMinFragmentMtu &&
                      options_.mtuBytes <= kMaxUdpDatagramBytes,
                  "mtuBytes outside [kMinFragmentMtu, kMaxUdpDatagramBytes]");
  EPTO_ENSURE_MSG(options_.ingressCapacity > 0, "ingressCapacity must be positive");
  EPTO_ENSURE_MSG(options_.ingressDrainBudget > 0, "ingressDrainBudget must be positive");
  EPTO_ENSURE_MSG(options_.reassemblyCapacity > 0, "reassemblyCapacity must be positive");
  EPTO_ENSURE_MSG(options_.reassemblyTtlRounds > 0,
                  "reassemblyTtlRounds must be positive");
  EPTO_ENSURE_MSG(options_.sendBackoff.maxAttempts >= 1,
                  "sendBackoff needs at least one attempt");
  EPTO_ENSURE_MSG(options_.sendBackoff.initialDelay.count() >= 0,
                  "sendBackoff initialDelay must not be negative");
  EPTO_ENSURE_MSG(options_.sendBackoff.multiplier >= 1.0,
                  "sendBackoff multiplier must be at least 1");
  if (faults_ != nullptr) {
    EPTO_ENSURE_MSG(faults_->plan().maxNode() < options_.nodeCount,
                    "fault plan targets a node beyond the cluster size");
  }

  const Config derived = Config::forSystemSize(options_.nodeCount, options_.clockMode,
                                               Robustness{.c = options_.c});
  fanout_ = options_.fanoutOverride.value_or(derived.fanout);
  ttl_ = options_.ttlOverride.value_or(derived.ttl);

  const ReassemblyOptions reassembly{options_.reassemblyCapacity,
                                     options_.reassemblyTtlRounds,
                                     /*maxFrameBytes=*/std::size_t{8} << 20};
  nodes_.reserve(options_.nodeCount);
  ports_.reserve(options_.nodeCount);
  for (std::size_t i = 0; i < options_.nodeCount; ++i) {
    const auto id = static_cast<ProcessId>(i);
    // Receive buffer == MTU: every conforming datagram fits, and an
    // over-MTU datagram is counted as truncated instead of mis-parsed.
    auto node = std::make_unique<NodeState>(options_.mtuBytes, reassembly,
                                            options_.ingressCapacity,
                                            options_.watchdogMissedRounds);
    node->id = id;
    if (options_.hardenIngress) {
      core::IngressGuardOptions guardOptions;
      guardOptions.maxTtl = ttl_;
      guardOptions.maxBallsPerSenderPerRound = options_.ingressRateCap;
      // Membership is a static port table here, so a source id outside
      // [0, nodeCount) can only be forged.
      guardOptions.knownSources = options_.nodeCount;
      node->guard = std::make_unique<core::IngressGuard>(guardOptions);
    }
    ports_.push_back(node->socket.port());
    node->process = makeProcess(id, /*incarnation=*/0);
    attachController(*node);
    nodes_.push_back(std::move(node));
    lifetimes_[id] = metrics::ProcessLifetime{0, std::nullopt};
  }

  // Pre-register every node's instruments so any scrape covers the full
  // metric surface from the first sample.
  for (const auto& node : nodes_) node->process->metricsSnapshot().recordTo(registry_);

  // Batched-I/O histograms, registered once so shard hot paths observe
  // through a raw pointer instead of the registry's find-or-create lock.
  // Bounds 1,2,4,...,512: a batch of 1 is the degenerate (unbatched)
  // case, 512 the kMaxDatagramsPerPoll ceiling.
  recvBatchSize_ = &registry_.histogram("epto_udp_recv_batch_size", {},
                                        obs::Registry::exponentialBounds(1, 2, 10));
  sendBatchSize_ = &registry_.histogram("epto_udp_send_batch_size", {},
                                        obs::Registry::exponentialBounds(1, 2, 10));

  // Build the process-wide flight recorder here, not on its first record.
  // That record is a node's first broadcast, after the event is stamped
  // and before its ball is sent; building the ring there, with the other
  // shards' first broadcasts waiting on the same static initialiser,
  // stalls those sends for hundreds of microseconds. Peers stamping in
  // the same slot meanwhile deliver past the stalled event's key and then
  // drop it as out of order.
  (void)obs::FlightRecorder::global();

  auto scrapeInterval = options_.scrapeInterval;
  if (scrapeInterval.count() == 0 && !options_.metricsOutPath.empty()) {
    scrapeInterval = std::chrono::milliseconds(100);
  }
  if (scrapeInterval.count() > 0) {
    scrape_ = std::make_unique<obs::ScrapeLoop>(
        registry_,
        obs::ScrapeLoop::Options{scrapeInterval, options_.metricsOutPath},
        [this] { return ticksNow(); }, [this] { publishTransportMetrics(); });
  }
}

UdpCluster::~UdpCluster() { stop(); }

std::unique_ptr<Process> UdpCluster::makeProcess(ProcessId id, std::uint32_t incarnation) {
  Config cfg;
  cfg.fanout = fanout_;
  cfg.ttl = ttl_;
  cfg.clockMode = options_.clockMode;
  cfg.speculation.enabled = options_.speculation;
  cfg.speculation.confidenceThreshold = options_.speculationThreshold;
  cfg.speculation.maxWindow = options_.speculationWindow;
  cfg.stabilityModel.systemSize = options_.nodeCount;
  cfg.stabilityModel.fanout = fanout_;
  cfg.stabilityModel.messageLossRate = 0.0;  // datagram loss is unobservable here
  if (options_.clockMode == ClockMode::Global) {
    // Global clocks here are microsecond ticks since the epoch.
    cfg.stabilityModel.ticksPerRound =
        static_cast<Timestamp>(options_.roundPeriod.count());
  }
  util::Rng samplerRng(
      util::mix64(options_.seed + 0xC2B2AE3D27D4EB4FULL * (incarnation + 1)) ^ id);
  auto process = std::make_unique<Process>(
      id, cfg, std::make_shared<StaticSampler>(id, options_.nodeCount, samplerRng),
      [this, id](const Event& event, DeliveryTag tag) {
        const util::MutexLock lock(trackerMutex_);
        tracker_.onDeliver(id, event.id, ticksNow(), tag);
        ledger_.onDeliver(id, event.id);
      },
      [this]() { return ticksNow(); }, &latencyRecorder_);
  process->setIncarnation(static_cast<std::uint16_t>(incarnation));
  if (incarnation > 0) {
    // Disjoint EventId range per incarnation (~1M broadcasts each).
    process->startSequenceAt(incarnation << 20U);
  }
  return process;
}

void UdpCluster::attachController(NodeState& node) {
  node.controller.reset();
  if (!options_.adaptive) return;
  adapt::ControllerConfig config;
  config.worstCase.systemSize = options_.nodeCount;
  config.worstCase.c = options_.c;
  config.worstCase.logicalTime = options_.clockMode == ClockMode::Logical;
  config.worstCase.messageLossRate = options_.adaptiveWorstCaseLoss;
  config.initialLossRate = options_.adaptiveInitialLoss;
  config.initialTtl = ttl_;
  config.initialFanout = fanout_;
  config.self = node.id;
  node.controller = std::make_unique<adapt::FeedbackController>(config);
  // A manual override outside the Lemma-safe envelope was clamped;
  // keep process and controller agreeing from round one.
  if (node.controller->ttl() != ttl_ || node.controller->fanout() != fanout_) {
    node.process->retune(node.controller->ttl(), node.controller->fanout());
  }
}

Timestamp UdpCluster::ticksNow() const {
  return static_cast<Timestamp>(std::chrono::duration_cast<std::chrono::microseconds>(
                                    std::chrono::steady_clock::now() - epoch_)
                                    .count());
}

void UdpCluster::start() {
  EPTO_ENSURE_MSG(!running_.exchange(true), "cluster already started");
  // Fault-plan timestamps are relative to start(), not construction.
  epoch_ = std::chrono::steady_clock::now();
  const std::size_t shards = shardCountUsed();
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const auto slice = shardSlice(shard, shards, nodes_.size());
    shards_.emplace_back([this, slice] { shardLoop(slice.first, slice.second); });
  }
  if (scrape_ != nullptr) scrape_->start();
}

void UdpCluster::broadcast(std::size_t index, PayloadPtr payload, QosClass qos) {
  EPTO_ENSURE_MSG(index < nodes_.size(), "node index out of range");
  NodeState& node = *nodes_[index];
  requestedBroadcasts_.fetch_add(1, std::memory_order_relaxed);
  // Broadcast handoff (DESIGN.md §16): the request joins the pending
  // list that the node's next round swaps out and stamps. `up` is read
  // under the lock enterCrash() takes to discard that list after marking
  // the node down, so a request is refused here, discarded with the list,
  // or injected by the live incarnation; never by a later one.
  {
    const util::MutexLock lock(node.broadcastMutex);
    if (node.up.load(std::memory_order_acquire)) {
      node.pendingBroadcasts.push_back(PendingBroadcast{std::move(payload), qos});
      return;
    }
  }
  discardedBroadcasts_.fetch_add(1, std::memory_order_relaxed);
}

bool UdpCluster::nodeDown(std::size_t index) const {
  EPTO_ENSURE_MSG(index < nodes_.size(), "node index out of range");
  return !nodes_[index]->up.load(std::memory_order_acquire);
}

std::vector<ProcessId> UdpCluster::upNodes() const {
  std::vector<ProcessId> ids;
  ids.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    if (node->up.load(std::memory_order_acquire)) ids.push_back(node->id);
  }
  return ids;
}

void UdpCluster::enterCrash(NodeState& node) {
  const Timestamp now = ticksNow();
  faults_->noteCrash(node.id, now);
  if (!options_.flightDumpPath.empty()) {
    (void)obs::FlightRecorder::global().dumpTo(
        options_.flightDumpPath, "crash node=" + std::to_string(node.id));
  }
  node.process.reset();
  node.heldBack.clear();  // delayed datagrams die with the sender
  node.reassembler.clear();
  node.ingress.clear();
  node.up.store(false, std::memory_order_release);
  // broadcast() reads `up` under this lock, so a request either lands in
  // the list swapped out below or, once the swap is done, is refused.
  std::vector<PendingBroadcast> discarded;
  {
    const util::MutexLock lock(node.broadcastMutex);
    discarded.swap(node.pendingBroadcasts);
  }
  discardedBroadcasts_.fetch_add(discarded.size(), std::memory_order_relaxed);
  {
    const util::MutexLock lock(trackerMutex_);
    tracker_.onProcessCrash(node.id, now);
    ledger_.onCrash(node.id);
    lifetimes_[node.id].leftAt = now;
  }
}

void UdpCluster::leaveCrash(NodeState& node) {
  const Timestamp now = ticksNow();
  // Datagrams buffered by the OS while we were dead are lost state.
  while (node.socket.receive(0).has_value()) {
  }
  node.reassembler.clear();
  node.ingress.clear();
  ++node.incarnation;
  node.process = makeProcess(node.id, node.incarnation);
  // Fresh incarnation, fresh controller: it restarts from the static
  // tuning and re-learns current conditions alongside the new Process.
  attachController(node);
  node.lastBallsReceived = 0;
  {
    const util::MutexLock lock(trackerMutex_);
    tracker_.onProcessRestart(node.id, now);
    lifetimes_[node.id] = metrics::ProcessLifetime{now, std::nullopt};
  }
  faults_->noteRestart(node.id, now);
  node.up.store(true, std::memory_order_release);
}

void UdpCluster::flushHeldBack(NodeState& node) {
  if (node.heldBack.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  auto due = std::partition(node.heldBack.begin(), node.heldBack.end(),
                            [now](const HeldDatagram& d) { return d.due > now; });
  for (auto it = due; it != node.heldBack.end(); ++it) {
    const SendOutcome outcome =
        sendWithBackoff(node.socket, it->port, it->frame, options_.sendBackoff, node.rng);
    if (outcome.retries > 0) {
      sendRetries_.fetch_add(static_cast<std::uint64_t>(outcome.retries),
                             std::memory_order_relaxed);
    }
    switch (outcome.status) {
      case SendStatus::Sent:
        if (it->isFragment) fragmentsSent_.fetch_add(1, std::memory_order_relaxed);
        break;
      case SendStatus::Transient:
        sendFailuresTransient_.fetch_add(1, std::memory_order_relaxed);
        break;
      case SendStatus::Hard:
        sendFailuresHard_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  node.heldBack.erase(due, node.heldBack.end());
}

void UdpCluster::enqueueBallFrame(NodeState& node, std::span<const std::byte> frame,
                                  std::uint16_t fromPort) {
  auto decoded = codec::decodeBall(frame);
  if (!decoded.ok()) {
    framesRejected_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // A frame that parsed is still attacker-controlled input; only the
  // guard's verdict makes its fields safe for the protocol to trust.
  if (node.guard != nullptr) {
    auto verdict = node.guard->inspect(fromPort, decoded.ball);
    if (!verdict.admitted) return;
    if (verdict.kept.has_value()) {
      node.ingress.push(std::move(*verdict.kept));
      return;
    }
  }
  node.ingress.push(std::move(decoded.ball));
}

void UdpCluster::ingestDatagram(NodeState& node, const UdpSocket::Datagram& datagram) {
  if (datagram.truncated) {
    // The kernel cut the payload: the datagram exceeded the receive
    // buffer (i.e. the configured MTU). Counted here, not discovered as
    // a checksum failure downstream.
    truncatedDatagrams_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (codec::isFragmentFrame(datagram.bytes)) {
    fragmentsReceived_.fetch_add(1, std::memory_order_relaxed);
    const auto decoded = codec::decodeFragment(datagram.bytes);
    if (!decoded.ok()) {
      framesRejected_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto frame = node.reassembler.accept(decoded.fragment, node.roundCounter);
    if (!frame.has_value()) return;
    ballsReassembled_.fetch_add(1, std::memory_order_relaxed);
    enqueueBallFrame(node, *frame, datagram.fromPort);
    return;
  }
  enqueueBallFrame(node, datagram.bytes, datagram.fromPort);
}

void UdpCluster::publishNodeCounters(NodeState& node) {
  const ReassemblyStats& stats = node.reassembler.stats();
  if (stats.partialsExpired > node.publishedReassembly.partialsExpired) {
    reassemblyExpired_.fetch_add(
        stats.partialsExpired - node.publishedReassembly.partialsExpired,
        std::memory_order_relaxed);
  }
  if (stats.partialsShed > node.publishedReassembly.partialsShed) {
    reassemblyShed_.fetch_add(stats.partialsShed - node.publishedReassembly.partialsShed,
                              std::memory_order_relaxed);
  }
  node.publishedReassembly = stats;

  const std::uint64_t shed = node.ingress.shedTotal();
  if (shed > node.publishedIngressShed) {
    ingressShed_.fetch_add(shed - node.publishedIngressShed, std::memory_order_relaxed);
    node.publishedIngressShed = shed;
  }
  storeMax(ingressHighWater_, node.ingress.highWater());

  const std::uint64_t recoveries = node.watchdog.recoveries();
  if (recoveries > node.publishedWatchdogRecoveries) {
    watchdogRecoveries_.fetch_add(recoveries - node.publishedWatchdogRecoveries,
                                  std::memory_order_relaxed);
    node.publishedWatchdogRecoveries = recoveries;
  }

  if (node.guard != nullptr) {
    const core::IngressStats& guard = node.guard->stats();
    const auto mirror = [](std::atomic<std::uint64_t>& cell, std::uint64_t now,
                           std::uint64_t& published) {
      if (now > published) {
        cell.fetch_add(now - published, std::memory_order_relaxed);
        published = now;
      }
    };
    core::IngressStats& seen = node.publishedGuard;
    mirror(guardInspected_, guard.ballsInspected, seen.ballsInspected);
    mirror(guardRejectedLineage_, guard.ballsRejectedLineage,
           seen.ballsRejectedLineage);
    mirror(guardRejectedOriginRound_, guard.ballsRejectedOriginRound,
           seen.ballsRejectedOriginRound);
    mirror(guardRejectedRate_, guard.ballsRejectedRate, seen.ballsRejectedRate);
    mirror(guardRejectedUnknownSource_, guard.ballsRejectedUnknownSource,
           seen.ballsRejectedUnknownSource);
    mirror(guardFilteredEquivocation_, guard.eventsFilteredEquivocation,
           seen.eventsFilteredEquivocation);
    mirror(guardFilteredIncarnation_, guard.eventsFilteredIncarnation,
           seen.eventsFilteredIncarnation);
    mirror(guardFingerprintRotations_, guard.fingerprintRotations,
           seen.fingerprintRotations);
  }
}

core::IngressStats UdpCluster::ingressGuardStats() const noexcept {
  core::IngressStats stats;
  stats.ballsInspected = guardInspected_.load(std::memory_order_relaxed);
  stats.ballsRejectedLineage = guardRejectedLineage_.load(std::memory_order_relaxed);
  stats.ballsRejectedOriginRound =
      guardRejectedOriginRound_.load(std::memory_order_relaxed);
  stats.ballsRejectedRate = guardRejectedRate_.load(std::memory_order_relaxed);
  stats.ballsRejectedUnknownSource =
      guardRejectedUnknownSource_.load(std::memory_order_relaxed);
  stats.eventsFilteredEquivocation =
      guardFilteredEquivocation_.load(std::memory_order_relaxed);
  stats.eventsFilteredIncarnation =
      guardFilteredIncarnation_.load(std::memory_order_relaxed);
  stats.fingerprintRotations =
      guardFingerprintRotations_.load(std::memory_order_relaxed);
  return stats;
}

std::uint16_t UdpCluster::nodePort(std::size_t index) const {
  EPTO_ENSURE_MSG(index < ports_.size(), "node index out of range");
  return ports_[index];
}

void UdpCluster::publishTransportMetrics() {
  registry_.counter("epto_udp_frames_rejected_total")
      .set(framesRejected_.load(std::memory_order_relaxed));
  registry_.counter("epto_udp_truncated_total")
      .set(truncatedDatagrams_.load(std::memory_order_relaxed));
  registry_.counter("epto_udp_send_failures_total", {{"cause", "transient"}})
      .set(sendFailuresTransient_.load(std::memory_order_relaxed));
  registry_.counter("epto_udp_send_failures_total", {{"cause", "hard"}})
      .set(sendFailuresHard_.load(std::memory_order_relaxed));
  registry_.counter("epto_udp_send_retries_total")
      .set(sendRetries_.load(std::memory_order_relaxed));
  registry_.counter("epto_udp_balls_fragmented_total")
      .set(ballsFragmented_.load(std::memory_order_relaxed));
  registry_.counter("epto_udp_fragments_sent_total")
      .set(fragmentsSent_.load(std::memory_order_relaxed));
  registry_.counter("epto_udp_fragments_received_total")
      .set(fragmentsReceived_.load(std::memory_order_relaxed));
  registry_.counter("epto_udp_balls_reassembled_total")
      .set(ballsReassembled_.load(std::memory_order_relaxed));
  registry_.counter("epto_udp_reassembly_expired_total")
      .set(reassemblyExpired_.load(std::memory_order_relaxed));
  registry_.counter("epto_udp_reassembly_shed_total")
      .set(reassemblyShed_.load(std::memory_order_relaxed));
  registry_.counter("epto_udp_ingress_shed_total")
      .set(ingressShed_.load(std::memory_order_relaxed));
  registry_.gauge("epto_udp_ingress_high_water")
      .set(static_cast<std::int64_t>(ingressHighWater_.load(std::memory_order_relaxed)));
  registry_.counter("epto_udp_watchdog_recoveries_total")
      .set(watchdogRecoveries_.load(std::memory_order_relaxed));
  if (options_.hardenIngress) {
    core::recordIngressStats(ingressGuardStats(), registry_);
  }
  registry_.counter("epto_flight_dropped_total")
      .set(obs::FlightRecorder::global().dropped());
  if (faults_ != nullptr) faults_->recordTo(registry_);
}

std::size_t UdpCluster::dumpFlightRecorder(const std::string& path,
                                           const std::string& reason) {
  return obs::FlightRecorder::global().dumpTo(path, reason);
}

std::chrono::microseconds UdpCluster::jitteredPeriod(util::Rng& rng) const {
  const double factor = 1.0 + options_.roundJitter * (2.0 * rng.uniform01() - 1.0);
  return std::chrono::microseconds(static_cast<std::int64_t>(
      std::max(1.0, static_cast<double>(options_.roundPeriod.count()) * factor)));
}

/// Aggregates a round's datagrams and flushes them through one (or a
/// few) sendmmsg() syscalls on the node's socket. A fragmented fanout is
/// a long send burst; a loop that ignored its socket that whole time
/// would let concurrent bursts from peers overflow the kernel receive
/// buffer and lose fragments every round. So every flush is followed by
/// a bounded recvmmsg drain, and a jumbo fanout cannot starve ingress.
class UdpCluster::BatchSink {
 public:
  explicit BatchSink(UdpCluster& cluster) : cluster_(cluster) {}

  void send(NodeState& node, std::uint16_t port, bool isFragment,
            const std::vector<std::byte>& frame) {
    pending_.push_back(OutgoingDatagram{port, &frame, isFragment});
    if (pending_.size() >= kSendBatch) flush(node);
  }

  /// Bounded, drain-interleaved ingest of the node's socket (same path
  /// as the poll loop, so a chunky backlog cannot overflow the ingress
  /// bound mid-push).
  void ingest(NodeState& node) { cluster_.batchIngest(node, drainScratch_); }

  /// End of the round's send burst (queued frames die after this).
  void flush(NodeState& node) {
    if (pending_.empty()) return;
    cluster_.sendBatchSize_->observe(static_cast<double>(pending_.size()));
    const BatchSendOutcome outcome = sendBatchWithBackoff(
        node.socket, pending_, cluster_.options_.sendBackoff, node.rng);
    pending_.clear();
    if (outcome.retries > 0) {
      cluster_.sendRetries_.fetch_add(static_cast<std::uint64_t>(outcome.retries),
                                      std::memory_order_relaxed);
    }
    if (outcome.fragmentsSent > 0) {
      cluster_.fragmentsSent_.fetch_add(outcome.fragmentsSent,
                                        std::memory_order_relaxed);
    }
    if (outcome.transientLost > 0) {
      cluster_.sendFailuresTransient_.fetch_add(outcome.transientLost,
                                                std::memory_order_relaxed);
    }
    if (outcome.hardLost > 0) {
      cluster_.sendFailuresHard_.fetch_add(outcome.hardLost, std::memory_order_relaxed);
    }
    ingest(node);
  }

 private:
  UdpCluster& cluster_;
  std::vector<OutgoingDatagram> pending_;
  std::vector<UdpSocket::Datagram> drainScratch_;
};

bool UdpCluster::runNodeRound(NodeState& node, Timestamp now,
                              std::chrono::steady_clock::duration lateness,
                              BatchSink& sink) {
  using Clock = std::chrono::steady_clock;
  ++node.roundCounter;
  node.reassembler.evictExpired(node.roundCounter);
  if (node.guard != nullptr) node.guard->onRound();

  std::vector<PendingBroadcast> pending;
  {
    const util::MutexLock lock(node.broadcastMutex);
    pending.swap(node.pendingBroadcasts);
  }
  // Stamp on a clock that has seen every ball already at the socket. The
  // loop's readiness check can predate a preemption, and a peer whose
  // ball arrived meanwhile may deliver past a key stamped below it before
  // this node's ball reaches it, then drop the event as out of order.
  if (!pending.empty()) sink.ingest(node);
  for (PendingBroadcast& request : pending) {
    const Event event = node.process->broadcast(std::move(request.payload), request.qos);
    const util::MutexLock lock(trackerMutex_);
    tracker_.onBroadcast(node.id, event.id, event.orderKey(), now);
    // Read the live set under the lock: enterCrash() on another shard
    // marks its node down before it takes this lock to erase the node's
    // debts, so the crash is either visible here or still to come.
    ledger_.onBroadcast(event.id, upNodes());
  }

  const auto out = node.process->onRound();
  if (out.ball != nullptr) {
    const auto frame = codec::encodeBall(*out.ball, kWireFormat);
    const std::uint64_t ballId =
        (static_cast<std::uint64_t>(node.id) << 32) | ++node.fragmentSeq;
    const auto datagrams = codec::fragmentFrame(frame, options_.mtuBytes, ballId);
    const bool fragmented = datagrams.size() > 1;
    if (fragmented) ballsFragmented_.fetch_add(1, std::memory_order_relaxed);
    for (const ProcessId target : out.targets) {
      fault::FaultController::LinkFate fate;
      if (faults_ != nullptr) {
        fate = faults_->linkFate(node.id, target, now);
        if (fate.cut) {
          faults_->noteLinkDrop(node.id, target, now, fate.cutBy);
          continue;
        }
        if (fate.extraDelay > 0) faults_->noteDelayed(node.id, target, now);
      }
      for (const auto& datagram : datagrams) {
        // Burst loss rolls per datagram — fragment granularity: one
        // lost fragment costs one ball copy, not the whole fanout.
        if (fate.extraLossRate > 0.0 && node.rng.chance(fate.extraLossRate)) {
          if (fragmented) {
            faults_->noteFragmentDrop(node.id, target, now);
          } else {
            faults_->noteLinkDrop(node.id, target, now, fault::FaultKind::BurstLoss);
          }
          continue;
        }
        if (fate.extraDelay > 0) {
          node.heldBack.push_back(HeldDatagram{
              Clock::now() + std::chrono::microseconds(
                                 static_cast<std::int64_t>(fate.extraDelay)),
              ports_[target], fragmented, datagram});
          continue;
        }
        sink.send(node, ports_[target], fragmented, datagram);
      }
    }
    // Flush while `datagrams` is still alive — the batch sink holds
    // non-owning frame pointers into it.
    sink.flush(node);
  }
  if (node.controller != nullptr) {
    // Close the feedback loop on this node's own observations.
    const std::uint64_t ballsReceived = node.process->disseminationStats().ballsReceived;
    adapt::RoundSignals signals;
    signals.ballsReceived = static_cast<double>(ballsReceived - node.lastBallsReceived);
    node.lastBallsReceived = ballsReceived;
    const adapt::Decision decision = node.controller->onRound(signals);
    if (decision.changed) node.process->retune(decision.ttl, decision.fanout);
  }
  node.process->metricsSnapshot().recordTo(registry_);
  publishNodeCounters(node);

  // Watchdog: a round more than a full period late, `watchdogMissedRounds`
  // times in a row, means the loop is wedged behind its backlog. Recover
  // by force-draining the ingress queue through the protocol (ignoring
  // the per-loop budget) and snapping the schedule to now —
  // metric-visible via watchdogRecoveries(). Reassembly partials are
  // deliberately left alone: they are already bounded by their own
  // TTL/capacity, and purging them here would reset in-progress jumbo
  // balls every recovery, turning an overload into event loss.
  if (node.watchdog.onRoundBoundary(lateness, options_.roundPeriod)) {
    // The flight recorder exists for this moment: capture the protocol
    // decisions leading into the stall before the recovery mutates
    // anything further.
    if (!options_.flightDumpPath.empty()) {
      (void)obs::FlightRecorder::global().dumpTo(
          options_.flightDumpPath, "stall_watchdog node=" + std::to_string(node.id));
    }
    while (auto ball = node.ingress.pop()) node.process->onBall(*ball);
    publishNodeCounters(node);
    return true;
  }
  return false;
}

void UdpCluster::batchIngest(NodeState& node, std::vector<UdpSocket::Datagram>& scratch) {
  std::size_t polled = 0;
  while (polled < kMaxDatagramsPerPoll) {
    scratch.clear();
    const std::size_t want = std::min(kRecvBatch, kMaxDatagramsPerPoll - polled);
    const std::size_t got = node.socket.receiveBatch(scratch, want, /*timeoutMillis=*/0);
    if (got == 0) break;
    recvBatchSize_->observe(static_cast<double>(got));
    // Drain interleaves per datagram, not per chunk. One shard wakeup
    // covers MANY senders' flushes at once (a recvmmsg chunk can hold a
    // whole cluster round), so a flat per-wakeup budget would both drain
    // too slowly and overflow the ingress bound mid-push — and because
    // one thread drives every owned node on one schedule, the overflow
    // pattern is IDENTICAL at every peer: the oldest-first shed cuts the
    // same sender's ball everywhere, correlated first-hop loss that
    // EpTO's relay redundancy cannot repair (an origin sends its ball
    // exactly once). Granting a full ingressDrainBudget after each
    // datagram keeps the queue from overflowing on chunky arrivals and
    // bounds the per-wakeup work by
    // kMaxDatagramsPerPoll * (decode + ingressDrainBudget).
    for (const auto& datagram : scratch) {
      ingestDatagram(node, datagram);
      for (std::size_t budget = options_.ingressDrainBudget; budget > 0; --budget) {
        auto ball = node.ingress.pop();
        if (!ball.has_value()) break;
        node.process->onBall(*ball);
      }
    }
    polled += got;
    if (got < want) break;  // socket drained
  }
}

void UdpCluster::serviceDueNode(NodeState& node, BatchSink& sink) {
  using Clock = std::chrono::steady_clock;
  // One timestamp for the whole round: a round that passed the crash
  // gate below must not see its own node crashed when it asks for link
  // fates, or it would record broadcasts no copy of which ever leaves.
  const Timestamp now = ticksNow();
  if (faults_ != nullptr) {
    if (faults_->isCrashed(node.id, now)) {
      if (node.up.load(std::memory_order_relaxed)) enterCrash(node);
      // Re-check every millisecond.
      node.nextRound = Clock::now() + std::chrono::milliseconds(1);
      return;
    }
    if (!node.up.load(std::memory_order_relaxed)) {
      leaveCrash(node);
      node.nextRound = Clock::now() + jitteredPeriod(node.rng);
      return;
    }
    if (faults_->isStalled(node.id, now)) {
      // GC-pause model: no receives (the poll set skips the node), no
      // rounds; the OS buffers traffic for the catch-up afterwards.
      if (!node.stallNoted) {
        node.stallNoted = true;
        faults_->noteStall(node.id, now);
      }
      node.nextRound = Clock::now() + std::chrono::milliseconds(1);
      return;
    }
    if (node.stallNoted) {
      // Stall just ended: re-anchor one period out before the next
      // round, so the catch-up starts with a full receive window.
      node.stallNoted = false;
      node.nextRound = Clock::now() + jitteredPeriod(node.rng);
      return;
    }
  }
  const auto lateness = Clock::now() - node.nextRound;
  const bool recovered = runNodeRound(node, now, lateness, sink);
  node.nextRound = recovered ? Clock::now() + jitteredPeriod(node.rng)
                             : node.nextRound + jitteredPeriod(node.rng);
}

void UdpCluster::shardLoop(std::size_t begin, std::size_t end) {
  using Clock = std::chrono::steady_clock;
  for (std::size_t i = begin; i < end; ++i) {
    NodeState& node = *nodes_[i];
    node.rng = util::Rng(util::mix64(options_.seed ^ 0xDA7A6A4Dull) ^ node.id);
    node.stallNoted = false;
    // Phase-stagger first rounds across the cluster (node i at phase
    // i/n of a period). Shared slots do not desynchronize nodes on their
    // own, and perfectly synchronized rounds make every node's send
    // burst land in every ingress queue at once — under a tight ingress
    // bound the oldest-first shed then cuts the SAME sender's ball
    // everywhere, which is exactly the correlated loss EpTO's
    // redundancy cannot absorb.
    const auto phase = options_.roundPeriod * i / nodes_.size();
    node.nextRound = Clock::now() + jitteredPeriod(node.rng) + phase;
  }

  BatchSink sink(*this);
  std::vector<UdpSocket::Datagram> scratch;
  std::vector<pollfd> pollSet;
  std::vector<std::size_t> pollNode;  // pollSet slot -> node index
  std::vector<Clock::time_point> deadlines;

  while (running_.load(std::memory_order_acquire)) {
    if (faults_ != nullptr) {
      for (std::size_t i = begin; i < end; ++i) {
        NodeState& node = *nodes_[i];
        if (node.up.load(std::memory_order_relaxed) && !node.stallNoted) {
          flushHeldBack(node);
        }
      }
    }

    // One ppoll() across every live owned socket, blocking until the
    // earliest deadline's slot at full clock resolution: a millisecond
    // timeout would truncate every sub-millisecond remainder to 0 and
    // spin through the last millisecond before each slot. With every
    // owned node down or stalled the set is empty and the wait is a plain
    // sleep; their deadlines still count, as those are their re-checks.
    pollSet.clear();
    pollNode.clear();
    deadlines.clear();
    for (std::size_t i = begin; i < end; ++i) {
      NodeState& node = *nodes_[i];
      deadlines.push_back(node.nextRound);
      if (!node.up.load(std::memory_order_relaxed) || node.stallNoted) continue;
      pollfd pfd{};
      pfd.fd = node.socket.nativeHandle();
      pfd.events = POLLIN;
      pollSet.push_back(pfd);
      pollNode.push_back(i);
    }
    const timespec wait = toTimespec(shardWait(Clock::now(), deadlines, kRoundSlot, kMaxShardWait));
    const int ready = ::ppoll(pollSet.data(), pollSet.size(), &wait, nullptr);
    if (ready > 0) {
      for (std::size_t slot = 0; slot < pollSet.size(); ++slot) {
        if ((pollSet[slot].revents & POLLIN) != 0) {
          batchIngest(*nodes_[pollNode[slot]], scratch);
        }
      }
    }

    // Hand each node a bounded batch of decoded balls; the rest stays
    // queued behind the ingress bound.
    for (std::size_t i = begin; i < end; ++i) {
      NodeState& node = *nodes_[i];
      if (!node.up.load(std::memory_order_relaxed) || node.stallNoted) continue;
      for (std::size_t budget = options_.ingressDrainBudget; budget > 0; --budget) {
        auto ball = node.ingress.pop();
        if (!ball.has_value()) break;
        node.process->onBall(*ball);
      }
    }

    // Run every round whose slot has started, at most one per node per
    // lap.
    const auto now = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      NodeState& node = *nodes_[i];
      if (slotStart(node.nextRound, kRoundSlot) <= now) serviceDueNode(node, sink);
    }
  }
  // Sheds/evictions from the final partial rounds still reach the
  // cluster counters.
  for (std::size_t i = begin; i < end; ++i) publishNodeCounters(*nodes_[i]);
}

bool UdpCluster::awaitQuiescence(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    {
      const util::MutexLock lock(trackerMutex_);
      const bool allInjected =
          tracker_.broadcastCount() + discardedBroadcasts_.load(std::memory_order_relaxed) >=
          requestedBroadcasts_.load(std::memory_order_relaxed);
      if (allInjected && ledger_.quiescent()) {
        quiescenceReport_.clear();
        return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        quiescenceReport_ = allInjected
                                ? ledger_.missingReport()
                                : "broadcast requests still pending at their nodes; " +
                                      ledger_.missingReport();
        return false;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::string UdpCluster::lastQuiescenceReport() const {
  const util::MutexLock lock(trackerMutex_);
  return quiescenceReport_;
}

void UdpCluster::stop() {
  if (!running_.exchange(false)) return;
  for (std::thread& shard : shards_) shard.join();
  shards_.clear();
  if (scrape_ != nullptr) scrape_->stop();
}

std::string UdpCluster::prometheusSnapshot() {
  publishTransportMetrics();
  return obs::prometheusText(registry_.snapshot());
}

metrics::TrackerReport UdpCluster::report() const {
  const util::MutexLock lock(trackerMutex_);
  return tracker_.finalize(lifetimes_, ticksNow());
}

}  // namespace epto::runtime
