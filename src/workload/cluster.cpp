#include "workload/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "pss/uniform_sampler.h"
#include "util/ensure.h"

namespace epto::workload {

namespace {

const util::EmpiricalDistribution& latencyOf(const ExperimentConfig& config) {
  return config.latency != nullptr ? *config.latency : util::planetLabLatency();
}

}  // namespace

SimCluster::SimCluster(const ExperimentConfig& config)
    : config_(config),
      masterRng_(config.seed),
      faults_(config.faultPlan != nullptr
                  ? std::make_unique<fault::FaultController>(*config.faultPlan)
                  : nullptr),
      adversary_(config.adversaryPlan != nullptr && !config.adversaryPlan->empty()
                     ? std::make_unique<fault::AdversaryController>(
                           *config.adversaryPlan, config.systemSize)
                     : nullptr),
      network_(simulator_,
               sim::SimNetwork<NetMessage>::Options{&latencyOf(config),
                                                    config.messageLossRate,
                                                    faults_.get()},
               masterRng_.split()),
      // The monotonic-key order check applies where the broadcast-time
      // key IS the delivery order (EpTO, Pbcast). The balls-and-bins
      // baseline is deliberately unordered, and the fixed-sequencer's
      // order is the stamp order, which is not known at broadcast time
      // (its contiguity is asserted by unit tests instead).
      tracker_(config.protocol == Protocol::Epto || config.protocol == Protocol::Pbcast) {
  EPTO_ENSURE_MSG(config_.systemSize >= 2, "need at least two processes");
  EPTO_ENSURE_MSG(config_.roundInterval >= 1, "round interval must be positive");
  EPTO_ENSURE_MSG(config_.broadcastProbability >= 0.0 && config_.broadcastProbability <= 1.0,
                  "broadcast probability must be in [0,1]");
  EPTO_ENSURE_MSG(!(config_.protocol == Protocol::FixedSequencer && config_.churnRate > 0.0),
                  "the fixed-sequencer baseline has static membership");
  EPTO_ENSURE_MSG(!(config_.adaptive.enabled && config_.protocol != Protocol::Epto),
                  "adaptive control retunes EpTO parameters; other protocols have none");
  EPTO_ENSURE_MSG(!(config_.speculation.enabled && config_.protocol != Protocol::Epto),
                  "speculative delivery is an EpTO ordering-layer feature");
  if (adversary_ != nullptr) {
    EPTO_ENSURE_MSG(config_.protocol == Protocol::Epto,
                    "the adversary model targets EpTO runs");
    EPTO_ENSURE_MSG(config_.clockMode == ClockMode::Global,
                    "Byzantine runs require the global clock: a logical clock "
                    "max-folds attacker timestamps into every honest clock "
                    "(documented as not defended, DESIGN.md §14)");
    EPTO_ENSURE_MSG(config_.churnRate == 0.0 && config_.faultPlan == nullptr,
                    "Byzantine membership must be static: churned or crashed "
                    "attackers break delivery-debt attribution");
  }

  // Derive K and TTL (Lemmas 3-7), honouring manual overrides.
  Robustness robustness;
  robustness.c = config_.c;
  if (config_.compensateFanout) {
    robustness.churnPerRound =
        config_.churnRate * static_cast<double>(config_.systemSize);
    robustness.messageLossRate = config_.messageLossRate;
  }
  const Config derived =
      Config::forSystemSize(config_.systemSize, config_.clockMode, robustness);
  fanout_ = config_.fanoutOverride.value_or(derived.fanout);
  ttl_ = config_.ttlOverride.value_or(derived.ttl);

  network_.setReceiver([this](ProcessId from, ProcessId to, const NetMessage& message) {
    onMessage(from, to, message);
  });

  // Resolve the per-round instruments once; Registry entries are pointer
  // stable, so runRound never pays the name lookup.
  ballSizeHist_ = &registry_.histogram("epto_sim_ball_size");
  fanoutHist_ = &registry_.histogram("epto_sim_fanout_targets");
  bufferHist_ = &registry_.histogram("epto_sim_buffer_occupancy");

  // Phase schedule.
  const std::uint64_t warmupRounds = config_.warmupRounds.value_or(
      config_.pss == PssKind::UniformOracle ? 0 : 30);  // let real PSSes mix
  warmupEnd_ = warmupRounds * config_.roundInterval;
  broadcastEnd_ = warmupEnd_ + config_.broadcastRounds * config_.roundInterval;
  const Timestamp maxLatency =
      static_cast<Timestamp>(std::llround(latencyOf(config_).maxValue()));
  const Timestamp drain =
      config_.drainTicks != 0
          ? config_.drainTicks
          : (static_cast<Timestamp>(ttl_) + 6) * config_.roundInterval + 5 * maxLatency;
  runEnd_ = broadcastEnd_ + drain;

  if (config_.protocol == Protocol::FixedSequencer) {
    staticMembers_.reserve(config_.systemSize);
    for (std::size_t i = 0; i < config_.systemSize; ++i) {
      staticMembers_.push_back(static_cast<ProcessId>(i));
    }
  }

  for (std::size_t i = 0; i < config_.systemSize; ++i) spawnNode();

  // Resolve the perturbed-process plan against the initial membership.
  if (config_.pause.fraction > 0.0 && config_.pause.durationRounds > 0) {
    EPTO_ENSURE_MSG(config_.pause.fraction < 1.0,
                    "pausing the whole system leaves nobody to gossip");
    const auto count = static_cast<std::size_t>(
        config_.pause.fraction * static_cast<double>(config_.systemSize));
    auto pickRng = masterRng_.split();
    const auto victims = membership_.sampleOthers(
        /*self=*/std::numeric_limits<ProcessId>::max(), count, pickRng);
    pausedIds_.insert(victims.begin(), victims.end());
    pauseStart_ = warmupEnd_ + config_.pause.startRound * config_.roundInterval;
    pauseEnd_ = pauseStart_ + config_.pause.durationRounds * config_.roundInterval;
    // Paused processes need their whole stability horizon again after
    // resuming; stretch the run so their catch-up is observable.
    runEnd_ = std::max(runEnd_, pauseEnd_ + (static_cast<Timestamp>(ttl_) + 6) *
                                                config_.roundInterval +
                                    5 * maxLatency);
  }

  if (faults_ != nullptr && !faults_->plan().empty()) {
    EPTO_ENSURE_MSG(faults_->plan().maxNode() <
                        static_cast<ProcessId>(config_.systemSize),
                    "fault plan names a node outside the initial membership");
    for (const fault::FaultSpec& spec : faults_->plan().specs()) {
      if (spec.kind != fault::FaultKind::Crash) continue;
      for (const ProcessId victim : spec.nodes) {
        simulator_.scheduleAt(spec.at, [this, victim] {
          if (nodes_.find(victim) == nodes_.end()) return;  // already gone
          faults_->noteCrash(victim, simulator_.now());
          killNode(victim);
        });
        if (spec.until != fault::kNever) {
          // The rejoining process is brand new: fresh id, fresh state, and
          // it must re-converge like any late joiner.
          simulator_.scheduleAt(spec.until, [this] {
            faults_->noteRestart(nextId_, simulator_.now());
            spawnNode();
          });
        }
      }
    }
    // Whatever the plan perturbs needs its stability horizon again after
    // the last fault clears; stretch the run so re-convergence is judged.
    runEnd_ = std::max(runEnd_, faults_->plan().horizon() +
                                    (static_cast<Timestamp>(ttl_) + 6) *
                                        config_.roundInterval +
                                    5 * maxLatency);
  }

  if (config_.churnRate > 0.0) {
    churn_ = std::make_unique<sim::ChurnDriver>(
        simulator_, membership_,
        sim::ChurnDriver::Options{config_.churnRate, config_.roundInterval,
                                  /*stopAfter=*/broadcastEnd_},
        [this](ProcessId id) { killNode(id); },
        [this](std::size_t count) {
          for (std::size_t i = 0; i < count; ++i) spawnNode();
        },
        masterRng_.split());
    churn_->start();
  }
}

DeliverFn SimCluster::makeDeliverFn(ProcessId id) {
  return [this, id](const Event& event, DeliveryTag tag) {
    // Byzantine-authored events are never registered as broadcasts, so a
    // delivery of one would read as an integrity violation (a delivery of
    // something never broadcast). It is not: it is junk reaching the app,
    // measured separately.
    if (adversary_ != nullptr && adversary_->isByzantine(event.id.source)) {
      ++adversaryDeliveriesFiltered_;
      return;
    }
    tracker_.onDeliver(id, event.id, simulator_.now(), tag);
  };
}

void SimCluster::spawnNode() {
  const ProcessId id = nextId_++;
  Node node;
  node.id = id;
  node.rng = masterRng_.split();
  node.speedFactor =
      config_.processSpeedSpread <= 0.0
          ? 1.0
          : 1.0 + config_.processSpeedSpread * (2.0 * node.rng.uniform01() - 1.0);

  if (adversary_ != nullptr && adversary_->isByzantine(id)) {
    // A Byzantine node is pure attacker: no protocol instance, no PSS,
    // and no delivery obligations — it stays out of lifetimes_ so the
    // tracker never expects it to deliver anything. It does live in the
    // membership directory: honest PSS views and the uniform oracle can
    // (and should) be polluted by it.
    node.byzantine = true;
    membership_.add(id);
    nodes_.emplace(id, std::move(node));
    scheduleRound(id);
    return;
  }

  // The PSS. New nodes bootstrap their Cyclon cache from the live
  // directory — the "introducer" a joining node contacts in a real
  // deployment.
  std::shared_ptr<PeerSampler> sampler;
  if (config_.pss == PssKind::Cyclon) {
    node.cyclon = std::make_shared<pss::Cyclon>(id, config_.cyclonOptions, node.rng.split());
    const auto seeds = membership_.sampleOthers(
        id, config_.cyclonOptions.viewSize, node.rng);
    node.cyclon->bootstrap(seeds);
    sampler = node.cyclon;
  } else if (config_.pss == PssKind::Generic) {
    node.generic = std::make_shared<pss::GenericPss>(id, config_.genericPssOptions,
                                                     node.rng.split());
    const auto seeds = membership_.sampleOthers(
        id, config_.genericPssOptions.viewSize, node.rng);
    node.generic->bootstrap(seeds);
    sampler = node.generic;
  } else if (config_.pss == PssKind::Basalt) {
    node.basalt = std::make_shared<pss::Basalt>(id, config_.basaltOptions,
                                                node.rng.split());
    const auto seeds = membership_.sampleOthers(
        id, config_.basaltOptions.viewSize, node.rng);
    node.basalt->bootstrap(seeds);
    sampler = node.basalt;
  } else {
    sampler = std::make_shared<pss::UniformSampler>(id, membership_, node.rng.split());
  }

  node.sampler = sampler;  // keeps the sampler alive for reference holders

  switch (config_.protocol) {
    case Protocol::Epto: {
      Config cfg;
      cfg.fanout = fanout_;
      cfg.ttl = ttl_;
      cfg.clockMode = config_.clockMode;
      cfg.tagOutOfOrder = config_.tagOutOfOrder;
      // Duplicate suppression must outlive the slowest possible copy: a
      // relay chain is at most TTL+1 hops and each hop can add up to a
      // round of queueing plus the full latency tail.
      if (config_.tagOutOfOrder) {
        const auto maxLatencyRounds = static_cast<std::uint32_t>(
            static_cast<Timestamp>(latencyOf(config_).maxValue()) /
                config_.roundInterval +
            1);
        cfg.deliveredRetentionRounds = (ttl_ + 2) * (maxLatencyRounds + 1) + 8;
      }
      cfg.speculation.enabled = config_.speculation.enabled;
      cfg.speculation.confidenceThreshold = config_.speculation.confidenceThreshold;
      cfg.speculation.maxWindow = config_.speculation.maxWindow;
      // Environment model for the per-event stability estimate. Global
      // clocks carry simulator ticks, so a round is roundInterval ticks;
      // logical clocks have no tick/round relation (leave it 0 and the
      // estimate ages on relay rounds alone).
      cfg.stabilityModel.systemSize = config_.systemSize;
      cfg.stabilityModel.fanout = fanout_;
      cfg.stabilityModel.messageLossRate = config_.messageLossRate;
      if (config_.clockMode == ClockMode::Global) {
        cfg.stabilityModel.ticksPerRound = config_.roundInterval;
      }
      node.epto = std::make_unique<Process>(
          id, cfg, sampler, makeDeliverFn(id),
          [this]() { return simulator_.now(); }, &latencyRecorder_);
      if (config_.speculation.enabled) {
        SpeculationCallbacks callbacks;
        callbacks.onSpeculate = [this](const Event& event, double /*confidence*/) {
          // Junk from Byzantine authors has no broadcast record; skip it.
          const auto bt = broadcastTimes_.find(event.id.packed());
          if (bt == broadcastTimes_.end()) return;
          speculativeDelays_.push_back(
              static_cast<double>(simulator_.now() - bt->second));
        };
        node.epto->setSpeculationCallbacks(std::move(callbacks));
      }
      if (config_.adaptive.enabled) {
        adapt::ControllerConfig controllerConfig;
        controllerConfig.worstCase.systemSize = config_.systemSize;
        controllerConfig.worstCase.c = config_.c;
        controllerConfig.worstCase.logicalTime = config_.clockMode == ClockMode::Logical;
        controllerConfig.worstCase.messageLossRate = config_.adaptive.worstCaseLossRate;
        controllerConfig.initialLossRate = config_.adaptive.initialLossRate;
        controllerConfig.initialTtl = ttl_;
        controllerConfig.initialFanout = fanout_;
        controllerConfig.hysteresisRounds = config_.adaptive.hysteresisRounds;
        controllerConfig.smoothing = config_.adaptive.smoothing;
        controllerConfig.self = id;
        node.controller = std::make_unique<adapt::FeedbackController>(controllerConfig);
        // A manual override outside the Lemma-safe envelope was clamped;
        // keep process and controller agreeing from round one.
        if (node.controller->ttl() != ttl_ || node.controller->fanout() != fanout_) {
          node.epto->retune(node.controller->ttl(), node.controller->fanout());
        }
      }
      break;
    }
    case Protocol::BallsBinsBaseline:
      node.ballsBins = std::make_unique<baselines::BallsBinsBroadcast>(
          id, baselines::BallsBinsBroadcast::Options{fanout_, ttl_}, *sampler,
          makeDeliverFn(id));
      break;
    case Protocol::FixedSequencer:
      node.sequencer = std::make_unique<baselines::SequencerProcess>(
          id, /*sequencerId=*/0, staticMembers_, makeDeliverFn(id));
      break;
    case Protocol::Pbcast:
      node.pbcast = std::make_unique<baselines::PbcastProcess>(
          id,
          baselines::PbcastProcess::Options{
              .fanout = fanout_,
              .relayRounds = ttl_,
              // Stability must cover relaying plus in-flight slack.
              .stabilityRounds = ttl_ + 2,
          },
          *sampler, makeDeliverFn(id));
      break;
  }

  // Ingress hardening: always on under an adversary, opt-in otherwise.
  if (config_.protocol == Protocol::Epto &&
      (adversary_ != nullptr || config_.hardenIngress)) {
    core::IngressGuardOptions guardOptions;
    guardOptions.maxTtl = ttl_;
    guardOptions.maxBallsPerSenderPerRound = config_.ingressRateCap;
    // Source ids are enumerable only while membership is static; churn
    // and fault-plan restarts mint ids beyond the initial range.
    if (config_.churnRate == 0.0 && config_.faultPlan == nullptr) {
      guardOptions.knownSources = config_.systemSize;
    }
    node.guard = std::make_unique<core::IngressGuard>(guardOptions);
  }

  membership_.add(id);
  lifetimes_[id] = metrics::ProcessLifetime{simulator_.now(), std::nullopt};
  nodes_.emplace(id, std::move(node));
  scheduleRound(id);
}

void SimCluster::killNode(ProcessId id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  membership_.remove(id);
  lifetimes_[id].leftAt = simulator_.now();
  nodes_.erase(it);
}

void SimCluster::scheduleRound(ProcessId id) {
  const auto nodeIt = nodes_.find(id);
  EPTO_ENSURE(nodeIt != nodes_.end());
  Node& node = nodeIt->second;
  // delta * speedFactor * (1 +- U[0, jitter]) — "processes execute at
  // time now() + delta +- Delta" (paper §6).
  const double jitter = 1.0 + config_.roundJitter * (2.0 * node.rng.uniform01() - 1.0);
  const double period =
      std::max(1.0, static_cast<double>(config_.roundInterval) * node.speedFactor * jitter);
  simulator_.schedule(static_cast<Timestamp>(std::llround(period)), [this, id] {
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) return;  // churned out meanwhile
    runRound(it->second);
    scheduleRound(id);
  });
}

void SimCluster::maybeBroadcast(Node& node) {
  const Timestamp now = simulator_.now();
  if (now < warmupEnd_ || now >= broadcastEnd_) return;
  if (!node.rng.chance(config_.broadcastProbability)) return;

  // Applications broadcast at arbitrary moments, not at round boundaries:
  // place the broadcast uniformly within the coming round. The event then
  // waits (on average delta/2) in nextBall until the process's next round
  // — the same first-hop delay a real deployment pays.
  const Timestamp offset = node.rng.below(config_.roundInterval);
  const ProcessId id = node.id;
  simulator_.schedule(offset, [this, id] {
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) return;                    // churned out meanwhile
    if (simulator_.now() >= broadcastEnd_) return;     // window closed
    doBroadcast(it->second);
  });
}

void SimCluster::doBroadcast(Node& node) {
  const Timestamp now = simulator_.now();
  if (node.epto != nullptr) {
    QosClass qos = QosClass::Safe;
    if (config_.speculation.enabled) {
      qos = config_.speculation.fastFraction >= 1.0 ||
                    node.rng.chance(config_.speculation.fastFraction)
                ? QosClass::Fast
                : QosClass::Safe;
    }
    const Event event = node.epto->broadcast(nullptr, qos);
    if (config_.speculation.enabled) {
      broadcastTimes_.emplace(event.id.packed(), now);
    }
    tracker_.onBroadcast(node.id, event.id, event.orderKey(), now);
  } else if (node.ballsBins != nullptr) {
    // broadcast() delivers locally before returning, so pre-register the
    // (deterministic) id it will use.
    const EventId id{node.id, node.ballsBins->nextSequence()};
    tracker_.onBroadcast(node.id, id, OrderKey{0, id.source, id.sequence}, now);
    (void)node.ballsBins->broadcast(nullptr);
  } else if (node.sequencer != nullptr) {
    // The sequencer's own broadcasts may also deliver locally inside
    // broadcast(); pre-register likewise.
    const EventId id{node.id, node.sequencer->nextEventSequence()};
    tracker_.onBroadcast(node.id, id, OrderKey{0, id.source, id.sequence}, now);
    sendSequencerOutgoing(node.id, node.sequencer->broadcast(nullptr));
  } else if (node.pbcast != nullptr) {
    const Event event = node.pbcast->broadcast(nullptr);
    tracker_.onBroadcast(node.id, event.id, event.orderKey(), now);
  }
}

void SimCluster::runRound(Node& node) {
  // Byzantine members do not run the protocol; their round is an attack.
  if (node.byzantine) {
    runAdversaryRound(node);
    return;
  }
  // A perturbed process is stalled: its scheduler fires but nothing runs.
  // Incoming balls keep landing in its nextBall (the transport buffers);
  // on resume the backlog is relayed, aged and delivered as usual.
  if (!pausedIds_.empty() && pausedIds_.contains(node.id)) {
    const Timestamp now = simulator_.now();
    if (now >= pauseStart_ && now < pauseEnd_) return;
  }
  // Fault-plan stalls behave identically: the scheduler fires, nothing
  // runs, the backlog is consumed on resume.
  if (faults_ != nullptr && faults_->isStalled(node.id, simulator_.now())) {
    if (!node.stallNoted) {
      node.stallNoted = true;
      faults_->noteStall(node.id, simulator_.now());
    }
    return;
  }
  node.stallNoted = false;
  ++roundsExecuted_;
  if (node.guard != nullptr) node.guard->onRound();
  maybeBroadcast(node);

  // PSS gossip piggybacks on the round cadence (one exchange per round,
  // the standard deployment choice).
  if (node.cyclon != nullptr) {
    if (auto request = node.cyclon->onShuffleTimer(); request.has_value()) {
      network_.send(node.id, request->target, ShuffleRequestMsg{std::move(request->entries)});
    }
  }
  if (node.generic != nullptr) {
    if (auto push = node.generic->onGossipTimer(); push.has_value()) {
      network_.send(node.id, push->target, GossipPushMsg{std::move(push->buffer)});
    }
  }
  if (node.basalt != nullptr) {
    if (auto request = node.basalt->onExchangeTimer(); request.has_value()) {
      network_.send(node.id, request->target,
                    BasaltRequestMsg{std::move(request->candidates)});
    }
  }

  if (node.epto != nullptr) {
    const auto out = node.epto->onRound();
    if (out.ball != nullptr) {
      for (const ProcessId target : out.targets) network_.send(node.id, target, out.ball);
    }
    sampleRound(node, out);
    if (node.controller != nullptr) {
      // Feed the controller the arrivals since its last look; retune the
      // process whenever the hysteresis lets a step through.
      const std::uint64_t ballsReceived = node.epto->disseminationStats().ballsReceived;
      adapt::RoundSignals signals;
      signals.ballsReceived = static_cast<double>(ballsReceived - node.lastBallsReceived);
      node.lastBallsReceived = ballsReceived;
      const adapt::Decision decision = node.controller->onRound(signals);
      if (decision.changed) node.epto->retune(decision.ttl, decision.fanout);
    }
  } else if (node.ballsBins != nullptr) {
    const auto out = node.ballsBins->onRound();
    if (out.ball != nullptr) {
      for (const ProcessId target : out.targets) network_.send(node.id, target, out.ball);
    }
  } else if (node.pbcast != nullptr) {
    const auto out = node.pbcast->onRound();
    if (out.ball != nullptr) {
      for (const ProcessId target : out.targets) network_.send(node.id, target, out.ball);
    }
  }
  // FixedSequencer is purely message-driven; rounds only pace broadcasts.
}

std::vector<ProcessId> SimCluster::sampleHonestVictims(Node& node,
                                                       std::size_t count) {
  // Oversample: the directory contains the other Byzantine members too.
  const std::size_t accomplices = adversary_->members().size();
  const auto candidates =
      membership_.sampleOthers(node.id, count + accomplices, node.rng);
  std::vector<ProcessId> out;
  out.reserve(count);
  for (const ProcessId id : candidates) {
    if (out.size() >= count) break;
    if (adversary_->isByzantine(id)) continue;
    out.push_back(id);
  }
  return out;
}

std::vector<ProcessId> SimCluster::poisonIds(const Node& node,
                                             std::size_t limit) const {
  std::vector<ProcessId> out;
  out.reserve(std::min(limit, adversary_->members().size()));
  if (limit > 0) out.push_back(node.id);
  for (const ProcessId member : adversary_->members()) {
    if (out.size() >= limit) break;
    if (member != node.id) out.push_back(member);
  }
  return out;
}

Event SimCluster::makeJunkEvent(Node& node, bool forgeLineage) {
  Event event;
  event.id = EventId{node.id, node.nextJunkSeq++};
  event.ts = simulator_.now();
  if (forgeLineage) {
    // hop > ttl cannot arise from any honest emission (hop counts this
    // copy's relay chain, ttl max-merges upward); absurd ttl/originRound
    // are the other two forgeable lineage fields.
    event.ttl = ttl_ * 4 + 1;
    event.hop = static_cast<std::uint16_t>(event.ttl + 7);
    event.originRound = 1u << 24;
  } else {
    // Plausible lineage: junk indistinguishable from a first-hop relay.
    event.ttl = 1;
    event.hop = 1;
    event.originRound = static_cast<std::uint32_t>(
        simulator_.now() / config_.roundInterval);
  }
  return event;
}

void SimCluster::runAdversaryRound(Node& node) {
  const fault::AdversaryPlan& plan = adversary_->plan();
  const fault::AdversaryBehaviors& behaviors = plan.behaviors();
  const Timestamp now = simulator_.now();

  // View poisoning: unsolicited PSS exchanges offering only Byzantine ids
  // at forged age 0 — the eclipse attack BASALT is built to resist. The
  // uniform oracle has no exchange surface to poison.
  if (behaviors.poisonPss && config_.pss != PssKind::UniformOracle) {
    for (const ProcessId victim :
         sampleHonestVictims(node, plan.pssPushesPerRound())) {
      switch (config_.pss) {
        case PssKind::Cyclon: {
          pss::CyclonView entries;
          for (const ProcessId id :
               poisonIds(node, config_.cyclonOptions.shuffleLength)) {
            entries.push_back(pss::CyclonEntry{id, 0});
          }
          adversary_->notePssPoison(/*reply=*/false);
          network_.send(node.id, victim, ShuffleRequestMsg{std::move(entries)});
          break;
        }
        case PssKind::Generic: {
          pss::DescriptorView buffer;
          for (const ProcessId id :
               poisonIds(node, config_.genericPssOptions.gossipLength)) {
            buffer.push_back(pss::Descriptor{id, 0});
          }
          adversary_->notePssPoison(/*reply=*/false);
          network_.send(node.id, victim, GossipPushMsg{std::move(buffer)});
          break;
        }
        case PssKind::Basalt: {
          adversary_->notePssPoison(/*reply=*/false);
          network_.send(
              node.id, victim,
              BasaltRequestMsg{poisonIds(node, config_.basaltOptions.exchangeLength)});
          break;
        }
        case PssKind::UniformOracle:
          break;
      }
    }
  }

  // Flooding: junk balls at a rate no honest broadcaster reaches, sprayed
  // at gossip fanout like real traffic.
  if (behaviors.flood) {
    for (std::size_t b = 0; b < plan.floodBallsPerRound(); ++b) {
      auto junk = std::make_shared<Ball>();
      junk->reserve(plan.floodEventsPerBall());
      for (std::size_t e = 0; e < plan.floodEventsPerBall(); ++e) {
        junk->push_back(makeJunkEvent(node, /*forgeLineage=*/false));
      }
      adversary_->noteFloodBall(junk->size());
      const BallPtr frozen = std::move(junk);
      for (const ProcessId victim : sampleHonestVictims(node, fanout_)) {
        network_.send(node.id, victim, frozen);
      }
    }
  }

  // Equivocation: one event id per round, shipped with divergent
  // timestamps to different recipients. Undetected, honest nodes disagree
  // on the event's position in the total order.
  if (behaviors.equivocate) {
    const auto victims = sampleHonestVictims(node, plan.equivocationFanout());
    if (victims.size() >= 2) {
      const EventId id{node.id, node.nextJunkSeq++};
      adversary_->noteEquivocation();
      for (std::size_t i = 0; i < victims.size(); ++i) {
        Event event;
        event.id = id;
        event.ts = now + (i % 2 == 0 ? 0 : 97);
        event.ttl = 1;
        event.hop = 1;
        event.originRound =
            static_cast<std::uint32_t>(now / config_.roundInterval);
        network_.send(node.id, victims[i],
                      std::make_shared<const Ball>(Ball{event}));
      }
    }
  }

  // Lineage forgery: a ball whose fields no honest process could emit.
  if (behaviors.forgeLineage) {
    auto forged = std::make_shared<Ball>();
    forged->push_back(makeJunkEvent(node, /*forgeLineage=*/true));
    adversary_->noteLineageForgery();
    const BallPtr frozen = std::move(forged);
    for (const ProcessId victim : sampleHonestVictims(node, 2)) {
      network_.send(node.id, victim, frozen);
    }
  }

  // Stale replay: verbatim re-injection of a recorded honest ball once it
  // is old enough that its events should long be stable.
  if (behaviors.replayStale && !node.replayBuffer.empty()) {
    const auto& [recorded, capturedAt] = node.replayBuffer.front();
    if (now >= capturedAt + plan.replayAfterRounds() * config_.roundInterval) {
      adversary_->noteReplay();
      for (const ProcessId victim : sampleHonestVictims(node, 2)) {
        network_.send(node.id, victim, recorded);
      }
      node.replayBuffer.erase(node.replayBuffer.begin());
    }
  }
}

void SimCluster::sampleRound(const Node& node, const Process::RoundOutput& out) {
  // Always-on aggregate histograms: a few atomic adds per round, the
  // §6-style distributions (ball size, fanout, buffer occupancy) that
  // figure-level CDFs cannot recover after the fact. The instrument refs
  // are resolved once in the constructor; this path never takes a lock.
  const MetricsSnapshot snap = node.epto->metricsSnapshot();
  const std::size_t ballSize = out.ball != nullptr ? out.ball->size() : 0;
  ballSizeHist_->observe(static_cast<double>(ballSize));
  fanoutHist_->observe(static_cast<double>(out.targets.size()));
  bufferHist_->observe(static_cast<double>(snap.receivedSetSize));

  if (config_.metricsSampleEvery == 0 ||
      roundsExecuted_ % config_.metricsSampleEvery != 0) {
    return;
  }
  RoundSample sample;
  sample.round = roundsExecuted_;
  sample.simTime = simulator_.now();
  sample.node = node.id;
  sample.ballSize = ballSize;
  sample.fanout = out.targets.size();
  sample.bufferOccupancy = snap.receivedSetSize;
  sample.pendingRelay = snap.pendingRelayCount;
  roundSamples_.push_back(sample);
}

void SimCluster::sendSequencerOutgoing(
    ProcessId from, const std::vector<baselines::SequencerProcess::Outgoing>& outs) {
  for (const auto& out : outs) {
    if (out.submit.has_value()) {
      network_.send(from, out.to, *out.submit);
    } else if (out.stamped.has_value()) {
      network_.send(from, out.to, *out.stamped);
    }
  }
}

void SimCluster::onMessage(ProcessId from, ProcessId to, const NetMessage& message) {
  const auto it = nodes_.find(to);
  if (it == nodes_.end()) return;  // target crashed while the message flew
  Node& node = it->second;

  if (node.byzantine) {
    const fault::AdversaryBehaviors& behaviors = adversary_->plan().behaviors();
    if (const auto* ball = std::get_if<BallPtr>(&message)) {
      // Omission: honest traffic routed through an attacker dies here,
      // optionally recorded for later stale replay.
      adversary_->noteHonestBallSunk();
      if (behaviors.replayStale && node.replayBuffer.size() < 16) {
        node.replayBuffer.emplace_back(*ball, simulator_.now());
      }
    } else if (behaviors.poisonPss &&
               std::get_if<ShuffleRequestMsg>(&message) != nullptr) {
      // An honest shuffle reaching an attacker gets a poisoned reply.
      pss::CyclonView entries;
      for (const ProcessId id :
           poisonIds(node, config_.cyclonOptions.shuffleLength)) {
        entries.push_back(pss::CyclonEntry{id, 0});
      }
      adversary_->notePssPoison(/*reply=*/true);
      network_.send(to, from, ShuffleReplyMsg{std::move(entries)});
    } else if (behaviors.poisonPss &&
               std::get_if<GossipPushMsg>(&message) != nullptr) {
      if (config_.genericPssOptions.pull) {
        pss::DescriptorView buffer;
        for (const ProcessId id :
             poisonIds(node, config_.genericPssOptions.gossipLength)) {
          buffer.push_back(pss::Descriptor{id, 0});
        }
        adversary_->notePssPoison(/*reply=*/true);
        network_.send(to, from, GossipReplyMsg{std::move(buffer)});
      }
    } else if (behaviors.poisonPss &&
               std::get_if<BasaltRequestMsg>(&message) != nullptr) {
      adversary_->notePssPoison(/*reply=*/true);
      network_.send(to, from,
                    BasaltReplyMsg{poisonIds(node, config_.basaltOptions.exchangeLength)});
    }
    // Everything else (replies to exchanges the attacker never started,
    // sequencer traffic) is silently dropped.
    return;
  }

  if (const auto* ball = std::get_if<BallPtr>(&message)) {
    if (node.epto != nullptr) {
      if (node.guard != nullptr) {
        const auto verdict = node.guard->inspect(from, **ball);
        if (!verdict.admitted) return;
        if (verdict.kept.has_value()) {
          node.epto->onBall(*verdict.kept);
          return;
        }
      }
      node.epto->onBall(**ball);
    } else if (node.ballsBins != nullptr) {
      node.ballsBins->onBall(**ball);
    } else if (node.pbcast != nullptr) {
      node.pbcast->onGossip(**ball);
    }
  } else if (const auto* request = std::get_if<ShuffleRequestMsg>(&message)) {
    if (node.cyclon != nullptr) {
      auto reply = node.cyclon->onShuffleRequest(from, request->entries);
      network_.send(to, from, ShuffleReplyMsg{std::move(reply)});
    }
  } else if (const auto* reply = std::get_if<ShuffleReplyMsg>(&message)) {
    if (node.cyclon != nullptr) node.cyclon->onShuffleReply(reply->entries);
  } else if (const auto* push = std::get_if<GossipPushMsg>(&message)) {
    if (node.generic != nullptr) {
      if (auto pushReply = node.generic->onGossip(from, push->buffer); pushReply.has_value()) {
        network_.send(to, from, GossipReplyMsg{std::move(*pushReply)});
      }
    }
  } else if (const auto* gossipReply = std::get_if<GossipReplyMsg>(&message)) {
    if (node.generic != nullptr) node.generic->onGossipReply(gossipReply->buffer);
  } else if (const auto* exchange = std::get_if<BasaltRequestMsg>(&message)) {
    if (node.basalt != nullptr) {
      auto basaltReply = node.basalt->onExchangeRequest(from, exchange->candidates);
      network_.send(to, from, BasaltReplyMsg{std::move(basaltReply)});
    }
  } else if (const auto* exchangeReply = std::get_if<BasaltReplyMsg>(&message)) {
    if (node.basalt != nullptr) node.basalt->onExchangeReply(exchangeReply->candidates);
  } else if (const auto* submit = std::get_if<baselines::SubmitMessage>(&message)) {
    if (node.sequencer != nullptr && node.sequencer->isSequencer()) {
      sendSequencerOutgoing(to, node.sequencer->onSubmit(*submit));
    }
  } else if (const auto* stamped = std::get_if<baselines::StampedMessage>(&message)) {
    if (node.sequencer != nullptr) node.sequencer->onStamped(*stamped);
  }
}

void SimCluster::run() {
  simulator_.runUntil(runEnd_);

  // Fold the surviving nodes' protocol counters into the registry so the
  // final snapshot carries run-wide aggregates next to the histograms.
  OrderingStats ordering;
  DisseminationStats dissemination;
  std::size_t receivedTotal = 0;
  SpeculationChannel::Stats spec;
  std::uint64_t retunes = 0;
  for (const auto& [id, node] : nodes_) {
    if (node.epto == nullptr) continue;
    const auto snap = node.epto->metricsSnapshot();
    spec.speculated += snap.speculation.speculated;
    spec.confirmed += snap.speculation.confirmed;
    spec.revoked += snap.speculation.revoked;
    if (node.controller != nullptr) retunes += node.controller->retunes();
    ordering.rounds += snap.ordering.rounds;
    ordering.deliveredOrdered += snap.ordering.deliveredOrdered;
    ordering.deliveredOutOfOrder += snap.ordering.deliveredOutOfOrder;
    ordering.droppedOutOfOrder += snap.ordering.droppedOutOfOrder;
    ordering.droppedDuplicates += snap.ordering.droppedDuplicates;
    ordering.ttlMerges += snap.ordering.ttlMerges;
    dissemination.broadcasts += snap.dissemination.broadcasts;
    dissemination.ballsReceived += snap.dissemination.ballsReceived;
    dissemination.ballsSent += snap.dissemination.ballsSent;
    dissemination.eventsRelayed += snap.dissemination.eventsRelayed;
    dissemination.eventsExpired += snap.dissemination.eventsExpired;
    dissemination.maxBallSize = std::max(dissemination.maxBallSize, snap.dissemination.maxBallSize);
    receivedTotal += snap.receivedSetSize;
  }
  registry_.counter("epto_sim_rounds_total").set(ordering.rounds);
  registry_.counter("epto_sim_delivered_ordered_total").set(ordering.deliveredOrdered);
  registry_.counter("epto_sim_delivered_out_of_order_total").set(ordering.deliveredOutOfOrder);
  registry_.counter("epto_sim_dropped_out_of_order_total").set(ordering.droppedOutOfOrder);
  registry_.counter("epto_sim_dropped_duplicates_total").set(ordering.droppedDuplicates);
  registry_.counter("epto_sim_ttl_merges_total").set(ordering.ttlMerges);
  registry_.counter("epto_sim_broadcasts_total").set(dissemination.broadcasts);
  registry_.counter("epto_sim_balls_received_total").set(dissemination.ballsReceived);
  registry_.counter("epto_sim_balls_sent_total").set(dissemination.ballsSent);
  registry_.counter("epto_sim_events_relayed_total").set(dissemination.eventsRelayed);
  registry_.counter("epto_sim_events_expired_total").set(dissemination.eventsExpired);
  registry_.gauge("epto_sim_max_ball_size")
      .set(static_cast<std::int64_t>(dissemination.maxBallSize));
  registry_.gauge("epto_sim_received_set_size_total")
      .set(static_cast<std::int64_t>(receivedTotal));
  if (config_.speculation.enabled) {
    registry_.counter("epto_sim_spec_speculated_total").set(spec.speculated);
    registry_.counter("epto_sim_spec_confirmed_total").set(spec.confirmed);
    registry_.counter("epto_sim_spec_revoked_total").set(spec.revoked);
  }
  if (config_.adaptive.enabled) {
    registry_.counter("epto_sim_retunes_total").set(retunes);
  }
  if (faults_ != nullptr) faults_->recordTo(registry_);
  if (adversary_ != nullptr) adversary_->recordTo(registry_);
  if (adversary_ != nullptr || config_.hardenIngress) {
    core::recordIngressStats(aggregateIngressStats(), registry_);
  }
}

core::IngressStats SimCluster::aggregateIngressStats() const {
  core::IngressStats total;
  for (const auto& [id, node] : nodes_) {
    if (node.guard == nullptr) continue;
    const core::IngressStats& s = node.guard->stats();
    total.ballsInspected += s.ballsInspected;
    total.ballsRejectedLineage += s.ballsRejectedLineage;
    total.ballsRejectedOriginRound += s.ballsRejectedOriginRound;
    total.ballsRejectedRate += s.ballsRejectedRate;
    total.ballsRejectedUnknownSource += s.ballsRejectedUnknownSource;
    total.eventsFilteredEquivocation += s.eventsFilteredEquivocation;
    total.eventsFilteredIncarnation += s.eventsFilteredIncarnation;
    total.fingerprintRotations += s.fingerprintRotations;
  }
  return total;
}

double SimCluster::viewPoisonFraction() const {
  if (adversary_ == nullptr) return 0.0;
  // Iterate in id order so the floating-point fold is reproducible.
  std::vector<ProcessId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  double sum = 0.0;
  std::size_t counted = 0;
  for (const ProcessId id : ids) {
    const Node& node = nodes_.at(id);
    if (node.byzantine) continue;
    std::size_t viewSize = 0;
    std::size_t poisoned = 0;
    if (node.cyclon != nullptr) {
      for (const pss::CyclonEntry& entry : node.cyclon->view()) {
        ++viewSize;
        if (adversary_->isByzantine(entry.id)) ++poisoned;
      }
    } else if (node.generic != nullptr) {
      for (const pss::Descriptor& descriptor : node.generic->view()) {
        ++viewSize;
        if (adversary_->isByzantine(descriptor.id)) ++poisoned;
      }
    } else if (node.basalt != nullptr) {
      for (const ProcessId peer : node.basalt->view()) {
        ++viewSize;
        if (adversary_->isByzantine(peer)) ++poisoned;
      }
    } else {
      // The uniform oracle's "view" is the whole directory minus self:
      // its poisoning is exactly the Byzantine share of the membership.
      viewSize = membership_.size() - 1;
      poisoned = adversary_->members().size();
    }
    if (viewSize == 0) continue;
    sum += static_cast<double>(poisoned) / static_cast<double>(viewSize);
    ++counted;
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

std::vector<Event> SimCluster::pendingEventsOf(ProcessId id) const {
  const auto it = nodes_.find(id);
  EPTO_ENSURE_MSG(it != nodes_.end(), "no such live process");
  EPTO_ENSURE_MSG(it->second.epto != nullptr, "pending events exist only for EpTO nodes");
  return it->second.epto->pendingEvents();
}

ExperimentResult SimCluster::result() const {
  ExperimentResult result;
  result.report = tracker_.finalize(lifetimes_, broadcastEnd_);
  result.network = network_.stats();
  result.fanoutUsed = fanout_;
  result.ttlUsed = ttl_;
  result.roundsExecuted = roundsExecuted_;
  result.simulatedTicks = simulator_.now();
  result.finalSystemSize = membership_.size();
  result.roundSamples = roundSamples_;
  result.metrics = registry_.snapshot();
  if (faults_ != nullptr) result.faultStats = faults_->stats();
  if (adversary_ != nullptr) {
    result.adversaryStats = adversary_->stats();
    result.byzantineCount = adversary_->members().size();
  }
  result.ingressStats = aggregateIngressStats();
  result.viewPoisonFraction = viewPoisonFraction();
  result.adversaryDeliveriesFiltered = adversaryDeliveriesFiltered_;
  for (const auto& [id, node] : nodes_) {
    if (node.epto != nullptr) {
      result.eventsRelayed += node.epto->disseminationStats().eventsRelayed;
      result.maxBallSize =
          std::max(result.maxBallSize, node.epto->disseminationStats().maxBallSize);
      const auto snap = node.epto->metricsSnapshot();
      result.speculated += snap.speculation.speculated;
      result.specConfirmed += snap.speculation.confirmed;
      result.specRevoked += snap.speculation.revoked;
    }
    if (node.controller != nullptr) {
      result.retunes += node.controller->retunes();
      result.finalTtl = std::max(result.finalTtl, node.controller->ttl());
      result.finalFanout = std::max(result.finalFanout, node.controller->fanout());
    }
  }
  result.speculativeDelays = speculativeDelays_;
  return result;
}

}  // namespace epto::workload
