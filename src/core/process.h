// epto::Process — the public facade of the EpTO protocol.
//
// One Process instance embodies one participant: it owns the stability
// oracle matching the configured clock mode, the ordering component and
// the dissemination component, and wires them together per Figure 2 of
// the paper. It remains sans-io; see DisseminationComponent for the
// driving contract.
//
// Typical use:
//
//   auto cfg = epto::Config::forSystemSize(1000, epto::ClockMode::Logical);
//   epto::Process p(myId, cfg, sampler,
//                   [](const epto::Event& e, epto::DeliveryTag) { apply(e); });
//   p.broadcast(payload);                   // when the application sends
//   p.onBall(ball);                         // when the network delivers
//   auto out = p.onRound();                 // every delta time units
//   if (out.ball) for (auto q : out.targets) transport.send(q, out.ball);
#pragma once

#include <memory>

#include "core/config.h"
#include "core/dissemination.h"
#include "core/ordering.h"
#include "core/speculation.h"
#include "core/stability_oracle.h"
#include "core/types.h"
#include "obs/registry.h"

namespace epto {

/// One process's complete metrics surface: the two component counter
/// structs unified with the instantaneous gauges an operator watches
/// (buffer occupancy, relay backlog, delivery frontier lag). Cheap to
/// take — a handful of loads — so every substrate samples it per round.
struct MetricsSnapshot {
  ProcessId node = 0;
  OrderingStats ordering;
  DisseminationStats dissemination;
  std::size_t receivedSetSize = 0;    ///< Alg. 2 `received` occupancy.
  std::size_t pendingRelayCount = 0;  ///< Alg. 1 `nextBall` backlog.
  Timestamp clock = 0;                ///< oracle clock, not advanced.
  Timestamp lastDeliveredTs = 0;      ///< 0 until the first delivery.
  /// clock - lastDeliveredTs, saturating at 0: how far the delivery
  /// frontier trails the process's own notion of now. A growing lag on
  /// one node is the signature of a stalled/perturbed process (§8.2).
  Timestamp lastDeliveredLag = 0;
  std::uint32_t currentTtl = 0;     ///< TTL in force (moves under adaptation).
  std::size_t currentFanout = 0;    ///< K in force (moves under adaptation).
  /// §8.4 speculative-channel counters; all zero with speculation off.
  SpeculationChannel::Stats speculation;

  /// Publish into a registry under `epto_*` instruments labelled
  /// node="<id>". Counters mirror via Counter::set, so repeated calls
  /// from the owning thread are race-free against a concurrent scrape.
  /// They are monotonic per incarnation: a restarted node publishes its
  /// fresh Process's stats, and its counters read as a reset (which
  /// Prometheus' rate() and increase() handle). See README
  /// "Observability" for the name list.
  void recordTo(obs::Registry& registry) const;
};

class Process {
 public:
  using RoundOutput = DisseminationComponent::RoundOutput;

  /// `sampler` is shared with the driver (e.g. a Cyclon instance that the
  /// driver also pumps); `globalTime` is required for ClockMode::Global
  /// and ignored for ClockMode::Logical. `latency`, when non-null, must
  /// outlive the process and receives the per-delivery latency
  /// decomposition (obs/latency.h); drivers typically share one recorder
  /// across a cluster.
  Process(ProcessId id, const Config& config, std::shared_ptr<PeerSampler> sampler,
          DeliverFn deliver, GlobalClockOracle::TimeSource globalTime = {},
          obs::LatencyRecorder* latency = nullptr);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// EpTO-broadcast. The payload may be null (pure ordering signal).
  /// Returns the created event (id, timestamp, order key). Fast-class
  /// events are additionally eligible for speculative delivery when
  /// Config::speculation is enabled.
  Event broadcast(PayloadPtr payload = {}, QosClass qos = QosClass::Safe);

  /// Install the application's speculative-delivery callbacks. Requires
  /// Config::speculation.enabled; call before the first round.
  void setSpeculationCallbacks(SpeculationCallbacks callbacks);

  /// The speculative channel, or null when speculation is off.
  [[nodiscard]] const SpeculationChannel* speculation() const noexcept {
    return speculation_.get();
  }

  /// Move TTL and fanout online (adapt::FeedbackController). The caller
  /// is responsible for staying inside analysis::lemmaSafeBounds; the
  /// new values take effect from the next round.
  void retune(std::uint32_t ttl, std::size_t fanout);

  /// See DisseminationComponent::startSequenceAt — used when a restarted
  /// incarnation reuses this ProcessId and must not reuse EventIds.
  void startSequenceAt(std::uint32_t first) { dissemination_.startSequenceAt(first); }

  /// See DisseminationComponent::setIncarnation — lineage stamp carried
  /// by every event this process broadcasts.
  void setIncarnation(std::uint16_t incarnation) {
    dissemination_.setIncarnation(incarnation);
  }

  /// Network receive callback.
  void onBall(const Ball& ball) { dissemination_.onBall(ball); }

  /// The periodic round task; call every delta time units.
  RoundOutput onRound() { return dissemination_.onRound(); }

  [[nodiscard]] ProcessId id() const noexcept { return id_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const OrderingStats& orderingStats() const noexcept {
    return ordering_.stats();
  }
  [[nodiscard]] const DisseminationStats& disseminationStats() const noexcept {
    return dissemination_.stats();
  }
  /// Unified observability snapshot (stats structs + live gauges).
  [[nodiscard]] MetricsSnapshot metricsSnapshot() const;
  /// §8.4: known-but-undelivered events, sorted by order key.
  [[nodiscard]] std::vector<Event> pendingEvents() const { return ordering_.pendingEvents(); }
  [[nodiscard]] std::optional<OrderKey> lastDelivered() const {
    return ordering_.lastDelivered();
  }
  [[nodiscard]] const StabilityOracle& oracle() const noexcept { return *oracle_; }
  [[nodiscard]] bool checkInvariants() const { return ordering_.checkInvariants(); }

 private:
  static std::unique_ptr<StabilityOracle> makeOracle(const Config& config,
                                                     GlobalClockOracle::TimeSource globalTime);

  ProcessId id_;
  Config config_;
  std::shared_ptr<PeerSampler> sampler_;
  std::unique_ptr<StabilityOracle> oracle_;
  /// Constructed before ordering_, which holds a pointer to it.
  std::unique_ptr<SpeculationChannel> speculation_;
  OrderingComponent ordering_;
  DisseminationComponent dissemination_;
};

}  // namespace epto
