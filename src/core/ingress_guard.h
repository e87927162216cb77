// Ingress hardening for decoded balls — the honest-node half of the
// adversary model (src/fault/adversary.h is the attacker half).
//
// A decoded ball is attacker-controlled input: the codec only guarantees
// the frame parsed, not that its fields describe anything an honest
// process could have emitted. The guard sits between decode and the
// protocol (sim: SimCluster's onMessage; runtime: UdpCluster's
// enqueueBallFrame) and applies cheap structural checks:
//
//   Ball-level rejection — the whole ball is dropped. These causes can
//   only arise from a faulty or malicious sender, never from an honest
//   relay in a uniformly guarded cluster:
//     * lineage   — some event has hop > ttl (hop counts emissions along
//                   this copy's path, so it can never exceed the relay
//                   round count) or ttl beyond the configured protocol
//                   TTL;
//     * origin_round — an originRound far beyond any round the cluster
//                   could have reached;
//     * rate      — the sender exceeded the per-round ball budget
//                   (honest processes send O(1) balls per round);
//     * unknown_source — an event claims a source id outside the known
//                   membership (static-membership deployments only).
//
//   Event-level filtering — the offending event is removed, the rest of
//   the ball survives. These causes are observational, not provable
//   sender misbehaviour: an honest relay that accepted variant A of an
//   equivocated event legitimately forwards it, so rejecting its whole
//   ball would punish the honest path:
//     * equivocation — an EventId reappearing with a different
//                   (timestamp, payload-hash) fingerprint than first
//                   seen; first variant wins, later divergents drop;
//     * incarnation — an EventId reappearing with a lower incarnation
//                   than already recorded (a restarted source supersedes
//                   its pre-restart duplicates, never the reverse).
//
// Deliberately NOT per-source incarnation watermarks: a crash/restart
// leaves legitimate pre-restart events circulating (exactly the
// udp_crash_restart chaos scenario), and a watermark would destroy their
// liveness. See DESIGN.md §14 for the full defended/not-defended table.
//
// The guard is single-threaded (one per node, used on that node's
// thread/strand) and bounded-memory: the equivocation fingerprint table
// uses two rotating generations, so memory is O(capacity) regardless of
// run length.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/types.h"
#include "obs/registry.h"

namespace epto::core {

struct IngressGuardOptions {
  /// Protocol TTL; events claiming ttl beyond this are forged. 0 disables
  /// the ttl ceiling (hop <= ttl is always enforced).
  std::uint32_t maxTtl = 0;
  /// Upper bound on plausible originRound values. Generous by default:
  /// no experiment in this repo runs remotely close to 2^20 rounds.
  std::uint32_t maxOriginRound = 1u << 20;
  /// Balls accepted per sender per round window; 0 disables rate caps.
  /// Honest EpTO senders emit one ball per round, but relays plus
  /// retransmission jitter make a small multiple the safe floor.
  std::uint32_t maxBallsPerSenderPerRound = 64;
  /// Known membership size for the unknown_source check; 0 disables it
  /// (dynamic-membership deployments cannot enumerate valid sources).
  std::size_t knownSources = 0;
  /// Fingerprint entries per generation; two generations are live at
  /// once, so worst-case memory is 2x this.
  std::size_t fingerprintCapacity = 1u << 16;
};

/// Why ingress dropped a ball or filtered an event.
enum class IngressCause : std::uint8_t {
  None,
  Lineage,
  OriginRound,
  Rate,
  UnknownSource,
  Equivocation,
  Incarnation,
};

[[nodiscard]] const char* ingressCauseLabel(IngressCause cause) noexcept;

struct IngressStats {
  std::uint64_t ballsInspected = 0;
  std::uint64_t ballsRejectedLineage = 0;
  std::uint64_t ballsRejectedOriginRound = 0;
  std::uint64_t ballsRejectedRate = 0;
  std::uint64_t ballsRejectedUnknownSource = 0;
  std::uint64_t eventsFilteredEquivocation = 0;
  std::uint64_t eventsFilteredIncarnation = 0;
  std::uint64_t fingerprintRotations = 0;

  [[nodiscard]] std::uint64_t ballsRejected() const noexcept {
    return ballsRejectedLineage + ballsRejectedOriginRound + ballsRejectedRate +
           ballsRejectedUnknownSource;
  }
  [[nodiscard]] std::uint64_t eventsFiltered() const noexcept {
    return eventsFilteredEquivocation + eventsFilteredIncarnation;
  }
};

class IngressGuard {
 public:
  explicit IngressGuard(IngressGuardOptions options);

  struct Result {
    /// False → drop the whole ball; `cause` says why.
    bool admitted = true;
    IngressCause cause = IngressCause::None;
    /// Events removed by event-level filtering (admitted balls only).
    std::size_t filtered = 0;
    /// Engaged only when filtered > 0: the surviving events. The common
    /// clean path leaves this empty so admitted balls are zero-copy.
    std::optional<Ball> kept;
  };

  /// Screen one decoded ball from `senderKey` (ProcessId in the sim, UDP
  /// source port in the runtime — any stable per-channel identity works).
  [[nodiscard]] Result inspect(std::uint64_t senderKey, const Ball& ball);

  /// Advance the rate window; call once per protocol round.
  void onRound();

  [[nodiscard]] const IngressStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const IngressGuardOptions& options() const noexcept {
    return options_;
  }

  /// Publish `epto_ingress_rejected_total{cause=...}` — ball counts for
  /// the ball-level causes, event counts for the event-level ones.
  void recordTo(obs::Registry& registry) const;

 private:
  struct Fingerprint {
    std::uint64_t digest = 0;      ///< mix of ts and payload hash.
    std::uint16_t incarnation = 0;
  };
  using FingerprintMap =
      std::unordered_map<EventId, Fingerprint, EventIdHash>;

  /// Ball-level screen; returns the first provable-misbehaviour cause.
  [[nodiscard]] IngressCause screenBall(std::uint64_t senderKey, const Ball& ball);
  /// Event-level filter; IngressCause::None admits the event.
  [[nodiscard]] IngressCause filterEvent(const Event& event);
  [[nodiscard]] Fingerprint* findFingerprint(const EventId& id);
  void recordFingerprint(const EventId& id, Fingerprint fp);

  IngressGuardOptions options_;
  IngressStats stats_;
  FingerprintMap current_;
  FingerprintMap previous_;
  std::unordered_map<std::uint64_t, std::uint32_t> ballsThisRound_;
};

/// FNV over the payload in 64-bit little-endian words, then the tail
/// bytes and the length, finished with util::mix64; the cheap content
/// digest used by the equivocation fingerprint. Null and empty payloads
/// digest equal. Each step is a bijection of the state, so payloads of
/// equal length that differ in one word or one tail byte always digest
/// differently. It is in-memory only (never sent or stored) and not
/// collision-resistant against an adaptive attacker — acceptable, a
/// collision only suppresses detection of one equivocation pair, it
/// cannot forge a rejection of honest traffic.
[[nodiscard]] std::uint64_t payloadDigest(const PayloadPtr& payload) noexcept;

/// Publish guard verdicts (this guard's, or an aggregate across guards)
/// as `epto_ingress_rejected_total{cause=...}` plus the inspected total.
void recordIngressStats(const IngressStats& stats, obs::Registry& registry);

}  // namespace epto::core
