#include "core/ingress_guard.h"

#include <cstring>

#include "util/ensure.h"
#include "util/rng.h"

namespace epto::core {

const char* ingressCauseLabel(IngressCause cause) noexcept {
  switch (cause) {
    case IngressCause::None: return "none";
    case IngressCause::Lineage: return "lineage";
    case IngressCause::OriginRound: return "origin_round";
    case IngressCause::Rate: return "rate";
    case IngressCause::UnknownSource: return "unknown_source";
    case IngressCause::Equivocation: return "equivocation";
    case IngressCause::Incarnation: return "incarnation";
  }
  return "unknown";
}

std::uint64_t payloadDigest(const PayloadPtr& payload) noexcept {
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;  // FNV prime.
  std::uint64_t hash = 0xCBF29CE484222325ULL;         // FNV offset basis.
  const std::size_t size = payload ? payload->size() : 0;
  const std::byte* p = payload ? payload->data() : nullptr;
  std::size_t n = size;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    hash = (hash ^ word) * kPrime;
  }
  for (; n > 0; --n, ++p) hash = (hash ^ static_cast<std::uint64_t>(*p)) * kPrime;
  hash = (hash ^ size) * kPrime;
  return util::mix64(hash);
}

IngressGuard::IngressGuard(IngressGuardOptions options) : options_(options) {
  EPTO_ENSURE_MSG(options_.fingerprintCapacity >= 1,
                  "IngressGuard needs at least one fingerprint slot");
}

IngressGuard::Fingerprint* IngressGuard::findFingerprint(const EventId& id) {
  if (auto it = current_.find(id); it != current_.end()) return &it->second;
  if (auto it = previous_.find(id); it != previous_.end()) {
    // Promote so a hot id survives the next rotation.
    return &current_.emplace(id, it->second).first->second;
  }
  return nullptr;
}

void IngressGuard::recordFingerprint(const EventId& id, Fingerprint fp) {
  if (current_.size() >= options_.fingerprintCapacity) {
    previous_ = std::move(current_);
    current_.clear();
    stats_.fingerprintRotations++;
  }
  current_[id] = fp;
}

IngressCause IngressGuard::screenBall(std::uint64_t senderKey, const Ball& ball) {
  if (options_.maxBallsPerSenderPerRound > 0) {
    const std::uint32_t count = ++ballsThisRound_[senderKey];
    if (count > options_.maxBallsPerSenderPerRound) return IngressCause::Rate;
  }
  for (const Event& event : ball) {
    const bool ttlForged =
        options_.maxTtl > 0 && event.ttl > options_.maxTtl;
    if (event.hop > event.ttl || ttlForged) return IngressCause::Lineage;
    if (event.originRound > options_.maxOriginRound) {
      return IngressCause::OriginRound;
    }
    if (options_.knownSources > 0 &&
        static_cast<std::size_t>(event.id.source) >= options_.knownSources) {
      return IngressCause::UnknownSource;
    }
  }
  return IngressCause::None;
}

IngressCause IngressGuard::filterEvent(const Event& event) {
  const Fingerprint incoming{
      util::mix64(event.ts) ^ payloadDigest(event.payload),
      event.incarnation};
  Fingerprint* recorded = findFingerprint(event.id);
  if (recorded == nullptr) {
    recordFingerprint(event.id, incoming);
    return IngressCause::None;
  }
  if (event.incarnation < recorded->incarnation) return IngressCause::Incarnation;
  if (event.incarnation > recorded->incarnation) {
    // A restarted source supersedes its pre-restart record.
    *recorded = incoming;
    return IngressCause::None;
  }
  if (incoming.digest != recorded->digest) return IngressCause::Equivocation;
  return IngressCause::None;
}

IngressGuard::Result IngressGuard::inspect(std::uint64_t senderKey,
                                           const Ball& ball) {
  stats_.ballsInspected++;
  Result result;
  switch (screenBall(senderKey, ball)) {
    case IngressCause::Rate:
      stats_.ballsRejectedRate++;
      result.admitted = false;
      result.cause = IngressCause::Rate;
      return result;
    case IngressCause::Lineage:
      stats_.ballsRejectedLineage++;
      result.admitted = false;
      result.cause = IngressCause::Lineage;
      return result;
    case IngressCause::OriginRound:
      stats_.ballsRejectedOriginRound++;
      result.admitted = false;
      result.cause = IngressCause::OriginRound;
      return result;
    case IngressCause::UnknownSource:
      stats_.ballsRejectedUnknownSource++;
      result.admitted = false;
      result.cause = IngressCause::UnknownSource;
      return result;
    default:
      break;
  }
  // Event-level pass. The first filtered event triggers a copy of the
  // survivors so far; the clean path never allocates.
  for (std::size_t i = 0; i < ball.size(); ++i) {
    const IngressCause cause = filterEvent(ball[i]);
    if (cause == IngressCause::None) {
      if (result.kept) result.kept->push_back(ball[i]);
      continue;
    }
    if (cause == IngressCause::Equivocation) {
      stats_.eventsFilteredEquivocation++;
    } else {
      stats_.eventsFilteredIncarnation++;
    }
    result.filtered++;
    result.cause = cause;
    if (!result.kept) {
      result.kept.emplace(ball.begin(),
                          ball.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return result;
}

void IngressGuard::onRound() { ballsThisRound_.clear(); }

void IngressGuard::recordTo(obs::Registry& registry) const {
  recordIngressStats(stats_, registry);
}

void recordIngressStats(const IngressStats& stats, obs::Registry& registry) {
  const auto record = [&](IngressCause cause, std::uint64_t value) {
    registry.counter("epto_ingress_rejected_total",
                     {{"cause", ingressCauseLabel(cause)}})
        .set(value);
  };
  record(IngressCause::Lineage, stats.ballsRejectedLineage);
  record(IngressCause::OriginRound, stats.ballsRejectedOriginRound);
  record(IngressCause::Rate, stats.ballsRejectedRate);
  record(IngressCause::UnknownSource, stats.ballsRejectedUnknownSource);
  record(IngressCause::Equivocation, stats.eventsFilteredEquivocation);
  record(IngressCause::Incarnation, stats.eventsFilteredIncarnation);
  registry.counter("epto_ingress_inspected_total").set(stats.ballsInspected);
}

}  // namespace epto::core
