#include "core/ordering.h"

#include <algorithm>

#include "core/speculation.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "util/ensure.h"

namespace epto {

OrderingComponent::OrderingComponent(Options options, const StabilityOracle& oracle,
                                     DeliverFn deliver)
    : options_(options), oracle_(oracle), deliver_(std::move(deliver)) {
  EPTO_ENSURE_MSG(deliver_ != nullptr, "ordering component needs a delivery callback");
}

void OrderingComponent::orderEvents(const Ball& ball) {
  // Alg. 2 lines 6-7: a new round started, every known event is one round
  // older. Epoch-based aging makes this free: advancing the round counter
  // advances every derived ttl at once (DESIGN.md §11).
  ++stats_.rounds;

  // Latency decomposition bookkeeping (DESIGN.md §13): one clock read
  // per round, remembered for the last kRoundClockWindow rounds so a
  // delivery can recover the clock at the round any recent event crossed
  // the stability horizon.
  currentRoundClock_ = oracle_.peekClock();
  roundClocks_[stats_.rounds % kRoundClockWindow] = currentRoundClock_;

  // Alg. 2 lines 8-14: absorb the ball into `received`.
  for (const Event& event : ball) {
    absorb(event);
  }
  stats_.maxReceivedSize = std::max(stats_.maxReceivedSize, received_.size());

  // Alg. 2 lines 15-30: deliver what is stable and unobstructed.
  deliverBatch();

  // §8.4: after the committed frontier settled for the round, emit what
  // the epidemic model already trusts. Strictly additive — nothing the
  // speculative scan does feeds back into the structures above.
  if (options_.speculation != nullptr) speculateAhead();

  if (options_.tagOutOfOrder && options_.deliveredRetentionRounds != 0) {
    pruneDeliveredMemory();
  }
}

Event OrderingComponent::materialize(const OrderKey& key, const Pending& pending) const {
  Event event;
  event.id = EventId{key.source, key.sequence};
  event.ts = key.ts;
  event.ttl = derivedTtl(pending.birthRound);
  event.qos = pending.qos;
  event.payload = pending.payload;
  return event;
}

void OrderingComponent::absorb(const Event& event) {
  // Duplicate fast path: a queued repeat is by invariant past the
  // delivery frontier, so only the birth-round merge (Alg. 2 lines 10-14)
  // can apply — resolved through the hash index without touching the tree.
  const auto birth = static_cast<std::int64_t>(stats_.rounds) -
                     static_cast<std::int64_t>(event.ttl);
  if (const auto hit = receivedIndex_.find(event.id.packed());
      hit != receivedIndex_.end()) {
    Pending& pending = *hit->second;
    ++pending.copies;
    if (birth < pending.birthRound) {
      EPTO_TRACE_EVENT(TtlMerge, .node = options_.self, .round = stats_.rounds,
                       .event = event.id, .ts = event.ts, .ttl = event.ttl,
                       .aux = derivedTtl(pending.birthRound));
      pending.birthRound = birth;
      ++stats_.ttlMerges;
    }
    return;
  }

  const OrderKey key = event.orderKey();

  // Alg. 2 line 9 (strengthened to full keys): an event sorting at or
  // before the delivery frontier can never be delivered in order.
  if (lastDelivered_.has_value() && key <= *lastDelivered_) {
    if (alreadyDelivered(event.id)) {
      ++stats_.droppedDuplicates;
      EPTO_TRACE_EVENT(Drop, .node = options_.self, .round = stats_.rounds,
                       .event = event.id, .ts = event.ts, .ttl = event.ttl,
                       .detail = static_cast<std::uint8_t>(obs::DropReason::Duplicate));
      return;
    }
    if (options_.tagOutOfOrder) {
      // §8.2: surface the event to the application, explicitly tagged,
      // instead of dropping it. rememberDelivered() suppresses the
      // further copies that are still circulating.
      rememberDelivered(event.id);
      ++stats_.deliveredOutOfOrder;
      EPTO_TRACE_EVENT(Deliver, .node = options_.self, .round = stats_.rounds,
                       .event = event.id, .ts = event.ts, .ttl = event.ttl,
                       .size = currentRoundClock_,
                       .detail = static_cast<std::uint8_t>(DeliveryTag::OutOfOrder));
      deliver_(event, DeliveryTag::OutOfOrder);
    } else {
      ++stats_.droppedOutOfOrder;
      EPTO_TRACE_EVENT(Drop, .node = options_.self, .round = stats_.rounds,
                       .event = event.id, .ts = event.ts, .ttl = event.ttl,
                       .detail = static_cast<std::uint8_t>(obs::DropReason::OutOfOrder));
    }
    return;
  }

  // Alg. 2 lines 10-14, first copy: the index miss above proved the id is
  // not queued, so this insert cannot collide.
  const auto [it, inserted] =
      received_.try_emplace(key, Pending{birth, currentRoundClock_, 0, event.qos,
                                         event.payload});
  EPTO_ENSURE_MSG(inserted, "received index out of sync with the ordered map");
  receivedIndex_.emplace(event.id.packed(), &it->second);

  // §8.4: a fresh key behind the speculation frontier falsifies the
  // projection that speculated past it — revoke the displaced suffix at
  // the earliest knowable moment.
  if (options_.speculation != nullptr) {
    options_.speculation->onFreshEvent(key, stats_.rounds);
  }
}

void OrderingComponent::deliverBatch() {
#if defined(EPTO_TRACE_ENABLED)
  // The optimized delivery below never learns how many deliverable events
  // are blocked behind an unstable smaller key, but the stability trace
  // reports exactly that. Reconstruct it with a full scan only when the
  // per-event stability type is traced too (a full trace, never the
  // default mask); the hot path stays sublinear.
  if (EPTO_TRACE_WANTS(BecameDeliverable)) {
    std::size_t stableCount = 0;
    std::size_t unblocked = 0;
    std::optional<OrderKey> minQueued;
    for (const auto& [key, pending] : received_) {
      if (oracle_.isDeliverable(materialize(key, pending))) {
        ++stableCount;
        if (!minQueued.has_value()) ++unblocked;
      } else if (!minQueued.has_value()) {
        minQueued = key;
      }
    }
    if (stableCount != 0) {
      EPTO_TRACE_EVENT(StabilityDecision, .node = options_.self, .round = stats_.rounds,
                       .ts = minQueued.has_value() ? minQueued->ts : 0,
                       .size = unblocked, .aux = stableCount - unblocked);
    }
  }
#endif

  // Alg. 2 lines 15-30, collapsed into one ordered walk: the index sorts
  // `received` by OrderKey, so the deliverable events that no queued
  // event can precede are exactly the deliverable prefix — the first
  // non-deliverable entry is the minQueued bound of lines 22-26, and
  // everything before it is delivered in total order as it is popped.
  // Hoisted trace gate: the loop fires two trace points per delivered
  // event; skip both with one check when nobody is listening.
  const bool traceDelivery =
      EPTO_TRACE_WANTS(BecameDeliverable) || EPTO_TRACE_WANTS(Deliver);
  while (!received_.empty()) {
    const auto it = received_.begin();
    // Deliverability is a function of the event's age and timestamp, not
    // its payload (StabilityOracle contract), so the payload pointer is
    // only moved out once the event is actually delivered.
    Event event;
    event.id = EventId{it->first.source, it->first.sequence};
    event.ts = it->first.ts;
    event.ttl = derivedTtl(it->second.birthRound);
    if (!oracle_.isDeliverable(event)) break;

    event.qos = it->second.qos;
    event.payload = std::move(it->second.payload);
    const Timestamp firstSeen = it->second.firstSeenClock;
    const std::int64_t birth = it->second.birthRound;
    receivedIndex_.erase(event.id.packed());
    received_.erase(it);
    lastDelivered_ = event.orderKey();
    if (options_.speculation != nullptr) {
      options_.speculation->onCommit(*lastDelivered_, stats_.rounds);
    }
    if (options_.tagOutOfOrder) rememberDelivered(event.id);
    ++stats_.deliveredOrdered;
    if (traceDelivery) {
      EPTO_TRACE_EVENT(BecameDeliverable, .node = options_.self,
                       .round = stats_.rounds, .event = event.id,
                       .ts = stableClockAt(birth, firstSeen), .ttl = event.ttl,
                       .size = firstSeen,
                       .aux = static_cast<std::uint64_t>(
                           birth + oracle_.stabilityHorizon() + 1));
      EPTO_TRACE_EVENT(Deliver, .node = options_.self, .round = stats_.rounds,
                       .event = event.id, .ts = event.ts, .ttl = event.ttl,
                       .size = currentRoundClock_,
                       .detail = static_cast<std::uint8_t>(DeliveryTag::Ordered));
    }
    if (options_.latency != nullptr) {
      // Phase construction (DESIGN.md §13): clamp each boundary into
      // [broadcast, now] so the three phases always sum exactly to the
      // end-to-end latency, even when a clock fell out of the window.
      const Timestamp now = currentRoundClock_;
      const Timestamp born = event.ts;
      const std::uint64_t endToEnd = now > born ? now - born : 0;
      std::uint64_t dissemination = firstSeen > born ? firstSeen - born : 0;
      if (dissemination > endToEnd) dissemination = endToEnd;
      const Timestamp stableClock = stableClockAt(birth, firstSeen);
      std::uint64_t stableOffset = stableClock > born ? stableClock - born : 0;
      stableOffset = std::clamp(stableOffset, dissemination, endToEnd);
      obs::LatencySample sample;
      sample.endToEnd = endToEnd;
      sample.dissemination = dissemination;
      sample.stabilityWait = stableOffset - dissemination;
      sample.orderingWait = endToEnd - stableOffset;
      options_.latency->observe(options_.self, event.id, sample);
    }
    deliver_(event, DeliveryTag::Ordered);
  }
}

void OrderingComponent::speculateAhead() {
  SpeculationChannel& spec = *options_.speculation;
  // Resume the key-order scan beyond what is already speculated; with an
  // empty window the scan starts right past the committed frontier.
  auto it = received_.begin();
  if (const auto frontier = spec.frontier(); frontier.has_value()) {
    it = received_.upper_bound(*frontier);
  }
  while (it != received_.end() && spec.hasCapacity()) {
    // Only Fast-class events may jump the committed frontier, and the
    // speculative stream is emitted in key order, so the first event
    // that cannot be emitted — Safe class or not yet confident enough —
    // ends the round's scan.
    if (it->second.qos != QosClass::Fast) break;
    const Event event = materialize(it->first, it->second);
    const double confidence = oracle_.stabilityEstimate(event, it->second.copies);
    if (!spec.offer(event, confidence, it->second.copies, stats_.rounds)) break;
    ++it;
  }
}

Timestamp OrderingComponent::stableClockAt(std::int64_t birthRound,
                                           Timestamp fallback) const noexcept {
  // The event crossed the stability horizon at the first round r with
  // r - birthRound > horizon, i.e. r = birthRound + horizon + 1.
  const std::int64_t stableRound =
      birthRound + static_cast<std::int64_t>(oracle_.stabilityHorizon()) + 1;
  const auto now = static_cast<std::int64_t>(stats_.rounds);
  if (stableRound < 0 || stableRound > now ||
      stableRound <= now - static_cast<std::int64_t>(kRoundClockWindow)) {
    return fallback;
  }
  return roundClocks_[static_cast<std::uint64_t>(stableRound) % kRoundClockWindow];
}

void OrderingComponent::rememberDelivered(const EventId& id) {
  deliveredMemory_.emplace(id, stats_.rounds);
}

bool OrderingComponent::alreadyDelivered(const EventId& id) const {
  return options_.tagOutOfOrder && deliveredMemory_.contains(id);
}

void OrderingComponent::pruneDeliveredMemory() {
  const std::uint64_t now = stats_.rounds;
  const std::uint64_t retention = options_.deliveredRetentionRounds;
  if (now < retention) return;
  const std::uint64_t horizon = now - retention;
  std::erase_if(deliveredMemory_,
                [&](const auto& entry) { return entry.second < horizon; });
}

std::vector<Event> OrderingComponent::pendingEvents() const {
  std::vector<Event> pending;
  pending.reserve(received_.size());
  // The index iterates in OrderKey order, so the snapshot needs no sort.
  for (const auto& [key, entry] : received_) pending.push_back(materialize(key, entry));
  return pending;
}

bool OrderingComponent::checkInvariants() const {
  if (receivedIndex_.size() != received_.size()) return false;
  if (!lastDelivered_.has_value() || received_.empty()) return true;
  return received_.begin()->first > *lastDelivered_;
}

}  // namespace epto
