#include "core/dissemination.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>

#include "obs/trace.h"
#include "util/ensure.h"

namespace epto {

namespace {

/// Pooled Ball buffers kept per component. Small: a slot is only held
/// while some consumer (a simulated network in flight, the UDP encoder)
/// retains the ball, and one round produces one ball.
constexpr std::size_t kBallPoolSlots = 4;

}  // namespace

DisseminationComponent::DisseminationComponent(ProcessId self, Options options,
                                               StabilityOracle& oracle, PeerSampler& sampler,
                                               OrderingComponent& ordering)
    : self_(self), options_(options), oracle_(oracle), sampler_(sampler), ordering_(ordering) {
  EPTO_ENSURE_MSG(options_.fanout >= 1, "fanout K must be at least 1");
  EPTO_ENSURE_MSG(options_.ttl >= 1, "TTL must be at least 1");
}

void DisseminationComponent::startSequenceAt(std::uint32_t first) {
  EPTO_ENSURE_MSG(stats_.broadcasts == 0,
                  "sequence fast-forward only valid before the first broadcast");
  EPTO_ENSURE_MSG(first >= nextSequence_, "sequence counter cannot move backwards");
  nextSequence_ = first;
}

void DisseminationComponent::retune(std::size_t fanout, std::uint32_t ttl) {
  EPTO_ENSURE_MSG(fanout >= 1, "fanout K must be at least 1");
  EPTO_ENSURE_MSG(ttl >= 1, "TTL must be at least 1");
  options_.fanout = fanout;
  options_.ttl = ttl;
}

void DisseminationComponent::setIncarnation(std::uint16_t incarnation) {
  EPTO_ENSURE_MSG(stats_.broadcasts == 0,
                  "incarnation only settable before the first broadcast");
  incarnation_ = incarnation;
}

Event DisseminationComponent::broadcast(PayloadPtr payload, QosClass qos) {
  // Alg. 1 lines 6-10.
  Event event;
  event.ts = oracle_.getClock();
  event.ttl = 0;
  event.id = EventId{self_, nextSequence_++};
  event.originRound = static_cast<std::uint32_t>(stats_.rounds);
  event.hop = 0;
  event.incarnation = incarnation_;
  event.qos = qos;
  event.payload = std::move(payload);
  // Own sequence numbers ascend, so the insertion point is almost always
  // the tail; the id-equal branch mirrors the former insert_or_assign
  // (unreachable unless an id is reissued, which startSequenceAt forbids).
  const auto pos = std::lower_bound(
      nextBall_.begin(), nextBall_.end(), event.id,
      [](const Event& e, const EventId& id) { return e.id < id; });
  if (pos != nextBall_.end() && pos->id == event.id) {
    *pos = event;
  } else {
    nextBall_.insert(pos, event);
  }
  ++stats_.broadcasts;
  EPTO_TRACE_EVENT(Broadcast, .node = self_, .round = stats_.rounds,
                   .event = event.id, .ts = event.ts);
  return event;
}

void DisseminationComponent::onBall(const Ball& ball) {
  // Alg. 1 lines 11-19.
  ++stats_.ballsReceived;
  ++ballsThisRound_;
  bool sorted = true;
  Timestamp maxTs = 0;
  std::uint16_t maxHop = 0;
  for (std::size_t i = 0; i < ball.size(); ++i) {
    const Event& event = ball[i];
    if (i != 0 && event.id < ball[i - 1].id) sorted = false;
    if (event.ts > maxTs) maxTs = event.ts;
    if (event.hop > maxHop) maxHop = event.hop;
    if (event.ttl >= options_.ttl) {
      // A copy at the end of its relay life; it is neither relayed nor
      // ordered (see DESIGN.md: faithful to the pseudocode, and exactly
      // the loss the Theorem 2 ball-count analysis already absorbs).
      ++stats_.eventsExpired;
      EPTO_TRACE_EVENT(Drop, .node = self_, .round = stats_.rounds,
                       .event = event.id, .ts = event.ts, .ttl = event.ttl,
                       .detail = static_cast<std::uint8_t>(obs::DropReason::Expired));
    }
  }
  EPTO_TRACE_EVENT(BallReceived, .node = self_, .round = stats_.rounds,
                   .ttl = maxHop, .size = ball.size(), .aux = ballsThisRound_);
  // The clock update is a max-fold (StabilityOracle contract), so one
  // virtual call per ball replaces one per event.
  if (!ball.empty()) oracle_.updateClock(maxTs);

  // Every sender emits id-sorted balls, so absorption is one linear
  // merge. Arbitrary callers (tests and fuzzers feed hand-built balls)
  // hit the sort fallback instead; stable_sort keeps the first copy of a
  // duplicated id first, matching the former hash-map try_emplace
  // semantics.
  if (sorted) {
    mergeSortedRun(ball.data(), ball.size());
  } else {
    sortScratch_.assign(ball.begin(), ball.end());
    std::stable_sort(sortScratch_.begin(), sortScratch_.end(),
                     [](const Event& a, const Event& b) { return a.id < b.id; });
    mergeSortedRun(sortScratch_.data(), sortScratch_.size());
    sortScratch_.clear();
  }
}

void DisseminationComponent::mergeSortedRun(const Event* run, std::size_t count) {
  // Duplicates keep the existing copy with the max ttl of both (Alg. 1
  // l.15-18: the oldest copy needs the fewest further relays); expired
  // run entries (already counted by onBall) are skipped. Ids compare as
  // one packed 64-bit word throughout.
  const std::uint32_t ttlLimit = options_.ttl;
  std::size_t j = 0;
  while (j < count && run[j].ttl >= ttlLimit) ++j;
  if (j >= count) return;

  // Phase 1 — in place. Balls received later in a round mostly repeat
  // what earlier balls carried, with the same ttl: then this loop only
  // reads, and the merge costs no moves at all. It exits at the first
  // id the run genuinely inserts.
  std::size_t i = 0;
  const std::size_t n = nextBall_.size();
  std::uint64_t runId = run[j].id.packed();
  while (true) {
    while (i < n && nextBall_[i].id.packed() < runId) ++i;
    if (i == n || runId < nextBall_[i].id.packed()) break;
    if (run[j].ttl > nextBall_[i].ttl) nextBall_[i].ttl = run[j].ttl;
    do {
      ++j;
    } while (j < count && run[j].ttl >= ttlLimit);
    if (j >= count) return;
    runId = run[j].id.packed();
  }

  if (i == n) {
    // Pure append: every remaining live id sorts after the current tail
    // (run-internal duplicates fold via the back check).
    for (; j < count; ++j) {
      if (run[j].ttl >= ttlLimit) continue;
      if (!nextBall_.empty() && nextBall_.back().id == run[j].id) {
        if (run[j].ttl > nextBall_.back().ttl) nextBall_.back().ttl = run[j].ttl;
      } else {
        nextBall_.push_back(run[j]);
        EPTO_TRACE_EVENT(FirstSeen, .node = self_, .round = stats_.rounds,
                         .event = run[j].id, .ts = run[j].ts, .ttl = run[j].ttl,
                         .size = oracle_.peekClock(), .aux = run[j].hop);
      }
    }
    return;
  }

  // Phase 2 — merge backward in place. Count the distinct live new ids
  // first (reads only), grow the buffer by exactly that, then write each
  // surviving element once from the top; the prefix [0, i) is never
  // touched and no scratch copy is made.
  std::size_t extra = 0;
  {
    std::size_t a = i;
    std::size_t jj = j;
    std::uint64_t prev = 0;
    bool havePrev = false;
    while (jj < count) {
      if (run[jj].ttl < ttlLimit) {
        const std::uint64_t id = run[jj].id.packed();
        while (a < n && nextBall_[a].id.packed() < id) ++a;
        const bool dupExisting = a < n && nextBall_[a].id.packed() == id;
        if (!dupExisting && !(havePrev && prev == id)) ++extra;
        prev = id;
        havePrev = true;
      }
      ++jj;
    }
  }
  nextBall_.resize(n + extra);
  std::size_t w = n + extra;  // one past the write position
  std::size_t a = n;          // one past the existing cursor (floor i)
  std::size_t jj = count;     // one past the run cursor (floor j)
  while (true) {
    while (jj > j && run[jj - 1].ttl >= ttlLimit) --jj;
    if (jj == j) break;
    // Gather the run's group of copies of one id: max ttl of the live
    // copies, represented by the earliest (first-arrived) copy.
    const std::uint64_t id = run[jj - 1].id.packed();
    std::uint32_t groupTtl = run[jj - 1].ttl;
    std::size_t firstCopy = jj - 1;
    --jj;
    while (jj > j && run[jj - 1].id.packed() == id) {
      if (run[jj - 1].ttl < ttlLimit) {
        groupTtl = std::max(groupTtl, run[jj - 1].ttl);
        firstCopy = jj - 1;
      }
      --jj;
    }
    // Flush existing events above the group's id, then resolve the group
    // against a matching existing event or insert it fresh.
    while (a > i && nextBall_[a - 1].id.packed() > id) {
      nextBall_[--w] = std::move(nextBall_[--a]);
    }
    if (a > i && nextBall_[a - 1].id.packed() == id) {
      --a;
      if (groupTtl > nextBall_[a].ttl) nextBall_[a].ttl = groupTtl;
      nextBall_[--w] = std::move(nextBall_[a]);
    } else {
      Event fresh = run[firstCopy];
      fresh.ttl = groupTtl;
      EPTO_TRACE_EVENT(FirstSeen, .node = self_, .round = stats_.rounds,
                       .event = fresh.id, .ts = fresh.ts, .ttl = fresh.ttl,
                       .size = oracle_.peekClock(), .aux = fresh.hop);
      nextBall_[--w] = std::move(fresh);
    }
  }
  // Every new id is written at or above its insertion point, so the
  // remaining existing events [i, a) already sit in their final slots.
}

std::shared_ptr<Ball> DisseminationComponent::acquireBall() {
  for (auto& slot : ballPool_) {
    if (slot.use_count() == 1) {
      // Only the pool still references this buffer. The consumers'
      // release decrements are ordered before the count we just read;
      // the acquire fence orders our reuse after them.
      std::atomic_thread_fence(std::memory_order_acquire);
      slot->clear();
      return slot;
    }
  }
  if (ballPool_.size() < kBallPoolSlots) {
    ballPool_.push_back(std::make_shared<Ball>());
    return ballPool_.back();
  }
  return std::make_shared<Ball>();  // every slot still in flight
}

DisseminationComponent::RoundOutput DisseminationComponent::onRound() {
  // Alg. 1 lines 20-28.
  ++stats_.rounds;
  ballsThisRound_ = 0;
  RoundOutput out;

  if (!nextBall_.empty()) {
    auto ball = acquireBall();
    ball->reserve(nextBall_.size());
    // nextBall is maintained id-sorted and duplicate-free, so the
    // emitted ball needs no sort; moving the events hands each payload
    // refcount straight to the ball instead of copy+destroy churn.
    for (Event& event : nextBall_) {
      ++event.ttl;
      // hop counts relay emissions the same way ttl counts rounds, but
      // is never max-merged across copies, so hop <= ttl always holds.
      ++event.hop;
      ball->push_back(std::move(event));
    }
    nextBall_.clear();

    out.targets = sampler_.samplePeers(options_.fanout);
    out.ball = ball;
    stats_.ballsSent += out.targets.size();
    stats_.eventsRelayed += ball->size() * out.targets.size();
    stats_.maxBallSize = std::max(stats_.maxBallSize, ball->size());
    EPTO_TRACE_EVENT(BallSent, .node = self_, .round = stats_.rounds,
                     .size = ball->size(), .aux = out.targets.size());

    // Alg. 1 line 27: hand the round's ball to the ordering component.
    ordering_.orderEvents(*ball);
  } else {
    // The pseudocode skips orderEvents for empty rounds, but received
    // events must age every round for validity/liveness in quiescent
    // systems (DESIGN.md §3); an empty ball makes the call a pure
    // aging-and-delivery step.
    ordering_.orderEvents(Ball{});
  }
  return out;
}

}  // namespace epto
