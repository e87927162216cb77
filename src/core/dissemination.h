// EpTO dissemination component — paper Algorithm 1.
//
// The component is sans-io: it never touches a socket or a timer. The
// driver (discrete-event simulator, UDP runtime, or an application's
// own event loop) calls
//   * broadcast()  when the application EpTO-broadcasts (Alg. 1 l.6-10),
//   * onBall()     when a ball arrives from the network (Alg. 1 l.11-19),
//   * onRound()    every delta time units (Alg. 1 l.20-28); the returned
//                  RoundOutput carries the ball to transmit and the K
//                  gossip targets drawn from the peer-sampling service.
// The three entry points must be called from one logical thread of
// control, matching the paper's "procedures executed atomically".
//
// Hot-path engineering (DESIGN.md §11): `nextBall` is a vector kept
// sorted by EventId at all times — incoming balls are themselves sorted
// (every sender emits sorted balls), so onBall() is one linear merge and
// onRound() emits the ball without the former per-event hash insert and
// per-round sort. Balls received later in a round mostly repeat what
// earlier balls carried, so the merge runs an in-place phase first
// (duplicate ttl-maxing writes nothing unless the ttl actually grows)
// and only rewrites the suffix — backward, one write per element — after
// the first genuine insertion. The
// round then moves the events (and their payload refcounts) straight
// into a pooled Ball buffer, so a steady-state round performs no
// allocation and no payload shared_ptr churn beyond the copies
// receivers genuinely keep.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/ordering.h"
#include "core/stability_oracle.h"
#include "core/types.h"

namespace epto {

/// Counters exposed for tests, benches and operational visibility.
struct DisseminationStats {
  std::uint64_t broadcasts = 0;      ///< local EpTO-broadcast calls.
  std::uint64_t ballsReceived = 0;   ///< onBall invocations.
  std::uint64_t ballsSent = 0;       ///< ball transmissions (one per target).
  std::uint64_t eventsRelayed = 0;   ///< event copies placed in outgoing balls.
  std::uint64_t eventsExpired = 0;   ///< received events dropped, ttl >= TTL.
  std::uint64_t rounds = 0;          ///< onRound invocations.
  std::size_t maxBallSize = 0;       ///< high-water mark of events per ball.
};

class DisseminationComponent {
 public:
  struct Options {
    std::size_t fanout = 0;  ///< K — gossip targets per round.
    std::uint32_t ttl = 0;   ///< TTL — rounds each event is relayed.
  };

  /// What one round produced. When `ball` is null the round was idle and
  /// nothing is transmitted (Alg. 1 line 23's emptiness check).
  struct RoundOutput {
    BallPtr ball;
    std::vector<ProcessId> targets;
  };

  /// The oracle and sampler must outlive the component; `ordering` is the
  /// same process's ordering component (Alg. 1 line 27 hands it the ball).
  DisseminationComponent(ProcessId self, Options options, StabilityOracle& oracle,
                         PeerSampler& sampler, OrderingComponent& ordering);

  /// EpTO-broadcast: timestamp the payload with the oracle clock and
  /// queue it for relaying. Returns the newly created event (ttl = 0) so
  /// the caller knows its id, timestamp and order key. The QoS class
  /// rides along unexamined — dissemination treats Fast and Safe events
  /// identically.
  Event broadcast(PayloadPtr payload, QosClass qos = QosClass::Safe);

  /// Move fanout and TTL online (Process::retune). Takes effect from the
  /// next round; events already queued keep their accumulated ttl, so a
  /// TTL reduction simply expires them sooner at the receivers.
  void retune(std::size_t fanout, std::uint32_t ttl);

  /// Network receive callback for one incoming ball.
  void onBall(const Ball& ball);

  /// Fast-forward the broadcast sequence counter. A restarted process
  /// reusing its ProcessId must never reissue an EventId its previous
  /// incarnation used; the driver moves the fresh instance into a
  /// disjoint sequence range. Only valid before the first broadcast.
  void startSequenceAt(std::uint32_t first);

  /// Incarnation stamped into every event this process broadcasts
  /// (lineage only — the protocol never reads it; codec v2 carries it on
  /// the wire so trace analysis can tell a restarted process's events
  /// from its predecessor's). Like startSequenceAt, only valid before
  /// the first broadcast. Simulation drivers leave it 0.
  void setIncarnation(std::uint16_t incarnation);

  /// The periodic relay task; call every delta time units.
  RoundOutput onRound();

  [[nodiscard]] ProcessId self() const noexcept { return self_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] const DisseminationStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t pendingRelayCount() const noexcept { return nextBall_.size(); }

 private:
  // Concurrency contract (DESIGN.md §12): capability-free by design. The
  // sans-io core is confined to one logical thread of control (the
  // paper's "procedures executed atomically"); drivers serialize
  // broadcast()/onBall()/onRound() per process, so a lock here would
  // only hide a driver bug. Cross-thread ingress belongs in the driver
  // (the shard mailbox and IngressQueue), never in this class.

  /// Merge one id-sorted run of events into nextBall_ (duplicates keep
  /// the existing copy with the max ttl of both; expired run entries are
  /// skipped).
  void mergeSortedRun(const Event* run, std::size_t count);
  /// A cleared Ball buffer, reusing a pooled one when every previous
  /// consumer has released it.
  [[nodiscard]] std::shared_ptr<Ball> acquireBall();

  ProcessId self_;
  Options options_;
  StabilityOracle& oracle_;
  PeerSampler& sampler_;
  OrderingComponent& ordering_;

  /// Alg. 1 `nextBall`: events to relay in the next round, sorted by id.
  std::vector<Event> nextBall_;
  /// Copy of an incoming ball used only when it arrives unsorted.
  std::vector<Event> sortScratch_;
  /// Recycled Ball buffers (see acquireBall).
  std::vector<std::shared_ptr<Ball>> ballPool_;
  std::uint32_t nextSequence_ = 0;
  /// See setIncarnation.
  std::uint16_t incarnation_ = 0;
  /// Balls absorbed since the last onRound — the fan-in figure carried
  /// by BallReceived trace events. Reset each round.
  std::uint64_t ballsThisRound_ = 0;

  DisseminationStats stats_;
};

}  // namespace epto
