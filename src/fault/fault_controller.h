// FaultController — the shared interpreter of a FaultPlan.
//
// State is a pure function of (plan, now): the controller is immutable
// after construction apart from relaxed atomic statistics, so shard
// threads and the discrete simulator can all query it concurrently
// without coordination, and a run remains deterministic.
//
// Division of labour: the controller answers "is this node down/stalled
// at `now`?" and "what happens to a message on this link at `now`?";
// the host (SimCluster, UdpCluster) enforces the answer — tearing nodes
// down, skipping rounds, dropping or delaying messages — and reports
// what it did through the note*() hooks, which feed the fault
// statistics, the obs metrics registry and the protocol tracer.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/types.h"
#include "fault/fault_plan.h"
#include "obs/registry.h"

namespace epto::fault {

/// What happened, cumulatively, across the injected faultscape.
struct FaultStats {
  std::uint64_t crashes = 0;         ///< crash windows entered.
  std::uint64_t restarts = 0;        ///< nodes that rejoined after a crash.
  std::uint64_t stalls = 0;          ///< stall windows entered.
  std::uint64_t crashDrops = 0;      ///< messages dropped: endpoint was down.
  std::uint64_t partitionDrops = 0;  ///< messages dropped: link cut by a split.
  std::uint64_t burstDrops = 0;      ///< messages dropped: burst-loss trial.
  std::uint64_t fragmentDrops = 0;   ///< fragments dropped: per-fragment burst trial.
  std::uint64_t delayedMessages = 0; ///< messages stretched by a delay spike.
};

class FaultController {
 public:
  explicit FaultController(FaultPlan plan) : plan_(std::move(plan)) {}

  FaultController(const FaultController&) = delete;
  FaultController& operator=(const FaultController&) = delete;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Node state at `now`. A node inside any Crash window is down; inside
  /// any Stall window (and not down) it executes no rounds.
  [[nodiscard]] bool isCrashed(ProcessId node, Timestamp now) const noexcept;
  [[nodiscard]] bool isStalled(ProcessId node, Timestamp now) const noexcept;

  /// Fate of a message sent from -> to at `now`. Crashed endpoints and
  /// active partitions cut the link outright; burst-loss windows add an
  /// independent loss probability (compounded across overlapping bursts);
  /// delay spikes add up.
  struct LinkFate {
    bool cut = false;
    FaultKind cutBy = FaultKind::Partition;  ///< valid when cut.
    double extraLossRate = 0.0;
    Timestamp extraDelay = 0;
  };
  [[nodiscard]] LinkFate linkFate(ProcessId from, ProcessId to,
                                  Timestamp now) const noexcept;

  // --- enforcement hooks (thread-safe; also emit Fault trace events) ----
  void noteCrash(ProcessId node, Timestamp now) noexcept;
  void noteRestart(ProcessId node, Timestamp now) noexcept;
  void noteStall(ProcessId node, Timestamp now) noexcept;
  void noteLinkDrop(ProcessId from, ProcessId to, Timestamp now,
                    FaultKind cause) noexcept;
  /// A burst-loss trial applied at *fragment* granularity (datagram
  /// transports fragment large balls; each fragment rolls the link's
  /// loss rate independently, so one lost fragment kills one ball copy
  /// without touching its siblings).
  void noteFragmentDrop(ProcessId from, ProcessId to, Timestamp now) noexcept;
  void noteDelayed(ProcessId from, ProcessId to, Timestamp now) noexcept;

  [[nodiscard]] FaultStats stats() const noexcept;

  /// Publish the counters as epto_fault_* instruments.
  void recordTo(obs::Registry& registry) const;

 private:
  // Concurrency contract (DESIGN.md §12): deliberately capability-free.
  // plan_ is immutable after construction (every query is const over
  // const data) and the statistics are relaxed atomics, so queries and
  // note*() hooks are safe from any thread without a lock — which is the
  // point: fault checks sit on round/send hot paths of every substrate.
  FaultPlan plan_;
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> crashDrops_{0};
  std::atomic<std::uint64_t> partitionDrops_{0};
  std::atomic<std::uint64_t> burstDrops_{0};
  std::atomic<std::uint64_t> fragmentDrops_{0};
  std::atomic<std::uint64_t> delayedMessages_{0};
};

}  // namespace epto::fault
