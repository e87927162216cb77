// Deterministic fault schedules — the "faultscape" the paper's evaluation
// stresses (§5.4 churn, Fig. 10 loss) generalized into one declarative
// format shared by the simulator and the UDP runtime.
//
// A FaultPlan is a list of timed FaultSpecs: node crashes (with optional
// restart), process stalls (the GC-pause scenario the logical clock is
// designed to survive, §5.3/§8.2), network partitions with a scheduled
// heal, and burst loss / delay spikes on selected links. Times are in the
// host's tick domain — simulator ticks for the sim, microseconds since
// cluster epoch for the UDP runtime — so the same plan shape
// drives every deployment.
//
// Determinism: a plan is a value; building the same plan (or calling
// randomMix with the same seed and envelope) always yields the identical
// schedule, checkable via signature(). Interpretation is left to
// FaultController (fault_controller.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/rng.h"

namespace epto::fault {

/// Sentinel for a crash that never restarts ("until" of a Crash spec).
inline constexpr Timestamp kNever = 0;

enum class FaultKind : std::uint8_t {
  Crash,       ///< node torn down at [at, until); until == kNever: forever.
  Stall,       ///< node executes no rounds during [at, until); traffic buffers.
  Partition,   ///< links between `nodes` and the rest cut during [at, until).
  BurstLoss,   ///< extra per-message loss on matching links during [at, until).
  DelaySpike,  ///< extra one-way delay on matching links during [at, until).
};

[[nodiscard]] const char* faultKindName(FaultKind kind);

/// One scheduled fault. Which fields matter depends on `kind`:
///   Crash/Stall   — `nodes` are the victims;
///   Partition     — `nodes` are one island, cut off from everyone else;
///   BurstLoss     — `lossRate` applies to links touching `nodes`
///                   (empty = every link);
///   DelaySpike    — `extraDelay` likewise.
struct FaultSpec {
  FaultKind kind = FaultKind::Crash;
  Timestamp at = 0;
  Timestamp until = 0;  ///< exclusive end; kNever only valid for Crash.
  std::vector<ProcessId> nodes;
  double lossRate = 0.0;
  Timestamp extraDelay = 0;

  /// Whether the fault window covers `now`.
  [[nodiscard]] bool activeAt(Timestamp now) const noexcept {
    return now >= at && (until == kNever || now < until);
  }
  [[nodiscard]] bool involves(ProcessId node) const noexcept;
  /// Link faults: does this spec apply to a message from -> to?
  [[nodiscard]] bool matchesLink(ProcessId from, ProcessId to) const noexcept;
};

class FaultPlan {
 public:
  /// Node `node` is torn down at `at`; with `restartAt` != kNever it
  /// rejoins at that time with completely fresh state.
  FaultPlan& crash(Timestamp at, ProcessId node, Timestamp restartAt = kNever);

  /// Node `node` stops executing rounds during [at, until) — a stalled
  /// scheduler / GC pause. Incoming traffic keeps buffering.
  FaultPlan& stall(Timestamp at, Timestamp until, ProcessId node);

  /// Links between `island` and every other process are cut during
  /// [at, until); the heal at `until` is part of the schedule.
  FaultPlan& partition(Timestamp at, Timestamp until, std::vector<ProcessId> island);

  /// Extra independent per-message loss on links touching `nodes`
  /// (empty = all links) during [at, until). Compounds with the
  /// transport's base loss rate.
  FaultPlan& burstLoss(Timestamp at, Timestamp until, double lossRate,
                       std::vector<ProcessId> nodes = {});

  /// Extra one-way delay on links touching `nodes` (empty = all links)
  /// during [at, until).
  FaultPlan& delaySpike(Timestamp at, Timestamp until, Timestamp extraDelay,
                        std::vector<ProcessId> nodes = {});

  [[nodiscard]] const std::vector<FaultSpec>& specs() const noexcept { return specs_; }
  [[nodiscard]] bool empty() const noexcept { return specs_.empty(); }
  /// Largest schedule time referenced (start or end of any window).
  [[nodiscard]] Timestamp horizon() const noexcept;
  /// Largest node id referenced (0 when the plan names no node).
  [[nodiscard]] ProcessId maxNode() const noexcept;

  /// Canonical textual form of the schedule, one spec per line. Two plans
  /// with equal signatures inject identical fault schedules — the
  /// determinism acceptance check.
  [[nodiscard]] std::string signature() const;

  /// Envelope for the seeded scenario generator.
  struct RandomMixOptions {
    std::size_t nodeCount = 8;    ///< victims drawn from [0, nodeCount).
    Timestamp start = 0;          ///< earliest fault onset.
    Timestamp horizon = 1;        ///< latest window end (> start).
    Timestamp minDuration = 1;    ///< per-window length bounds.
    Timestamp maxDuration = 1;
    std::size_t crashes = 0;      ///< crash+restart pairs.
    std::size_t stalls = 0;
    std::size_t partitions = 0;
    std::size_t bursts = 0;
    std::size_t delaySpikes = 0;
    double burstLossRate = 0.5;
    Timestamp spikeDelay = 1;
  };

  /// Deterministic scenario generator: the same (seed, options) pair
  /// always produces the identical plan (same signature()).
  [[nodiscard]] static FaultPlan randomMix(std::uint64_t seed,
                                           const RandomMixOptions& options);

 private:
  void push(FaultSpec spec);

  std::vector<FaultSpec> specs_;
};

}  // namespace epto::fault
