// Latency decomposition — where did each delivered event's end-to-end
// latency go?
//
// EpTO's delivery latency (paper Fig. 5/7) is the sum of three phases:
//   * dissemination — broadcast until this node first saw a copy
//     (epidemic relay time, Alg. 1);
//   * stability wait — first sighting until the event crossed the
//     stability horizon (the TTL wait of Alg. 2, the price of total
//     order);
//   * ordering-queue wait — stable until actually delivered (blocked
//     behind a smaller, not-yet-stable key).
// The three are constructed to sum exactly to the end-to-end latency
// (see OrderingComponent::deliverBatch), so the histograms decompose the
// Fig. 5 CDF instead of merely accompanying it. ROADMAP item 4's
// adaptive delivery controller consumes exactly this split.
//
// Units are oracle-clock ticks: simulator ticks under ClockMode::Global
// in the sim, microseconds in the UDP runtime, logical-clock steps under
// ClockMode::Logical (comparable within one run, not across modes).
//
// One recorder per cluster (not per node): the histograms aggregate
// across nodes the way the paper's figures do, and Histogram::observe is
// already thread-safe for the UDP runtime's shard threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "core/types.h"
#include "obs/registry.h"

namespace epto::obs {

/// One ordered delivery's phase split, in oracle-clock ticks.
struct LatencySample {
  std::uint64_t dissemination = 0;  ///< broadcast -> first seen here.
  std::uint64_t stabilityWait = 0;  ///< first seen -> became deliverable.
  std::uint64_t orderingWait = 0;   ///< became deliverable -> delivered.
  std::uint64_t endToEnd = 0;       ///< broadcast -> delivered (= sum).
};

class LatencyRecorder {
 public:
  /// Test hook observing every sample. Install before any node runs;
  /// invoked from shard threads under the UDP runtime.
  using Hook = std::function<void(ProcessId node, const EventId& id,
                                  const LatencySample& sample)>;

  /// Registers four histograms (epto_latency_{end_to_end,dissemination,
  /// stability_wait,ordering_wait}) in `registry`, which must outlive
  /// the recorder.
  explicit LatencyRecorder(Registry& registry);

  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;

  void observe(ProcessId node, const EventId& id, const LatencySample& sample);

  void setHook(Hook hook) { hook_ = std::move(hook); }

  [[nodiscard]] std::uint64_t observed() const noexcept {
    return observed_.load(std::memory_order_relaxed);
  }

 private:
  Histogram* endToEnd_;       // owned by the registry
  Histogram* dissemination_;
  Histogram* stabilityWait_;
  Histogram* orderingWait_;
  Hook hook_;
  std::atomic<std::uint64_t> observed_{0};
};

}  // namespace epto::obs
