// Flight recorder — the one trace ring: always on, lock-free.
//
// Every EPTO_TRACE_EVENT lands here when its type is in the mask. The
// default mask holds only the low-rate control-plane types (round
// boundaries, ball traffic, faults — see kDefaultMask), cheap enough to
// leave running in production: a writer claims a slot with one relaxed
// fetch_add and fills it with relaxed atomic stores guarded by a per-slot
// seqlock stamp. No mutex is ever taken on the record path.
//
// Its contents answer "what were the last N protocol decisions before
// things went wrong": the UDP runtime dumps it when the stall watchdog
// fires or a fault-plan crash takes a node down, and UdpCluster exposes
// a manual dump API (the SIGUSR2 idiom, minus the signal handler). Dumps
// are JSONL in the traceEventJson() record shape, so tools/epto_trace.py
// reads them.
//
// A full trace is kFullMask plus a JsonlTraceSink (setSink): each record
// still fills its slot, and is also written to the sink as one JSON line
// on the recording thread, so the file drops nothing and needs no drain.
// Without a sink the record path pays one relaxed load for the check.
//
// Consistency model: a reader may race a writer lapping the ring. The
// per-slot stamp (odd = write in progress, even = claim*2+2 released)
// lets snapshot() discard torn slots; all payload words are relaxed
// atomics, so the race is benign for the machine and invisible to TSan.
// A record observed with a consistent stamp is bit-exact.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace epto::obs {

/// One recovered flight-ring entry.
struct FlightRecord {
  std::uint64_t claim = 0;  ///< global record ordinal (dump sort key).
  TraceEvent event;         ///< the recorded event, bit-exact.
};

/// Subscription-mask bit for one TraceType (compose with |).
[[nodiscard]] constexpr std::uint32_t traceTypeBit(TraceType type) noexcept {
  return 1U << static_cast<unsigned>(type);
}

class FlightRecorder {
 public:
  /// Ring slots. Power of two; ~8k control-plane records cover minutes
  /// of round boundaries on every substrate.
  static constexpr std::size_t kDefaultCapacity = 8192;

  /// Default subscription: the per-round / per-anomaly control plane.
  /// The per-event types (FirstSeen, TtlMerge, Deliver, BecameDeliverable —
  /// and Drop, which fires once per *duplicate copy*, i.e. roughly
  /// redundancy× per event) fire per payload event and would both flood
  /// the ring and tax the ordering hot path; widen the mask explicitly
  /// when hunting one (the chaos suite does, for post-mortem dumps).
  static constexpr std::uint32_t kDefaultMask =
      traceTypeBit(TraceType::Broadcast) | traceTypeBit(TraceType::BallSent) |
      traceTypeBit(TraceType::BallReceived) |
      traceTypeBit(TraceType::StabilityDecision) |
      traceTypeBit(TraceType::Fault);
  /// Every TraceType: the full trace behind `--trace-out`.
  static constexpr std::uint32_t kFullMask = (1U << kTraceTypeCount) - 1;

  /// The per-OS-process recorder EPTO_TRACE_EVENT feeds (through
  /// obs::detail::flightActiveMask / flightRecord).
  [[nodiscard]] static FlightRecorder& global();

  /// `capacity` is rounded up to a power of two.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Which TraceTypes are recorded (traceTypeBit-composed); 0 turns
  /// tracing off. Takes effect for subsequent records.
  void setTypeMask(std::uint32_t mask) noexcept {
    mask_.store(mask, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t typeMask() const noexcept {
    return mask_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool wants(TraceType type) const noexcept {
    return ((typeMask() >> static_cast<unsigned>(type)) & 1U) != 0;
  }

  /// Also write every record to `sink` as it is recorded (nullptr
  /// detaches). Attach and detach only while nothing records; the caller
  /// keeps the sink alive while it is attached.
  void setSink(JsonlTraceSink* sink) noexcept {
    sink_.store(sink, std::memory_order_relaxed);
  }

  /// Lock-free append (see header comment), plus the sink write when one
  /// is attached. Safe from any thread.
  void record(const TraceEvent& event);

  /// Consistent copies of every currently-readable slot, oldest first.
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;

  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return cursor_.load(std::memory_order_relaxed);
  }
  /// Records overwritten before anyone read them.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::uint64_t total = recorded();
    return total > capacity_ ? total - capacity_ : 0;
  }

  /// Append a dump-header line plus every snapshot record as JSONL to
  /// `path` (append mode: successive dumps of one run share a file).
  /// Returns the number of records written; 0 when the file could not be
  /// opened. Serialized internally — concurrent triggers don't interleave.
  std::size_t dumpTo(const std::string& path, const std::string& reason)
      EPTO_EXCLUDES(dumpMutex_);

  /// Clear the ring and counters (tests). Not safe against concurrent
  /// recorders.
  void reset();

 private:
  // Payload packing: 7 relaxed-atomic words per slot.
  //   w0 = type | detail<<8 | node<<32     w4 = ttl
  //   w1 = round                           w5 = size
  //   w2 = event id (packed)               w6 = aux
  //   w3 = ts
  static constexpr std::size_t kWords = 7;
  struct Slot {
    std::atomic<std::uint64_t> stamp{0};  ///< 0 empty, odd writing, even done.
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  FlightRecorder(std::size_t capacity, std::atomic<std::uint32_t>& mask);

  std::size_t capacity_;  ///< power of two.
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint32_t> ownMask_{kDefaultMask};
  /// ownMask_, except for global(), whose mask is the word the
  /// EPTO_TRACE_EVENT macro reads (detail::flightActiveMask).
  std::atomic<std::uint32_t>& mask_;
  std::atomic<JsonlTraceSink*> sink_{nullptr};
  util::Mutex dumpMutex_;
};

}  // namespace epto::obs
