// Structured protocol tracing — the "why did this delivery happen late?"
// layer.
//
// The sans-io core emits typed TraceEvents at every protocol decision
// point (broadcast, ball sent/received, first sighting, ttl merge,
// stability decision, became-deliverable, deliver, drop) through the
// EPTO_TRACE_EVENT macro. Two gates keep the hot path honest:
//   * compile time — building with -DEPTO_TRACE=OFF removes the macro
//     body entirely; the core contains no trace code and pays zero cost
//     (the micro_core acceptance bar);
//   * run time — even when compiled in, an event is only materialized
//     after a relaxed atomic load says a consumer wants it. There are two
//     consumers: the full Tracer below (off by default) and the always-on
//     flight recorder (obs/flight_recorder.h), which subscribes to a
//     type mask through the one-word gate in obs::detail.
//
// Events land in a bounded ring buffer (oldest overwritten on overflow,
// with a dropped-count so truncation is visible) and are flushed on
// demand to a pluggable sink: InMemorySink for tests, JsonlTraceSink for
// runs. The Tracer is per-OS-process (one global instance) because trace
// analysis wants a single interleaved timeline across every node a
// process hosts; the `node` field keeps per-node streams separable.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace epto::obs {

enum class TraceType : std::uint8_t {
  Broadcast,          ///< local EpTO-broadcast (Alg. 1 l.6-10).
  BallSent,           ///< round emitted a ball; size = events, aux = targets.
  BallReceived,       ///< ball arrived; size = events, aux = balls this round
                      ///< (fan-in), ttl = max hop carried by the ball.
  TtlMerge,           ///< known event's ttl max-merged; ttl = incoming, aux = kept.
  StabilityDecision,  ///< oracle round verdict; size = deliverable, aux = held back.
  Deliver,            ///< EpTO-deliver; detail = DeliveryTag, size = oracle clock.
  Drop,               ///< event discarded; detail = DropReason.
  Fault,              ///< injected fault enforced; detail = fault::FaultKind.
  FirstSeen,          ///< event entered this node's relay set for the first
                      ///< time; size = oracle clock, aux = hop count.
  BecameDeliverable,  ///< event crossed the stability horizon; ts = clock at
                      ///< the stable round, aux = the stable round.
  Speculate,          ///< §8.4 speculative delivery ahead of the committed
                      ///< frontier; size = confidence in millionths,
                      ///< aux = redundant copies observed.
  SpecConfirm,        ///< a speculated event committed at the same position.
  SpecRevoke,         ///< a speculated event was displaced by a fresh
                      ///< smaller-keyed event before committing.
  Retune,             ///< adaptive controller moved TTL/K; ttl = new TTL,
                      ///< detail = new K, size = packed TTL bounds
                      ///< (upper<<32|lower), aux = packed K bounds.
};

/// Number of TraceType enumerators — sizes the flight recorder's type mask.
inline constexpr std::size_t kTraceTypeCount = 14;

enum class DropReason : std::uint8_t {
  Expired,     ///< ttl >= TTL on arrival, not relayed or ordered.
  OutOfOrder,  ///< sorts at/before the delivery frontier, tagging off.
  Duplicate,   ///< already delivered (tagged-delivery memory hit).
};

struct TraceEvent {
  TraceType type = TraceType::Broadcast;
  ProcessId node = 0;        ///< the process recording the event.
  std::uint64_t round = 0;   ///< that process's round counter.
  EventId event{};           ///< protocol event id; {0,0} when n/a.
  Timestamp ts = 0;          ///< event timestamp (clock value) when known.
  std::uint32_t ttl = 0;     ///< event ttl at the decision point.
  std::uint64_t size = 0;    ///< type-specific cardinality (see TraceType).
  std::uint64_t aux = 0;     ///< type-specific secondary value.
  std::uint8_t detail = 0;   ///< DeliveryTag or DropReason ordinal.
  std::string note{};        ///< free-form annotation; emitted JSON-escaped.
};

[[nodiscard]] const char* traceTypeName(TraceType type);
[[nodiscard]] const char* dropReasonName(DropReason reason);
/// One event as a single-line JSON object (no newline). The `note` field
/// is emitted only when non-empty, with full string escaping.
[[nodiscard]] std::string traceEventJson(const TraceEvent& event);

/// Where flushed events go.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void consume(const TraceEvent& event) = 0;
};

/// Accumulates events in memory; the test sink.
class InMemorySink final : public TraceSink {
 public:
  void consume(const TraceEvent& event) override EPTO_EXCLUDES(mutex_);
  [[nodiscard]] std::vector<TraceEvent> events() const EPTO_EXCLUDES(mutex_);
  void clear() EPTO_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;
  std::vector<TraceEvent> events_ EPTO_GUARDED_BY(mutex_);
};

/// Streams each event as one JSON line; the run sink. Line-buffered so an
/// abrupt crash (chaos scenarios tear nodes down mid-round) loses at
/// most the line being written, not a stdio buffer full of tail events.
/// Each line is emitted with a single fwrite, so concurrent flushes from
/// different threads interleave whole lines, never fragments.
class JsonlTraceSink final : public TraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink() override;
  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }
  void consume(const TraceEvent& event) override;
  /// Write one caller-composed line (no validation, newline appended) —
  /// used by the bench drivers to segment a file into labelled sections.
  void writeLine(std::string_view line);

 private:
  std::FILE* file_ = nullptr;
};

class Tracer {
 public:
  struct Options {
    std::size_t capacity = 4096;  ///< ring slots before wraparound.
    /// When a sink is attached, spill the ring to it instead of
    /// overwriting the oldest event — record() then pays sink I/O on a
    /// full ring, which is what trace-collection runs want (a complete
    /// file) and hot production paths do not (the default stays off).
    bool flushOnFull = false;
  };

  /// The per-OS-process tracer the EPTO_TRACE_EVENT macro records into.
  [[nodiscard]] static Tracer& global();

  Tracer() = default;
  explicit Tracer(Options options) : options_(options) {}

  /// Reset the ring (and drop counters) with new options. Not for use
  /// while other threads are recording.
  void configure(Options options) EPTO_EXCLUDES(mutex_);

  void setSink(std::shared_ptr<TraceSink> sink) EPTO_EXCLUDES(mutex_);
  void setEnabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
    if (externalGate_ != nullptr) {
      externalGate_->store(enabled, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Append to the ring; on a full ring the oldest event is overwritten
  /// and `dropped()` advances (or, with Options::flushOnFull and a sink,
  /// the ring spills to the sink first and nothing is lost). Thread-safe.
  void record(const TraceEvent& event) EPTO_EXCLUDES(mutex_);

  /// Push every buffered event, oldest first, to the sink (if any) and
  /// clear the ring. Returns the number of events flushed. The sink is
  /// invoked with mutex_ released, so a sink may call back into the
  /// tracer without deadlocking (and recording threads are never blocked
  /// behind sink I/O).
  std::size_t flush() EPTO_EXCLUDES(mutex_);

  /// Remove and return buffered events, oldest first (test convenience;
  /// does not touch the sink).
  [[nodiscard]] std::vector<TraceEvent> drain() EPTO_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t buffered() const EPTO_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t recorded() const EPTO_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t dropped() const EPTO_EXCLUDES(mutex_);

 private:
  std::vector<TraceEvent> takeBufferedLocked() EPTO_REQUIRES(mutex_);

  /// Mirror of enabled_ read by the EPTO_TRACE_EVENT macro; only the
  /// global() instance has one (detail::tracerActiveFlag), so the
  /// macro's fast path never pays global()'s static-init guard.
  std::atomic<bool>* externalGate_ = nullptr;
  std::atomic<bool> enabled_{false};
  mutable util::Mutex mutex_;
  Options options_ EPTO_GUARDED_BY(mutex_){};
  std::vector<TraceEvent> ring_ EPTO_GUARDED_BY(mutex_);  // sized to options_.capacity
  std::size_t head_ EPTO_GUARDED_BY(mutex_) = 0;  // index of the oldest buffered event
  std::size_t size_ EPTO_GUARDED_BY(mutex_) = 0;  // buffered events
  std::uint64_t recorded_ EPTO_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ EPTO_GUARDED_BY(mutex_) = 0;
  std::shared_ptr<TraceSink> sink_ EPTO_GUARDED_BY(mutex_);
};

namespace detail {

/// The flight recorder's macro gate: one word holding the active type
/// mask of the process-global FlightRecorder (0 when disabled). Kept as
/// a bare extern atomic — not a member — so every trace point pays one
/// relaxed load, inline, without pulling in flight_recorder.h.
extern std::atomic<std::uint32_t> flightActiveMask;

/// The tracer's macro gate: mirrors Tracer::global().enabled() so the
/// macro's disabled fast path is one relaxed load — no function-local
/// static guard, no member access.
extern std::atomic<bool> tracerActiveFlag;

[[nodiscard]] inline bool flightWants(TraceType type) noexcept {
  return ((flightActiveMask.load(std::memory_order_relaxed) >>
           static_cast<unsigned>(type)) &
          1U) != 0;
}

[[nodiscard]] inline bool tracerOn() noexcept {
  return tracerActiveFlag.load(std::memory_order_relaxed);
}

/// Out-of-line forward to FlightRecorder::global().record() — only
/// reached when flightWants() said yes, so the call is off the cold path.
void flightRecord(const TraceEvent& event);

}  // namespace detail

}  // namespace epto::obs

// The core's trace entry point. The first argument is the bare TraceType
// enumerator; the rest are designated initializers for the remaining
// obs::TraceEvent fields. The event is only constructed — and the
// initializer expressions only evaluated — when the tracer is enabled or
// the flight recorder's mask includes the type; with tracing compiled
// out the whole statement disappears.
#if defined(EPTO_TRACE_ENABLED)
// Cheap hoistable gate: true when any consumer (tracer or flight
// recorder) would accept `type_`. Lets a loop that fires several trace
// points per element pay the two relaxed loads once instead of per
// point; the macros inside still re-check per consumer.
#define EPTO_TRACE_WANTS(type_)                                             \
  (::epto::obs::detail::tracerOn() ||                                       \
   ::epto::obs::detail::flightWants(::epto::obs::TraceType::type_))
#define EPTO_TRACE_EVENT(type_, ...)                                        \
  do {                                                                      \
    constexpr auto epto_trace_type_ = ::epto::obs::TraceType::type_;        \
    const bool epto_flight_on_ =                                            \
        ::epto::obs::detail::flightWants(epto_trace_type_);                 \
    const bool epto_tracer_on_ = ::epto::obs::detail::tracerOn();           \
    if (epto_tracer_on_ || epto_flight_on_) {                               \
      const ::epto::obs::TraceEvent epto_trace_event_{                      \
          .type = epto_trace_type_ __VA_OPT__(, ) __VA_ARGS__};             \
      if (epto_tracer_on_)                                                  \
        ::epto::obs::Tracer::global().record(epto_trace_event_);            \
      if (epto_flight_on_) ::epto::obs::detail::flightRecord(epto_trace_event_); \
    }                                                                       \
  } while (0)
#else
#define EPTO_TRACE_WANTS(type_) false
#define EPTO_TRACE_EVENT(type_, ...) ((void)0)
#endif
