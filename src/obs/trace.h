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
//     after one relaxed load of a type mask says its type is wanted.
//
// Events have one destination: the process-global, lock-free
// FlightRecorder (obs/flight_recorder.h). By default its mask holds the
// low-rate control plane, kept in a bounded ring for post-mortem dumps.
// A full trace is the same ring with every type in the mask and a
// JsonlTraceSink attached, which receives each record as one JSON line
// as it is recorded. The recorder is per-OS-process because trace
// analysis wants a single interleaved timeline across every node a
// process hosts; the `node` field keeps per-node streams separable.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "core/types.h"

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
static_assert(kTraceTypeCount == static_cast<std::size_t>(TraceType::Retune) + 1,
              "kTraceTypeCount must count every TraceType");

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
};

[[nodiscard]] const char* traceTypeName(TraceType type);
[[nodiscard]] const char* dropReasonName(DropReason reason);
/// One event as a single-line JSON object (no newline).
[[nodiscard]] std::string traceEventJson(const TraceEvent& event);

/// Writes each event as one JSON line; the full-trace file behind
/// FlightRecorder::setSink. Line-buffered so an abrupt crash (chaos
/// scenarios tear nodes down mid-round) loses at most the line being
/// written, not a stdio buffer full of tail events. Each line is emitted
/// with a single fwrite, so concurrent writers interleave whole lines,
/// never fragments, and each writer's lines stay in its own order.
class JsonlTraceSink {
 public:
  explicit JsonlTraceSink(const std::string& path);
  ~JsonlTraceSink();

  JsonlTraceSink(const JsonlTraceSink&) = delete;
  JsonlTraceSink& operator=(const JsonlTraceSink&) = delete;

  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }
  void consume(const TraceEvent& event);
  /// Write one caller-composed line (no validation, newline appended) —
  /// used by the bench drivers to segment a file into labelled sections.
  void writeLine(std::string_view line);

 private:
  std::FILE* file_ = nullptr;
};

namespace detail {

/// The macro gate: the type mask of the process-global FlightRecorder
/// (0 = tracing off). Kept as a bare extern atomic — not a member — so
/// every trace point pays one relaxed load, inline, without pulling in
/// flight_recorder.h.
extern std::atomic<std::uint32_t> flightActiveMask;

[[nodiscard]] inline bool flightWants(TraceType type) noexcept {
  return ((flightActiveMask.load(std::memory_order_relaxed) >>
           static_cast<unsigned>(type)) &
          1U) != 0;
}

/// Out-of-line forward to FlightRecorder::global().record() — only
/// reached when flightWants() said yes, so the call is off the cold path.
void flightRecord(const TraceEvent& event);

}  // namespace detail

}  // namespace epto::obs

// The core's trace entry point. The first argument is the bare TraceType
// enumerator; the rest are designated initializers for the remaining
// obs::TraceEvent fields. The event is only constructed — and the
// initializer expressions only evaluated — when the flight recorder's
// mask includes the type; with tracing compiled out the whole statement
// disappears.
#if defined(EPTO_TRACE_ENABLED)
// The same gate as an expression: lets a loop that fires several trace
// points per element test it once instead of per point; the macros
// inside still re-check their own type.
#define EPTO_TRACE_WANTS(type_) \
  ::epto::obs::detail::flightWants(::epto::obs::TraceType::type_)
#define EPTO_TRACE_EVENT(type_, ...)                                 \
  do {                                                               \
    constexpr auto epto_trace_type_ = ::epto::obs::TraceType::type_; \
    if (::epto::obs::detail::flightWants(epto_trace_type_)) {        \
      ::epto::obs::detail::flightRecord(::epto::obs::TraceEvent{     \
          .type = epto_trace_type_ __VA_OPT__(, ) __VA_ARGS__});     \
    }                                                                \
  } while (0)
#else
#define EPTO_TRACE_WANTS(type_) false
#define EPTO_TRACE_EVENT(type_, ...) ((void)0)
#endif
