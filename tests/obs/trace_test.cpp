// Trace event encoding, the JSONL sink, and the EPTO_TRACE_EVENT macro's
// one-word gate into the flight recorder (compile-time gated).
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/flight_recorder.h"

namespace epto::obs {
namespace {

TraceEvent eventWithSeq(std::uint32_t seq) {
  TraceEvent event;
  event.type = TraceType::Deliver;
  event.event = EventId{.source = 1, .sequence = seq};
  return event;
}

TEST(TraceEventTest, NamesAndJson) {
  EXPECT_STREQ(traceTypeName(TraceType::Broadcast), "broadcast");
  EXPECT_STREQ(traceTypeName(TraceType::StabilityDecision), "stability_decision");
  EXPECT_STREQ(dropReasonName(DropReason::Expired), "expired");

  TraceEvent event;
  event.type = TraceType::Deliver;
  event.node = 3;
  event.round = 7;
  event.event = EventId{.source = 2, .sequence = 9};
  event.ts = 1000;
  event.ttl = 5;
  event.size = 1;
  // One line, byte for byte: trace files, flight dumps and
  // tools/epto_trace.py all share this shape.
  EXPECT_EQ(traceEventJson(event),
            R"({"type":"deliver","node":3,"round":7,"source":2,"seq":9,"ts":1000,)"
            R"("ttl":5,"size":1,"aux":0,"detail":0})");
}

TEST(JsonlTraceSinkTest, WritesWholeLinesImmediately) {
  const std::string path = ::testing::TempDir() + "trace_sink_test.jsonl";
  std::remove(path.c_str());
  JsonlTraceSink sink(path);
  ASSERT_TRUE(sink.ok());
  sink.consume(eventWithSeq(7));
  sink.writeLine(R"({"type":"label","label":"section"})");
  // Line-buffered: both lines are on disk before the sink is destroyed
  // (a crashed run loses at most the line being written).
  std::ifstream in(path);
  std::string line1;
  std::string line2;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_NE(line1.find("\"seq\":7"), std::string::npos);
  EXPECT_NE(line2.find("\"label\":\"section\""), std::string::npos);
  std::remove(path.c_str());
}

#if defined(EPTO_TRACE_ENABLED)
// With tracing compiled in, the macro records only while the global
// recorder's mask holds the type; mask 0 is off, and an off trace point
// evaluates none of its initializers. (With EPTO_TRACE=OFF these tests
// compile away, mirroring the zero-overhead guarantee.)
TEST(TraceMacroTest, RecordsOnlyWhileEnabled) {
  auto& flight = FlightRecorder::global();
  flight.reset();
  flight.setTypeMask(0);

  int evaluations = 0;
  const auto touch = [&evaluations]() -> std::uint64_t {
    ++evaluations;
    return 2;
  };
  EPTO_TRACE_EVENT(Broadcast, .node = 1, .size = touch());
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(flight.recorded(), 0u);

  flight.setTypeMask(traceTypeBit(TraceType::Broadcast));
  EPTO_TRACE_EVENT(Broadcast, .node = 1, .size = touch());
  flight.setTypeMask(0);
  EPTO_TRACE_EVENT(Broadcast, .node = 1, .size = touch());

  EXPECT_EQ(evaluations, 1);
  const auto records = flight.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event.type, TraceType::Broadcast);
  EXPECT_EQ(records[0].event.node, 1u);
  EXPECT_EQ(records[0].event.size, 2u);

  flight.reset();
  flight.setTypeMask(FlightRecorder::kDefaultMask);  // restore for other tests
}

// Subscribed types reach the ring; unsubscribed types cost nothing (the
// initializer expressions are not evaluated).
TEST(TraceMacroTest, FeedsFlightRecorderBySubscription) {
  auto& flight = FlightRecorder::global();
  flight.reset();
  flight.setTypeMask(traceTypeBit(TraceType::Fault));

  int evaluations = 0;
  const auto touch = [&evaluations]() -> std::uint64_t {
    ++evaluations;
    return 9;
  };
  EPTO_TRACE_EVENT(Fault, .node = 4, .aux = touch());
  EPTO_TRACE_EVENT(Deliver, .node = 5, .aux = touch());  // unsubscribed
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(flight.recorded(), 1u);
  const auto records = flight.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].event.type, TraceType::Fault);
  EXPECT_EQ(records[0].event.node, 4u);
  EXPECT_EQ(records[0].event.aux, 9u);

  flight.reset();
  flight.setTypeMask(FlightRecorder::kDefaultMask);  // restore for other tests
}
#endif

}  // namespace
}  // namespace epto::obs
