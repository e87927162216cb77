// FlightRecorder semantics: lock-free record/snapshot, ring lapping,
// subscription masks, the macro gate word, JSONL dumps, and the sink
// stream behind full traces.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace epto::obs {
namespace {

TraceEvent eventWithSeq(std::uint32_t seq, TraceType type = TraceType::Broadcast) {
  TraceEvent event;
  event.type = type;
  event.node = 3;
  event.round = 40 + seq;
  event.event = EventId{.source = 2, .sequence = seq};
  event.ts = 1000 + seq;
  event.ttl = 5;
  event.size = seq;
  event.aux = 77;
  event.detail = 1;
  return event;
}

TEST(FlightRecorderTest, RecordsAndSnapshotsOldestFirst) {
  FlightRecorder recorder(8);
  for (std::uint32_t i = 0; i < 3; ++i) recorder.record(eventWithSeq(i));
  EXPECT_EQ(recorder.recorded(), 3u);
  EXPECT_EQ(recorder.dropped(), 0u);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(records[i].claim, i);
    EXPECT_EQ(records[i].event.event.sequence, i);
    EXPECT_EQ(records[i].event.type, TraceType::Broadcast);
    EXPECT_EQ(records[i].event.node, 3u);
    EXPECT_EQ(records[i].event.round, 40 + i);
    EXPECT_EQ(records[i].event.ts, 1000 + i);
    EXPECT_EQ(records[i].event.ttl, 5u);
    EXPECT_EQ(records[i].event.aux, 77u);
    EXPECT_EQ(records[i].event.detail, 1u);
  }
}

TEST(FlightRecorderTest, RingLapsKeepingNewest) {
  FlightRecorder recorder(4);
  for (std::uint32_t i = 0; i < 11; ++i) recorder.record(eventWithSeq(i));
  EXPECT_EQ(recorder.recorded(), 11u);
  EXPECT_EQ(recorder.dropped(), 7u);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].event.event.sequence, 7 + i);
  }
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(5);  // rounds to 8
  for (std::uint32_t i = 0; i < 8; ++i) recorder.record(eventWithSeq(i));
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.snapshot().size(), 8u);
}

TEST(FlightRecorderTest, MaskAndEnableGateWants) {
  FlightRecorder recorder(8);
  EXPECT_EQ(recorder.typeMask(), FlightRecorder::kDefaultMask);
  EXPECT_TRUE(recorder.wants(TraceType::Broadcast));
  EXPECT_FALSE(recorder.wants(TraceType::FirstSeen));  // per-event, off by default

  recorder.setTypeMask(traceTypeBit(TraceType::FirstSeen));
  EXPECT_TRUE(recorder.wants(TraceType::FirstSeen));
  EXPECT_FALSE(recorder.wants(TraceType::Broadcast));

  // Mask 0 is the off switch; the full mask enables every type.
  recorder.setTypeMask(0);
  EXPECT_FALSE(recorder.wants(TraceType::FirstSeen));
  recorder.setTypeMask(FlightRecorder::kFullMask);
  for (std::size_t type = 0; type < kTraceTypeCount; ++type) {
    EXPECT_TRUE(recorder.wants(static_cast<TraceType>(type))) << type;
  }
}

TEST(FlightRecorderTest, GlobalGateMirrorsIntoMacroWord) {
  // The global recorder's mask is the word EPTO_TRACE_EVENT reads.
  auto& recorder = FlightRecorder::global();
  const auto savedMask = recorder.typeMask();

  recorder.setTypeMask(traceTypeBit(TraceType::Fault));
  EXPECT_TRUE(detail::flightWants(TraceType::Fault));
  EXPECT_FALSE(detail::flightWants(TraceType::Broadcast));
  recorder.setTypeMask(0);
  EXPECT_FALSE(detail::flightWants(TraceType::Fault));

  recorder.setTypeMask(savedMask);
}

TEST(FlightRecorderTest, ResetClearsRingAndCounters) {
  FlightRecorder recorder(8);
  for (std::uint32_t i = 0; i < 20; ++i) recorder.record(eventWithSeq(i));
  recorder.reset();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(FlightRecorderTest, DumpToWritesHeaderAndRecords) {
  const std::string path = ::testing::TempDir() + "flight_dump_test.jsonl";
  std::remove(path.c_str());
  FlightRecorder recorder(8);
  recorder.record(eventWithSeq(0, TraceType::Fault));
  recorder.record(eventWithSeq(1, TraceType::Drop));
  EXPECT_EQ(recorder.dumpTo(path, "unit test"), 2u);
  // Append mode: a second dump extends the same file.
  EXPECT_EQ(recorder.dumpTo(path, "again"), 2u);

  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_NE(lines[0].find("\"type\":\"flight_dump\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"reason\":\"unit test\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"records\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"fault\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"type\":\"drop\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"reason\":\"again\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, DumpToUnwritablePathReturnsZero) {
  FlightRecorder recorder(8);
  recorder.record(eventWithSeq(0));
  EXPECT_EQ(recorder.dumpTo("/nonexistent-dir/flight.jsonl", "x"), 0u);
}

TEST(FlightRecorderTest, ConcurrentWritersNeverTearRecords) {
  // 4 writers lapping a small ring while a reader snapshots: every
  // consistent record must be bit-exact (ts == 1000 + seq, aux == 77).
  FlightRecorder recorder(16);
  constexpr int kWriters = 4;
  constexpr std::uint32_t kPerWriter = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder] {
      for (std::uint32_t i = 0; i < kPerWriter; ++i) recorder.record(eventWithSeq(i));
    });
  }
  for (int pass = 0; pass < 50; ++pass) {
    for (const auto& record : recorder.snapshot()) {
      ASSERT_EQ(record.event.ts, 1000 + record.event.event.sequence);
      ASSERT_EQ(record.event.aux, 77u);
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(recorder.recorded(), kWriters * kPerWriter);
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 16u);
  // Claims of the final snapshot are contiguous and strictly increasing.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].claim, records[i - 1].claim + 1);
  }
}

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(FlightRecorderTest, SinkStreamsEveryRecordWhileRingKeepsNewest) {
  // A full trace is the ring plus a sink: the file gets every record in
  // record order, while the ring still laps and keeps only the newest.
  const std::string path = ::testing::TempDir() + "flight_sink_test.jsonl";
  std::remove(path.c_str());
  FlightRecorder recorder(4);
  {
    JsonlTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    recorder.setSink(&sink);
    for (std::uint32_t i = 0; i < 10; ++i) recorder.record(eventWithSeq(i));
    recorder.setSink(nullptr);
    recorder.record(eventWithSeq(10));  // detached: ring only
  }
  const auto lines = readLines(path);
  ASSERT_EQ(lines.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(lines[i], traceEventJson(eventWithSeq(i))) << i;
  }
  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].event.event.sequence, 7 + i);
  }
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ConcurrentWritersStreamWholeLinesInWriterOrder) {
  // 4 writers through a sink while a reader snapshots: the file holds
  // every record as one whole line, each writer's records in its own
  // order, and the ring's concurrent snapshots stay untorn.
  const std::string path = ::testing::TempDir() + "flight_sink_mt_test.jsonl";
  std::remove(path.c_str());
  constexpr ProcessId kWriters = 4;
  constexpr std::uint32_t kPerWriter = 5000;
  const auto eventFor = [](ProcessId writer, std::uint32_t seq) {
    TraceEvent event = eventWithSeq(seq);
    event.node = writer;
    return event;
  };
  FlightRecorder recorder(16);
  {
    JsonlTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    recorder.setSink(&sink);
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (ProcessId w = 0; w < kWriters; ++w) {
      writers.emplace_back([&recorder, &eventFor, w] {
        for (std::uint32_t i = 0; i < kPerWriter; ++i) recorder.record(eventFor(w, i));
      });
    }
    for (int pass = 0; pass < 50; ++pass) {
      for (const auto& record : recorder.snapshot()) {
        ASSERT_EQ(record.event.ts, 1000 + record.event.event.sequence);
        ASSERT_EQ(record.event.aux, 77u);
      }
    }
    for (auto& t : writers) t.join();
    recorder.setSink(nullptr);
  }
  const auto lines = readLines(path);
  ASSERT_EQ(lines.size(), std::size_t{kWriters} * kPerWriter);
  std::vector<std::uint32_t> next(kWriters, 0);
  for (const std::string& line : lines) {
    // Identify the writer, then demand the exact line its next record
    // encodes to: a torn or reordered line cannot match.
    const auto at = line.find("\"node\":");
    ASSERT_NE(at, std::string::npos) << line;
    const auto writer = static_cast<ProcessId>(std::stoul(line.substr(at + 7)));
    ASSERT_LT(writer, kWriters) << line;
    ASSERT_EQ(line, traceEventJson(eventFor(writer, next[writer])));
    ++next[writer];
  }
  for (ProcessId w = 0; w < kWriters; ++w) EXPECT_EQ(next[w], kPerWriter) << w;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace epto::obs
