#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>

#include "check/schedule_point.h"
#include "obs/exporters.h"

namespace epto::obs {

namespace detail {

// Static-initialized (constexpr) so trace points that fire before the
// global recorder is first touched still see the default subscription.
// It is global()'s mask: setTypeMask() on that instance writes the gate.
std::atomic<std::uint32_t> flightActiveMask{FlightRecorder::kDefaultMask};

void flightRecord(const TraceEvent& event) {
  FlightRecorder::global().record(event);
}

}  // namespace detail

namespace {

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1U;
  return p;
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder(kDefaultCapacity, detail::flightActiveMask);
  return recorder;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : FlightRecorder(capacity, ownMask_) {}

FlightRecorder::FlightRecorder(std::size_t capacity, std::atomic<std::uint32_t>& mask)
    : capacity_(roundUpPow2(capacity == 0 ? 1 : capacity)),
      slots_(new Slot[capacity_]),
      mask_(mask) {}

void FlightRecorder::record(const TraceEvent& event) {
  EPTO_SCHEDULE_POINT("flight.record.claim");
  const std::uint64_t claim = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[claim & (capacity_ - 1)];
  // Seqlock write: odd stamp marks the slot torn while the payload words
  // land; the release store of the even stamp publishes them.
  EPTO_SCHEDULE_POINT("flight.record.open");
  slot.stamp.store(claim * 2 + 1, std::memory_order_relaxed);
  const std::uint64_t w0 = static_cast<std::uint64_t>(event.type) |
                           (static_cast<std::uint64_t>(event.detail) << 8U) |
                           (static_cast<std::uint64_t>(event.node) << 32U);
  EPTO_SCHEDULE_POINT("flight.record.words");
  slot.words[0].store(w0, std::memory_order_relaxed);
  slot.words[1].store(event.round, std::memory_order_relaxed);
  slot.words[2].store(event.event.packed(), std::memory_order_relaxed);
  slot.words[3].store(event.ts, std::memory_order_relaxed);
  EPTO_SCHEDULE_POINT("flight.record.words2");
  slot.words[4].store(event.ttl, std::memory_order_relaxed);
  slot.words[5].store(event.size, std::memory_order_relaxed);
  slot.words[6].store(event.aux, std::memory_order_relaxed);
  EPTO_SCHEDULE_POINT("flight.record.close");
  slot.stamp.store(claim * 2 + 2, std::memory_order_release);
  if (JsonlTraceSink* sink = sink_.load(std::memory_order_relaxed); sink != nullptr) {
    sink->consume(event);
  }
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> records;
  records.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    EPTO_SCHEDULE_POINT("flight.snapshot.stamp");
    const std::uint64_t before = slot.stamp.load(std::memory_order_acquire);
    if (before == 0 || (before & 1U) != 0) continue;  // empty or mid-write
    std::array<std::uint64_t, kWords> words;
    EPTO_SCHEDULE_POINT("flight.snapshot.words");
    for (std::size_t w = 0; w < kWords; ++w) {
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    EPTO_SCHEDULE_POINT("flight.snapshot.recheck");
    if (slot.stamp.load(std::memory_order_relaxed) != before) continue;  // torn

    FlightRecord record;
    record.claim = (before - 2) / 2;
    TraceEvent& event = record.event;
    event.type = static_cast<TraceType>(words[0] & 0xFFU);
    event.detail = static_cast<std::uint8_t>((words[0] >> 8U) & 0xFFU);
    event.node = static_cast<ProcessId>(words[0] >> 32U);
    event.round = words[1];
    event.event = EventId{static_cast<ProcessId>(words[2] >> 32U),
                          static_cast<std::uint32_t>(words[2] & 0xFFFFFFFFU)};
    event.ts = words[3];
    event.ttl = static_cast<std::uint32_t>(words[4]);
    event.size = words[5];
    event.aux = words[6];
    records.push_back(std::move(record));
  }
  std::sort(records.begin(), records.end(),
            [](const FlightRecord& a, const FlightRecord& b) { return a.claim < b.claim; });
  return records;
}

std::size_t FlightRecorder::dumpTo(const std::string& path, const std::string& reason) {
  const util::MutexLock lock(dumpMutex_);
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) return 0;
  const auto records = snapshot();
  std::string header = "{\"type\":\"flight_dump\",\"reason\":\"";
  header += escape(reason);
  header += "\",\"records\":";
  header += std::to_string(records.size());
  header += ",\"recorded\":";
  header += std::to_string(recorded());
  header += ",\"dropped\":";
  header += std::to_string(dropped());
  header += "}\n";
  std::fwrite(header.data(), 1, header.size(), file);
  for (const FlightRecord& record : records) {
    const std::string line = traceEventJson(record.event);
    std::fwrite(line.data(), 1, line.size(), file);
    std::fputc('\n', file);
  }
  std::fclose(file);
  return records.size();
}

void FlightRecorder::reset() {
  cursor_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < capacity_; ++i) {
    slots_[i].stamp.store(0, std::memory_order_relaxed);
    for (auto& word : slots_[i].words) word.store(0, std::memory_order_relaxed);
  }
}

}  // namespace epto::obs
