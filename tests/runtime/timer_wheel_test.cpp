// Tests of the hashed timer wheel driving per-shard round schedules.
// The wheel is deterministic given explicit time points, so everything
// here runs without sleeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "runtime/timer_wheel.h"
#include "util/ensure.h"

namespace epto::runtime {
namespace {

using namespace std::chrono_literals;

using TimePoint = TimerWheel::TimePoint;

TimePoint epoch() {
  // Any fixed anchor works; the wheel only looks at differences.
  return TimePoint{} + std::chrono::hours(1);
}

TEST(TimerWheel, RejectsInvalidConfiguration) {
  EXPECT_THROW(TimerWheel(0us, 8, epoch()), util::ContractViolation);
  EXPECT_THROW(TimerWheel(1ms, 0, epoch()), util::ContractViolation);
}

TEST(TimerWheel, FiresAtTheDueTickNotBefore) {
  TimerWheel wheel(1ms, 16, epoch());
  wheel.schedule(7, epoch() + 5ms);
  std::vector<std::uint32_t> out;
  EXPECT_EQ(wheel.expire(epoch() + 4ms, out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(wheel.expire(epoch() + 5ms, out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 7u);
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheel, SubGranularityDeadlinesDegradeToTheirSlot) {
  TimerWheel wheel(1ms, 16, epoch());
  // 5.3ms lives in tick 5; it fires once now reaches tick 5.
  wheel.schedule(1, epoch() + 5300us);
  std::vector<std::uint32_t> out;
  EXPECT_EQ(wheel.expire(epoch() + 5ms, out), 1u);
}

TEST(TimerWheel, PastDeadlinesFireOnTheNextExpire) {
  TimerWheel wheel(1ms, 16, epoch());
  std::vector<std::uint32_t> out;
  // Move the cursor forward first.
  wheel.expire(epoch() + 10ms, out);
  // A deadline behind the cursor (already-swept tick) must still fire.
  wheel.schedule(3, epoch() + 2ms);
  EXPECT_EQ(wheel.expire(epoch() + 10ms, out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 3u);
}

TEST(TimerWheel, FutureLapEntriesSurviveTheCursorPass) {
  TimerWheel wheel(1ms, 4, epoch());  // one lap = 4ms
  // Tick 1 and tick 5 share a slot (5 % 4 == 1).
  wheel.schedule(10, epoch() + 1ms);
  wheel.schedule(50, epoch() + 5ms);
  std::vector<std::uint32_t> out;
  EXPECT_EQ(wheel.expire(epoch() + 1ms, out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(wheel.size(), 1u);  // the future-lap entry stayed armed
  EXPECT_EQ(wheel.expire(epoch() + 5ms, out), 1u);
  EXPECT_EQ(out.back(), 50u);
}

TEST(TimerWheel, FullLapSleepSweepsEverySlotOnce) {
  TimerWheel wheel(1ms, 4, epoch());
  for (std::uint32_t id = 0; id < 4; ++id) {
    wheel.schedule(id, epoch() + std::chrono::milliseconds(id + 1));
  }
  std::vector<std::uint32_t> out;
  // Jump far past a full lap in one step: all four must fire, each once.
  EXPECT_EQ(wheel.expire(epoch() + 100ms, out), 4u);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_TRUE(wheel.empty());
  // And the cursor landed at `now`: re-arming works normally after.
  wheel.schedule(9, epoch() + 101ms);
  out.clear();
  EXPECT_EQ(wheel.expire(epoch() + 101ms, out), 1u);
  EXPECT_EQ(out[0], 9u);
}

TEST(TimerWheel, NextDueReportsTheEarliestArmedTimer) {
  TimerWheel wheel(1ms, 16, epoch());
  EXPECT_FALSE(wheel.nextDue().has_value());
  wheel.schedule(1, epoch() + 9ms);
  wheel.schedule(2, epoch() + 3ms);
  wheel.schedule(3, epoch() + 12ms);
  const auto due = wheel.nextDue();
  ASSERT_TRUE(due.has_value());
  EXPECT_EQ(*due, epoch() + 3ms);
  std::vector<std::uint32_t> out;
  wheel.expire(epoch() + 3ms, out);
  const auto next = wheel.nextDue();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, epoch() + 9ms);
}

// The shard loop sleeps for waitFrom(now, 50ms). A millisecond poll
// timeout would truncate the 0.7 ms below to 0 and spin through it.
TEST(TimerWheel, WaitRunsToTheNextSlotAtFullResolution) {
  constexpr auto kCap = 50ms;
  TimerWheel wheel(1ms, 16, epoch());
  EXPECT_EQ(wheel.waitFrom(epoch(), kCap), kCap);  // nothing armed
  wheel.schedule(1, epoch() + 5400us);               // slot 5 starts at 5 ms
  EXPECT_EQ(wheel.waitFrom(epoch() + 4300us, kCap), 700us);
  EXPECT_EQ(wheel.waitFrom(epoch() + 5ms, kCap), 0ns);
  EXPECT_EQ(wheel.waitFrom(epoch() + 7ms, kCap), 0ns);  // past due, not negative
  EXPECT_EQ(wheel.waitFrom(epoch() - 60ms, kCap), kCap);  // slot beyond the cap
}

TEST(TimerWheel, PreEpochDeadlinesClampToTickZero) {
  TimerWheel wheel(1ms, 16, epoch());
  wheel.schedule(4, epoch() - 5ms);
  std::vector<std::uint32_t> out;
  EXPECT_EQ(wheel.expire(epoch(), out), 1u);
  EXPECT_EQ(out[0], 4u);
}

TEST(TimerWheel, ManyTimersAcrossManyLapsAllFireExactlyOnce) {
  TimerWheel wheel(1ms, 8, epoch());  // deliberately tiny: heavy lap reuse
  constexpr std::uint32_t kTimers = 200;
  for (std::uint32_t id = 0; id < kTimers; ++id) {
    wheel.schedule(id, epoch() + std::chrono::milliseconds(1 + (id * 7) % 97));
  }
  std::vector<std::uint32_t> out;
  for (int step = 1; step <= 100; ++step) {
    wheel.expire(epoch() + std::chrono::milliseconds(step), out);
  }
  EXPECT_TRUE(wheel.empty());
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), kTimers);
  for (std::uint32_t id = 0; id < kTimers; ++id) EXPECT_EQ(out[id], id);
}

}  // namespace
}  // namespace epto::runtime
