// Tests of the shard loop's arithmetic (runtime/sharded_executor.h):
// which shard owns which nodes, when a round is due, and how long a
// shard may sleep. All pure, so nothing here starts a thread or sleeps;
// the threads themselves are covered by UdpShardedCluster.* and
// UdpCluster.StopIsIdempotent*.
//
// The suite names ShardedExecutor and TimerWheel are those of the tests
// these checks were carried over from, when the slicing and the 1 ms
// slots lived in an executor class and a timer wheel; the names are kept
// so that each check keeps its test id.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <utility>
#include <vector>

#include "runtime/sharded_executor.h"

namespace epto::runtime {
namespace {

using namespace std::chrono_literals;

constexpr ShardClock::duration kSlot = ShardedExecutorOptions{}.wheelGranularity;
constexpr ShardClock::duration kCap = 50ms;

/// A time point `offset` after an arbitrary slot boundary.
ShardClock::time_point at(ShardClock::duration offset) {
  return ShardClock::time_point{} + std::chrono::hours(1) + offset;
}

bool due(ShardClock::time_point deadline, ShardClock::time_point now) {
  return slotStart(deadline, kSlot) <= now;
}

TEST(ShardedExecutor, PartitionIsContiguousBalancedAndComplete) {
  using Slice = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(shardCountFor(3, 10), 3u);
  EXPECT_EQ(shardSlice(0, 3, 10), (Slice{0, 4}));
  EXPECT_EQ(shardSlice(1, 3, 10), (Slice{4, 7}));
  EXPECT_EQ(shardSlice(2, 3, 10), (Slice{7, 10}));

  for (std::size_t nodes = 1; nodes <= 40; ++nodes) {
    for (std::size_t shards = 1; shards <= nodes; ++shards) {
      std::size_t cursor = 0;
      std::size_t previousWidth = nodes;
      for (std::size_t shard = 0; shard < shards; ++shard) {
        const auto [begin, end] = shardSlice(shard, shards, nodes);
        EXPECT_EQ(begin, cursor) << nodes << " nodes, " << shards << " shards";
        const std::size_t width = end - begin;
        EXPECT_GE(width, nodes / shards);      // balanced within one,
        EXPECT_LE(width, nodes / shards + 1);  // never empty,
        EXPECT_LE(width, previousWidth);       // the first shards the larger
        previousWidth = width;
        cursor = end;
      }
      EXPECT_EQ(cursor, nodes) << nodes << " nodes, " << shards << " shards";
    }
  }
}

TEST(ShardedExecutor, ShardCountClampsToNodeCount) {
  using Slice = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(shardCountFor(16, 2), 2u);
  EXPECT_EQ(shardSlice(0, 2, 2), (Slice{0, 1}));
  EXPECT_EQ(shardSlice(1, 2, 2), (Slice{1, 2}));

  // 0 asks for one shard per hardware thread, still clamped.
  EXPECT_GE(shardCountFor(0, 64), 1u);
  EXPECT_LE(shardCountFor(0, 2), 2u);
}

TEST(TimerWheel, FiresAtTheDueTickNotBefore) {
  EXPECT_EQ(kSlot, 1ms);
  EXPECT_FALSE(due(at(5ms), at(4ms)));
  EXPECT_FALSE(due(at(5ms), at(4999us)));
  EXPECT_TRUE(due(at(5ms), at(5ms)));
}

TEST(TimerWheel, SubGranularityDeadlinesDegradeToTheirSlot) {
  // A deadline inside a slot comes due with the slot, not after it.
  EXPECT_EQ(slotStart(at(5300us), kSlot), at(5ms));
  EXPECT_FALSE(due(at(5300us), at(4999us)));
  EXPECT_TRUE(due(at(5300us), at(5ms)));
}

TEST(TimerWheel, PastDeadlinesFireOnTheNextExpire) {
  // A deadline already behind the clock is due, and the shard does not
  // sleep before running it.
  EXPECT_TRUE(due(at(2ms), at(10ms)));
  const std::vector<ShardClock::time_point> past{at(2ms)};
  EXPECT_EQ(shardWait(at(10ms), past, kSlot, kCap), 0ns);
}

// The shard loop passes this wait to ppoll() as a timespec. A
// millisecond poll timeout would truncate the 0.7 ms below to 0 and
// spin through it.
TEST(TimerWheel, WaitRunsToTheNextSlotAtFullResolution) {
  const std::vector<ShardClock::time_point> none;
  EXPECT_EQ(shardWait(at(0ms), none, kSlot, kCap), kCap);

  const std::vector<ShardClock::time_point> one{at(5400us)};  // slot starts at 5 ms
  EXPECT_EQ(shardWait(at(4300us), one, kSlot, kCap), 700us);
  EXPECT_EQ(shardWait(at(5ms), one, kSlot, kCap), 0ns);
  EXPECT_EQ(shardWait(at(7ms), one, kSlot, kCap), 0ns);  // past due, not negative
  EXPECT_EQ(shardWait(at(5ms) - 60ms, one, kSlot, kCap), kCap);  // slot beyond the cap
}

TEST(TimerWheel, NextDueReportsTheEarliestArmedTimer) {
  std::vector<ShardClock::time_point> deadlines{at(9ms), at(3200us), at(12ms)};
  EXPECT_EQ(shardWait(at(1ms), deadlines, kSlot, kCap), 2ms);
  // Once that round ran, its node's deadline moves a round on, and the
  // next earliest deadline sets the wait.
  deadlines[1] = at(23200us);
  EXPECT_EQ(shardWait(at(3ms), deadlines, kSlot, kCap), 6ms);
}

}  // namespace
}  // namespace epto::runtime
