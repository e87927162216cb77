// Tests of the sharded executor mechanism: partitioning, per-shard
// bodies and timer wheels, and the stop protocol (DESIGN.md §16).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/sharded_executor.h"
#include "util/ensure.h"

namespace epto::runtime {
namespace {

using namespace std::chrono_literals;

TEST(ShardedExecutor, PartitionIsContiguousBalancedAndComplete) {
  ShardedExecutorOptions options;
  options.nodeCount = 10;
  options.shardCount = 3;
  ShardedExecutor executor(options, [](ShardedExecutor::ShardContext&) {});
  ASSERT_EQ(executor.shardCount(), 3u);
  std::size_t cursor = 0;
  for (std::size_t shard = 0; shard < 3; ++shard) {
    const auto [begin, end] = executor.nodeRange(shard);
    EXPECT_EQ(begin, cursor);  // contiguous, in order
    const std::size_t width = end - begin;
    EXPECT_TRUE(width == 3 || width == 4);  // balanced within one
    cursor = end;
  }
  EXPECT_EQ(cursor, 10u);
}

TEST(ShardedExecutor, ShardCountClampsToNodeCount) {
  ShardedExecutorOptions options;
  options.nodeCount = 2;
  options.shardCount = 16;
  ShardedExecutor executor(options, [](ShardedExecutor::ShardContext&) {});
  EXPECT_EQ(executor.shardCount(), 2u);
}

TEST(ShardedExecutor, RejectsInvalidConfiguration) {
  ShardedExecutorOptions none;
  none.nodeCount = 0;
  EXPECT_THROW(ShardedExecutor(none, [](ShardedExecutor::ShardContext&) {}),
               util::ContractViolation);
  ShardedExecutorOptions noBody;
  noBody.nodeCount = 1;
  EXPECT_THROW(ShardedExecutor(noBody, nullptr), util::ContractViolation);
}

TEST(ShardedExecutor, BodyRunsOncePerShardWithItsOwnContext) {
  ShardedExecutorOptions options;
  options.nodeCount = 6;
  options.shardCount = 2;
  std::atomic<std::uint32_t> seen{0};
  ShardedExecutor executor(options, [&](ShardedExecutor::ShardContext& ctx) {
    // Each shard observes exactly its own slice.
    EXPECT_LT(ctx.shardIndex(), 2u);
    EXPECT_EQ(ctx.nodeEnd() - ctx.nodeBegin(), 3u);
    seen.fetch_add(1, std::memory_order_relaxed);
    while (!ctx.stopRequested()) std::this_thread::sleep_for(100us);
  });
  executor.start();
  executor.stop();
  EXPECT_EQ(seen.load(), 2u);
}

TEST(ShardedExecutor, StopIsIdempotentAndDestructorStops) {
  ShardedExecutorOptions options;
  options.nodeCount = 1;
  ShardedExecutor executor(options, [](ShardedExecutor::ShardContext& ctx) {
    while (!ctx.stopRequested()) std::this_thread::sleep_for(100us);
  });
  executor.start();
  executor.stop();
  executor.stop();  // second stop is a no-op
  // Destructor running stop() again must also be safe (scope exit).
}

TEST(ShardedExecutor, WheelIsPerShardAndUsable) {
  ShardedExecutorOptions options;
  options.nodeCount = 2;
  options.shardCount = 2;
  options.wheelGranularity = std::chrono::microseconds(1000);
  std::atomic<std::uint32_t> fired{0};
  ShardedExecutor executor(options, [&](ShardedExecutor::ShardContext& ctx) {
    std::vector<std::uint32_t> due;
    ctx.wheel().schedule(static_cast<std::uint32_t>(ctx.nodeBegin()),
                         TimerWheel::Clock::now());
    while (!ctx.stopRequested()) {
      due.clear();
      if (ctx.wheel().expire(TimerWheel::Clock::now(), due) > 0) {
        fired.fetch_add(static_cast<std::uint32_t>(due.size()),
                        std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(100us);
    }
  });
  executor.start();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fired.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  executor.stop();
  EXPECT_EQ(fired.load(), 2u);
}

}  // namespace
}  // namespace epto::runtime
