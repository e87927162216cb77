#include "runtime/sharded_executor.h"

#include <algorithm>

#include "util/ensure.h"

namespace epto::runtime {

ShardedExecutor::ShardedExecutor(ShardedExecutorOptions options, ShardBody body)
    : body_(std::move(body)) {
  EPTO_ENSURE_MSG(options.nodeCount > 0, "executor needs at least one node");
  EPTO_ENSURE_MSG(body_ != nullptr, "executor needs a shard body");

  std::size_t shardCount = options.shardCount;
  if (shardCount == 0) {
    shardCount = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  shardCount = std::min(shardCount, options.nodeCount);

  // Contiguous, balanced slices: the first `extra` shards own one node
  // more, so slice sizes differ by at most one.
  const std::size_t base = options.nodeCount / shardCount;
  const std::size_t extra = options.nodeCount % shardCount;
  const auto epoch = TimerWheel::Clock::now();
  std::size_t cursor = 0;
  shards_.reserve(shardCount);
  for (std::size_t i = 0; i < shardCount; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->context.owner_ = this;
    shard->context.index_ = i;
    shard->context.begin_ = cursor;
    cursor += base + (i < extra ? 1 : 0);
    shard->context.end_ = cursor;
    shard->context.wheel_ = std::make_unique<TimerWheel>(
        options.wheelGranularity, options.wheelSlots, epoch);
    shards_.push_back(std::move(shard));
  }
}

ShardedExecutor::~ShardedExecutor() { stop(); }

void ShardedExecutor::start() {
  EPTO_ENSURE_MSG(!running_.exchange(true), "executor already started");
  stopRequested_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, raw = shard.get()] { body_(raw->context); });
  }
}

void ShardedExecutor::stop() {
  if (!running_.exchange(false)) return;
  stopRequested_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

std::pair<std::size_t, std::size_t> ShardedExecutor::nodeRange(std::size_t shard) const {
  EPTO_ENSURE_MSG(shard < shards_.size(), "shard index out of range");
  const ShardContext& ctx = shards_[shard]->context;
  return {ctx.begin_, ctx.end_};
}

}  // namespace epto::runtime
