#include "runtime/sharded_executor.h"

#include <chrono>

#include "check/schedule_point.h"
#include "util/ensure.h"

namespace epto::runtime {

std::size_t ShardedExecutor::ShardContext::drainMailbox() {
  auto& ring = owner_->shards_[index_]->mailbox;
  std::size_t ran = 0;
  while (auto command = ring.tryPop()) {
    (*command)();
    ++ran;
  }
  return ran;
}

ShardedExecutor::ShardedExecutor(ShardedExecutorOptions options, ShardBody body)
    : options_(options), body_(std::move(body)) {
  EPTO_ENSURE_MSG(options_.nodeCount > 0, "executor needs at least one node");
  EPTO_ENSURE_MSG(options_.mailboxCapacity > 0, "mailbox capacity must be positive");
  EPTO_ENSURE_MSG(body_ != nullptr, "executor needs a shard body");

  std::size_t shardCount = options_.shardCount;
  if (shardCount == 0) {
    shardCount = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  shardCount = std::min(shardCount, options_.nodeCount);

  // Contiguous, balanced slices: the first `extra` shards own one node
  // more, so slice sizes differ by at most one.
  const std::size_t base = options_.nodeCount / shardCount;
  const std::size_t extra = options_.nodeCount % shardCount;
  const auto epoch = TimerWheel::Clock::now();
  std::size_t cursor = 0;
  shards_.reserve(shardCount);
  for (std::size_t i = 0; i < shardCount; ++i) {
    auto shard = std::make_unique<Shard>(options_.mailboxCapacity);
    shard->context.owner_ = this;
    shard->context.index_ = i;
    shard->context.begin_ = cursor;
    cursor += base + (i < extra ? 1 : 0);
    shard->context.end_ = cursor;
    shard->context.wheel_ = std::make_unique<TimerWheel>(
        options_.wheelGranularity, options_.wheelSlots, epoch);
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

bool ShardedExecutor::post(std::size_t node, Command&& command) {
  Shard& shard = *shards_[shardOf(node)];
  EPTO_SCHEDULE_POINT("executor.post");
  bool accepted = false;
  {
    const util::MutexLock lock(shard.producerMutex);
    accepted = shard.mailbox.tryPush(std::move(command));
  }
  if (!accepted) postRejections_.fetch_add(1, std::memory_order_relaxed);
  return accepted;
}

std::size_t ShardedExecutor::drainMailboxOn(std::size_t shard) {
  EPTO_ENSURE_MSG(shard < shards_.size(), "shard index out of range");
  EPTO_ENSURE_MSG(!running_.load(std::memory_order_acquire),
                  "drainMailboxOn while shard threads run would add a second consumer");
  return shards_[shard]->context.drainMailbox();
}

std::size_t ShardedExecutor::shardOf(std::size_t node) const {
  EPTO_ENSURE_MSG(node < options_.nodeCount, "node index out of range");
  // Invert the balanced partition: the first `extra` shards are one
  // node wider than the rest.
  const std::size_t shardCount = shards_.size();
  const std::size_t base = options_.nodeCount / shardCount;
  const std::size_t extra = options_.nodeCount % shardCount;
  const std::size_t wideSpan = (base + 1) * extra;
  if (node < wideSpan) return node / (base + 1);
  return extra + (node - wideSpan) / base;
}

std::pair<std::size_t, std::size_t> ShardedExecutor::nodeRange(std::size_t shard) const {
  EPTO_ENSURE_MSG(shard < shards_.size(), "shard index out of range");
  const ShardContext& ctx = shards_[shard]->context;
  return {ctx.begin_, ctx.end_};
}

std::size_t ShardedExecutor::mailboxDepth(std::size_t shard) const {
  EPTO_ENSURE_MSG(shard < shards_.size(), "shard index out of range");
  return shards_[shard]->mailbox.size();
}

}  // namespace epto::runtime
