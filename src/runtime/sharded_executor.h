// ShardedExecutor — a fixed pool of worker shards, each owning a
// contiguous slice of protocol nodes.
//
// A thread per node stops scaling long before the protocol does: at
// hundreds of nodes the machine spends its time context-switching
// between threads that each wake for one datagram, run a few
// microseconds of protocol, and sleep again. This executor inverts the
// shape — `shardCount` long-lived workers (default: one per hardware
// thread) each drive *many* nodes, so node state stays hot in one
// core's cache and the per-node cost collapses to a timer-wheel entry
// plus a pollfd slot.
//
// Ownership model (DESIGN.md §16): every node belongs to exactly one
// shard for the executor's lifetime, and ALL access to a node's
// mutable state happens on its owning shard's thread ("owning-shard
// only"). The executor offers no door into a shard: state another
// thread must hand over (a broadcast request) sits behind the host's
// own leaf lock, which the node's round takes to swap it out.
//
// The executor owns the mechanism (threads, per-shard timer wheels,
// stop protocol); the host supplies the policy as a ShardBody — the
// actual poll/ingest/round loop. UdpCluster is the host here; the body
// contract is to check ctx.stopRequested() at least once per bounded
// amount of work and to return when it is set.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/timer_wheel.h"

namespace epto::runtime {

struct ShardedExecutorOptions {
  /// Nodes to partition across shards (contiguous slices, sizes within
  /// one of each other). Must be positive.
  std::size_t nodeCount = 0;
  /// Worker shards; 0 means hardware_concurrency (min 1). Clamped to
  /// nodeCount — a shard with no nodes would be a parked thread.
  std::size_t shardCount = 0;
  /// Timer-wheel slot width and count (one lap = granularity * slots).
  std::chrono::microseconds wheelGranularity{1000};
  std::size_t wheelSlots = 512;
};

class ShardedExecutor {
 public:
  /// The slice of executor state one shard's body may touch. Only ever
  /// handed to the owning shard's thread.
  class ShardContext {
   public:
    [[nodiscard]] std::size_t shardIndex() const noexcept { return index_; }
    /// Owned node range [nodeBegin, nodeEnd).
    [[nodiscard]] std::size_t nodeBegin() const noexcept { return begin_; }
    [[nodiscard]] std::size_t nodeEnd() const noexcept { return end_; }
    [[nodiscard]] TimerWheel& wheel() noexcept { return *wheel_; }

    [[nodiscard]] bool stopRequested() const noexcept {
      return owner_->stopRequested_.load(std::memory_order_acquire);
    }

   private:
    friend class ShardedExecutor;
    ShardedExecutor* owner_ = nullptr;
    std::size_t index_ = 0;
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
    std::unique_ptr<TimerWheel> wheel_;
  };

  using ShardBody = std::function<void(ShardContext&)>;

  ShardedExecutor(ShardedExecutorOptions options, ShardBody body);
  ~ShardedExecutor();

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Launch one thread per shard, each running the body once.
  void start();
  /// Request stop and join every shard. Idempotent.
  void stop();

  [[nodiscard]] std::size_t shardCount() const noexcept { return shards_.size(); }
  /// Node range [first, second) owned by `shard`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> nodeRange(std::size_t shard) const;

 private:
  struct Shard {
    ShardContext context;
    std::thread thread;
  };

  ShardBody body_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopRequested_{false};
};

}  // namespace epto::runtime
