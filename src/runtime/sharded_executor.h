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
// only"). The control plane reaches in through exactly one door: post()
// enqueues a Command onto the owning shard's SPSC mailbox (external
// producers serialize on a producer-side mutex; the shard consumes
// lock-free), and the shard runs it at the top of its next loop
// iteration — so a command observes node state quiesced between loop
// iterations, never mid-round.
//
// The executor owns the mechanism (threads, mailboxes, per-shard timer
// wheels, stop protocol); the host supplies the policy as
// a ShardBody — the actual poll/ingest/round loop. UdpCluster is the
// host here; the body contract is to check ctx.stopRequested() at least
// once per bounded amount of work and to return when it is set.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/spsc_ring.h"
#include "runtime/timer_wheel.h"
#include "util/inplace_fn.h"
#include "util/mutex.h"

namespace epto::runtime {

struct ShardedExecutorOptions {
  /// Nodes to partition across shards (contiguous slices, sizes within
  /// one of each other). Must be positive.
  std::size_t nodeCount = 0;
  /// Worker shards; 0 means hardware_concurrency (min 1). Clamped to
  /// nodeCount — a shard with no nodes would be a parked thread.
  std::size_t shardCount = 0;
  /// Per-shard mailbox capacity (rounded up to a power of two).
  std::size_t mailboxCapacity = 1024;
  /// Timer-wheel slot width and count (one lap = granularity * slots).
  std::chrono::microseconds wheelGranularity{1000};
  std::size_t wheelSlots = 512;
};

class ShardedExecutor {
 public:
  /// Cross-shard command. 104 inline bytes fits every control-plane
  /// closure in the repo (a broadcast captures cluster + node + payload
  /// handle + qos ≈ 40 bytes); bigger closures still work via the
  /// InplaceFn heap fallback.
  using Command = util::InplaceFn<104>;

  /// The slice of executor state one shard's body may touch. Only ever
  /// handed to the owning shard's thread.
  class ShardContext {
   public:
    [[nodiscard]] std::size_t shardIndex() const noexcept { return index_; }
    /// Owned node range [nodeBegin, nodeEnd).
    [[nodiscard]] std::size_t nodeBegin() const noexcept { return begin_; }
    [[nodiscard]] std::size_t nodeEnd() const noexcept { return end_; }
    [[nodiscard]] TimerWheel& wheel() noexcept { return *wheel_; }

    /// Run every queued command (consumer side of the mailbox — owning
    /// shard only). Returns how many ran.
    std::size_t drainMailbox();

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

  /// Enqueue a command for `node`'s owning shard (any thread). False
  /// when the mailbox is full — the command is NOT consumed then (the
  /// caller keeps it for retry or inline execution); rejections are
  /// counted.
  [[nodiscard]] bool post(std::size_t node, Command&& command);

  /// Consume `shard`'s mailbox from the calling thread. The SPSC
  /// single-consumer role belongs to the shard thread while the executor
  /// runs, so this is only legal when the executor is NOT started —
  /// tests and the schedule-exploration suite (tests/check) use it to
  /// play the consumer role deterministically; enforced with EPTO_ENSURE.
  std::size_t drainMailboxOn(std::size_t shard);

  [[nodiscard]] std::size_t shardCount() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t shardOf(std::size_t node) const;
  /// Node range [first, second) owned by `shard`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> nodeRange(std::size_t shard) const;
  /// Commands currently queued for `shard` (racy estimate — the gauge).
  [[nodiscard]] std::size_t mailboxDepth(std::size_t shard) const;
  /// post() calls refused by a full mailbox since construction.
  [[nodiscard]] std::uint64_t postRejections() const noexcept {
    return postRejections_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    explicit Shard(std::size_t mailboxCapacity) : mailbox(mailboxCapacity) {}
    ShardContext context;
    SpscRing<Command> mailbox;
    /// Serializes external post() callers onto the ring's single-
    /// producer role; the consuming shard never takes it.
    util::Mutex producerMutex;
    std::thread thread;
  };

  ShardedExecutorOptions options_;
  ShardBody body_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopRequested_{false};
  std::atomic<std::uint64_t> postRejections_{0};
};

}  // namespace epto::runtime
