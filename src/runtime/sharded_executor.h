// The shard loop's arithmetic — how UdpCluster splits its nodes across
// shard threads and when each shard wakes (DESIGN.md §16).
//
// A thread per node stops scaling long before the protocol does: at
// hundreds of nodes the machine spends its time context-switching
// between threads that each wake for one datagram, run a few
// microseconds of protocol, and sleep again. So UdpCluster runs a few
// long-lived shard threads (default: one per hardware thread), each
// driving a contiguous slice of nodes; a node costs its shard one round
// deadline (NodeState::nextRound) and one pollfd slot.
//
// An EpTO process acts on two triggers only: a ball arriving, and its
// own round every δ. A shard therefore sleeps in ppoll() until a socket
// is readable or the earliest of its nodes' deadlines comes due. Time is
// cut into slots of ShardedExecutorOptions::wheelGranularity: a round is
// due once the clock reaches the start of the slot its deadline falls
// in, so rounds due within one slot run on one wakeup. perfbench's
// replay reads the same field to batch its rounds the same way.
//
// Apart from reading the hardware thread count, everything here is pure
// and deterministic given the time points fed in, so it is unit-testable
// without threads or sleeping.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <span>
#include <thread>
#include <utility>

namespace epto::runtime {

/// The struct and field names outlive the executor and its timer wheel:
/// perfbench/src/replay.cpp reads ShardedExecutorOptions{}.wheelGranularity,
/// and the benchmark's sources change only with the benchmark.
struct ShardedExecutorOptions {
  /// Round slot width: a round runs at the start of the slot its
  /// deadline falls in, together with every other round due in it.
  std::chrono::microseconds wheelGranularity{1000};
};

using ShardClock = std::chrono::steady_clock;

/// Shard threads for `nodeCount` nodes: `requested`, or one per hardware
/// thread when it is 0, clamped to nodeCount (a shard with no nodes
/// would be a parked thread).
[[nodiscard]] inline std::size_t shardCountFor(std::size_t requested, std::size_t nodeCount) {
  const std::size_t wanted =
      requested != 0 ? requested : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(wanted, nodeCount);
}

/// Node range [first, second) shard `shard` of `shards` owns: contiguous
/// slices in shard order, sizes within one, the first shards the larger.
[[nodiscard]] inline std::pair<std::size_t, std::size_t> shardSlice(std::size_t shard,
                                                                    std::size_t shards,
                                                                    std::size_t nodeCount) {
  const std::size_t base = nodeCount / shards;
  const std::size_t extra = nodeCount % shards;
  const std::size_t begin = shard * base + std::min(shard, extra);
  return {begin, begin + base + (shard < extra ? 1 : 0)};
}

/// Start of the slot `deadline` falls in, with slots counted from the
/// clock's own epoch. The round is due once the clock reaches it.
[[nodiscard]] inline ShardClock::time_point slotStart(ShardClock::time_point deadline,
                                                      ShardClock::duration slot) {
  const ShardClock::duration since = deadline.time_since_epoch();
  return ShardClock::time_point(since - since % slot);
}

/// How long a shard may block before a round is due, at full clock
/// resolution: the time to the start of the earliest deadline's slot, 0
/// once that instant has passed, and at most `cap` (also when there is
/// no deadline at all).
[[nodiscard]] inline ShardClock::duration shardWait(
    ShardClock::time_point now, std::span<const ShardClock::time_point> deadlines,
    ShardClock::duration slot, ShardClock::duration cap) {
  if (deadlines.empty()) return cap;
  const ShardClock::time_point due =
      slotStart(*std::min_element(deadlines.begin(), deadlines.end()), slot);
  if (due <= now) return ShardClock::duration::zero();
  return std::min(due - now, cap);
}

}  // namespace epto::runtime
