// Hashed timer wheel — the per-shard round scheduler.
//
// A shard owns many EpTO nodes, each with its own jittered round
// deadline. A thread per node would get scheduling for free (every node
// sleeping on its own socket until its own deadline); a shard thread
// needs one structure answering two questions cheaply on every loop
// iteration: "how long may I block in ppoll()?" (nextDue/waitFrom) and
// "which nodes' rounds are due now?" (expire). A hashed wheel answers
// the second at O(1) amortized per timer: slots of `granularity` width,
// a timer lives in the slot of its due tick, and the cursor sweeps slots
// as time advances. Entries hashed into a visited slot from a future lap
// are simply left in place — the cursor re-checks the due tick each pass.
//
// Owned and driven by exactly one shard thread (like IngressQueue and
// Reassembler, thread-safety lives one level up); deterministic given
// the time points fed in, so it is unit-testable without sleeping.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "check/schedule_point.h"
#include "util/ensure.h"

namespace epto::runtime {

class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  /// `granularity` is the slot width (timers within one slot fire
  /// together once the cursor passes them — sub-granularity deadlines
  /// degrade gracefully because expire() fires anything with due <= now,
  /// including the current slot). `slotCount` trades memory for fewer
  /// future-lap collisions; one lap spans granularity * slotCount.
  TimerWheel(std::chrono::microseconds granularity, std::size_t slotCount,
             TimePoint epoch)
      : granularity_(granularity), epoch_(epoch), slots_(slotCount) {
    EPTO_ENSURE_MSG(granularity_.count() > 0, "wheel granularity must be positive");
    EPTO_ENSURE_MSG(slotCount > 0, "wheel needs at least one slot");
  }

  /// Arm a timer. Ids are caller-scoped (node indices here); the wheel
  /// does not deduplicate — schedule once per expire, like the node loop
  /// re-arms its next round after running one.
  void schedule(std::uint32_t id, TimePoint due) {
    // Single-threaded component: points at op entry only — interleaving
    // *within* an op would model schedules the owning shard cannot run.
    EPTO_SCHEDULE_POINT("wheel.schedule");
    const std::uint64_t dueTick = tickOf(due);
    // A due tick the cursor already swept would never be visited again
    // this lap; park it in the cursor's slot so the next expire() call
    // (which always re-checks the cursor slot) fires it immediately.
    const std::uint64_t insertTick = dueTick > cursorTick_ ? dueTick : cursorTick_;
    slots_[insertTick % slots_.size()].push_back(Entry{dueTick, id});
    ++armed_;
  }

  /// Fire every timer with due <= now, appending ids to `out` (order
  /// within a call is unspecified — callers needing fairness shuffle or
  /// rotate). Returns the number fired.
  std::size_t expire(TimePoint now, std::vector<std::uint32_t>& out) {
    EPTO_SCHEDULE_POINT("wheel.expire");
    const std::uint64_t nowTick = tickOf(now);
    std::size_t fired = 0;
    if (nowTick - cursorTick_ >= slots_.size()) {
      // The wheel slept through at least one full lap: every slot is in
      // the sweep window, so visit each physical slot exactly once.
      for (auto& slot : slots_) fired += drainDue(slot, nowTick, out);
      cursorTick_ = nowTick;
      return fired;
    }
    for (;; ++cursorTick_) {
      fired += drainDue(slots_[cursorTick_ % slots_.size()], nowTick, out);
      if (cursorTick_ == nowTick) break;
    }
    return fired;
  }

  /// Earliest armed due time — the start of its slot, when expire()
  /// fires it — or nullopt when the wheel is empty. Walks every slot, so
  /// it is linear in the slot count plus armed timers; the shard calls it
  /// once per wakeup.
  [[nodiscard]] std::optional<TimePoint> nextDue() const {
    EPTO_SCHEDULE_POINT("wheel.nextDue");
    if (armed_ == 0) return std::nullopt;
    std::uint64_t best = UINT64_MAX;
    for (const auto& slot : slots_) {
      for (const Entry& entry : slot) best = entry.dueTick < best ? entry.dueTick : best;
    }
    return epoch_ + granularity_ * static_cast<std::int64_t>(best);
  }

  /// How long the owner may block before expire() has work, at full
  /// clock resolution: the remainder to nextDue(), 0 once it has passed,
  /// and `cap` when the wheel is empty or the slot lies further out.
  [[nodiscard]] Clock::duration waitFrom(TimePoint now, Clock::duration cap) const {
    const auto due = nextDue();
    if (!due.has_value() || *due - now > cap) return cap;
    return *due > now ? *due - now : Clock::duration::zero();
  }

  [[nodiscard]] std::size_t size() const noexcept { return armed_; }
  [[nodiscard]] bool empty() const noexcept { return armed_ == 0; }

 private:
  struct Entry {
    std::uint64_t dueTick = 0;
    std::uint32_t id = 0;
  };

  [[nodiscard]] std::uint64_t tickOf(TimePoint tp) const {
    if (tp <= epoch_) return 0;
    return static_cast<std::uint64_t>((tp - epoch_) / granularity_);
  }

  std::size_t drainDue(std::vector<Entry>& slot, std::uint64_t nowTick,
                       std::vector<std::uint32_t>& out) {
    std::size_t fired = 0;
    for (std::size_t i = 0; i < slot.size();) {
      if (slot[i].dueTick <= nowTick) {
        out.push_back(slot[i].id);
        slot[i] = slot.back();
        slot.pop_back();
        ++fired;
      } else {
        ++i;  // future lap — stays for a later pass
      }
    }
    armed_ -= fired;
    return fired;
  }

  std::chrono::microseconds granularity_;
  TimePoint epoch_;
  std::vector<std::vector<Entry>> slots_;
  std::uint64_t cursorTick_ = 0;
  std::size_t armed_ = 0;
};

}  // namespace epto::runtime
