// SchedulePoint — the instrumentation hook the schedule explorer drives.
//
// TSan only sees the interleavings the OS happens to schedule; the
// concurrent surface (the seqlock flight recorder and util::Mutex's
// cooperative lock) deserves better than luck. Concurrency
// decision points in those components call EPTO_SCHEDULE_POINT("label"):
//
//   * in a normal process the hook is one thread_local load and a
//     not-taken branch — and with EPTO_SCHEDCHECK=OFF the macro expands
//     to ((void)0) and the binary carries no check code at all, exactly
//     like EPTO_TRACE;
//   * under check::explore() (check/schedule.h) the calling task parks
//     here and a controller decides which task advances next, so the
//     interleaving becomes enumerable data instead of OS noise.
//
// Placement contract: a point marks a boundary where another thread's
// step could legally be observed. Everything between two consecutive
// points executes atomically under exploration, so lock-free code wants
// a point between every pair of synchronizing atomic accesses, while a
// single-threaded component wants points only at operation entry —
// interleaving *within* an op would model schedules the real system
// cannot produce.
#pragma once

#if defined(EPTO_SCHEDCHECK_ENABLED)

namespace epto::check::detail {

class TaskHandle;

/// Non-null only on threads created by the schedule explorer; everything
/// in this header branches on it, so instrumented code in a normal
/// process never takes a lock or makes a call. constinit rules out a
/// dynamic initializer, so GCC reads the slot directly instead of going
/// through its thread_local wrapper, whose weak init-function test
/// UBSan's null check misreports as a null-pointer load.
extern thread_local constinit TaskHandle* currentTask;

/// Park the calling task at a named decision point until the controller
/// grants it the next step. Only called via EPTO_SCHEDULE_POINT, and
/// only when currentTask is non-null. Throws detail::RunAbort when the
/// current schedule was aborted (failure elsewhere / budget exhausted) —
/// instrumented code must be exception-safe at points, which RAII
/// already guarantees everywhere in this repo.
void yieldAtPoint(const char* label);

/// Cooperative lock acquisition (used by util::Mutex under exploration):
/// parks at a decision point, then acquires via `tryLock(arg)`; when the
/// lock is contended the task is descheduled — not spun, not blocked —
/// until mutexReleased(mutexAddr) marks it runnable again. This is what
/// lets exploration serialize tasks without deadlocking on real mutexes.
void cooperativeLock(void* mutexAddr, bool (*tryLock)(void*), void* arg);

/// Wake tasks descheduled in cooperativeLock(mutexAddr, ...).
void mutexReleased(void* mutexAddr);

[[nodiscard]] inline bool underExploration() noexcept { return currentTask != nullptr; }

}  // namespace epto::check::detail

#define EPTO_SCHEDULE_POINT(label_)                    \
  do {                                                 \
    if (::epto::check::detail::currentTask != nullptr) \
      ::epto::check::detail::yieldAtPoint(label_);     \
  } while (0)

#else
#define EPTO_SCHEDULE_POINT(label_) ((void)0)
#endif
