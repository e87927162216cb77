// Schedule exploration — systematic interleaving search over the
// lock-free surface (DESIGN.md §17).
//
// A test supplies a factory that builds a fresh TestRun — a set of task
// bodies plus an invariant check — and explore() runs the tasks under a
// cooperative controller: exactly one task executes at a time, every
// EPTO_SCHEDULE_POINT (check/schedule_point.h) hands control back, and
// the controller picks which task advances next. Two search modes:
//
//   * BoundedExhaustive — depth-first enumeration of every schedule.
//     Each decision (>= 2 runnable tasks) is a branch; the DFS replays
//     the run with a forced choice prefix until the whole tree is
//     covered or maxRuns trips. Right for small cases (a few tasks, a
//     few dozen points) where "every interleaving" is affordable.
//   * RandomPct — seeded randomized priority schedules in the spirit of
//     PCT (Burckhardt et al., "A Randomized Scheduler with Probabilistic
//     Guarantees of Finding Bugs"): each run assigns tasks random
//     priorities, always grants the highest-priority runnable task, and
//     demotes the running task at `priorityChangePoints` randomly chosen
//     decisions. Covers large spaces probabilistically; fully
//     deterministic given the seed.
//
// Every failure — a verify() rejection, a check::expect() violation, an
// uncaught exception in a task body, a cooperative-mutex deadlock, or a
// blown point budget — is reported with a REPLAYABLE SEED: a string that
// replaySeed() (or the EPTO_SCHED_REPLAY env var in the check tests)
// turns back into exactly the failing schedule.
//
// What this proves and what it does not: exploration serializes tasks,
// so it checks every *interleaving* of the instrumented points under
// sequentially consistent memory — it can never observe a weak-memory
// reordering (that remains TSan's and the thread-safety annotations'
// job), and it only sees races between points that exist (an
// uninstrumented access pair is invisible). See DESIGN.md §17.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/schedule_point.h"

namespace epto::check {

enum class ExploreMode : std::uint8_t {
  BoundedExhaustive,  ///< DFS over every schedule (small cases).
  RandomPct,          ///< seeded randomized priority schedules.
};

struct ExploreOptions {
  ExploreMode mode = ExploreMode::BoundedExhaustive;
  /// Exhaustive safety valve: stop (reporting exhausted=false) after
  /// this many schedules even if branches remain.
  std::size_t maxRuns = 200000;
  /// Grants allowed within one schedule before the run is failed as a
  /// livelock (a spin loop with a schedule point inside would hit this).
  std::size_t maxPointsPerRun = 20000;
  /// RandomPct: schedules to run; run i derives its RNG from seed + i.
  std::size_t runs = 256;
  std::uint64_t seed = 1;
  /// RandomPct: priority-demotion points per schedule (PCT's d).
  std::size_t priorityChangePoints = 3;
};

struct ScheduledTask {
  std::string name;
  std::function<void()> body;
};

/// One schedule's worth of work. Factories must return FRESH state every
/// call — runs would otherwise contaminate each other and the DFS replay
/// (same choices => same execution) breaks.
struct TestRun {
  std::vector<ScheduledTask> tasks;
  /// Runs on the controller thread after every task finished (state
  /// quiesced); returns a failure description, or nullopt when the
  /// invariants held.
  std::function<std::optional<std::string>()> verify;
};

using TestFactory = std::function<TestRun()>;

struct ExploreReport {
  std::size_t runs = 0;       ///< schedules executed.
  std::size_t maxPoints = 0;  ///< longest schedule seen (grants).
  bool exhausted = false;     ///< exhaustive: the whole tree was covered.
  bool failed = false;
  std::string seed;     ///< replaySeed() input reproducing the failure.
  std::string message;  ///< first failure description.
  /// Task names in grant order of the failing schedule (empty on pass).
  std::vector<std::string> schedule;
};

/// Search the schedule space; stops at the first failing schedule.
[[nodiscard]] ExploreReport explore(const TestFactory& factory,
                                    const ExploreOptions& options);

/// Re-run exactly one schedule from a failure seed ("x:..." exhaustive
/// choice trace or "p:..." PCT seed). The factory must build the same
/// TestRun the seed was recorded against.
[[nodiscard]] ExploreReport replaySeed(const TestFactory& factory,
                                       const std::string& seed,
                                       const ExploreOptions& options = {});

/// Mid-run assertion for task bodies: a false condition aborts the
/// current schedule and surfaces `message` (plus the replay seed) in the
/// report. Outside exploration it degrades to EPTO_ENSURE.
void expect(bool condition, const char* message);

/// Cooperative mutex for test harness code (e.g. serializing a
/// model's tasks the way one owning thread would).
/// Acquisition is a schedule point; a contended lock deschedules the
/// task until the holder releases. Only usable inside explorer task
/// bodies.
class ModelMutex {
 public:
  void lock();
  void unlock();

 private:
  bool held_ = false;  ///< tasks are serialized; no atomicity needed.
};

}  // namespace epto::check
