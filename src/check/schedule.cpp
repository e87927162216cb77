#include "check/schedule.h"

// The controller is the one component in src/ built on raw std::mutex
// (allowlisted in tools/epto_lint_allowlist.txt): util::Mutex::lock()
// reenters the controller under exploration (check/schedule_point.h), so
// the controller itself must sit below that layer or every grant would
// recurse into its own scheduler.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>

#include "util/ensure.h"

namespace epto::check {
namespace detail {

constinit thread_local TaskHandle* currentTask = nullptr;

namespace {

/// Thrown through task bodies to unwind an aborted schedule. Not derived
/// from std::exception so a task body's own catch(std::exception&) does
/// not swallow it.
struct RunAbort {};

constexpr std::size_t kNoGrant = static_cast<std::size_t>(-1);

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30U)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27U)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31U);
}

}  // namespace

class RunController;

/// Per-task control block. All mutable fields are guarded by the
/// controller's mutex; `thread` is touched only by the controller.
class TaskHandle {
 public:
  enum class Phase : std::uint8_t { Parked, Running, Blocked, Finished };

  RunController* controller = nullptr;
  std::size_t index = 0;
  std::string name;
  Phase phase = Phase::Parked;
  const void* blockedOn = nullptr;
  /// Grant handshake: the controller bumps grantEpoch when it grants;
  /// the task copies it into parkEpoch when it parks again. Quiescence
  /// is "every task parked with parkEpoch == grantEpoch".
  std::uint64_t grantEpoch = 0;
  std::uint64_t parkEpoch = 0;
  std::thread thread;
};

class RunController {
 public:
  /// Picks the position (0-based, into `runnable`) to grant at decision
  /// ordinal `decision`. Only consulted when runnable.size() >= 2.
  using Oracle =
      std::function<std::size_t(std::size_t decision, const std::vector<std::size_t>& runnable)>;

  struct Outcome {
    bool failed = false;
    std::string message;
    std::vector<std::size_t> choices;         ///< branch taken per decision.
    std::vector<std::size_t> runnableCounts;  ///< branching factor per decision.
    std::vector<std::string> grantOrder;      ///< task name per grant.
    std::size_t points = 0;                   ///< grants issued.
  };

  Outcome run(TestRun&& test, const Oracle& oracle, std::size_t maxPoints);

  // --- task-side entry points (called with currentTask == the task) ---
  void yield(TaskHandle* task);
  void lockCooperatively(TaskHandle* task, const void* mutexAddr, bool (*tryLock)(void*),
                         void* arg);
  void onMutexReleased(const void* mutexAddr);
  [[noreturn]] void failFromTask(const std::string& message);

 private:
  void recordFailureLocked(const std::string& message);
  void waitForGrant(TaskHandle* task, std::unique_lock<std::mutex>& lock);

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<TaskHandle>> tasks_;
  std::size_t granted_ = kNoGrant;
  bool aborted_ = false;
  bool failed_ = false;
  std::string message_;
};

void RunController::recordFailureLocked(const std::string& message) {
  if (!failed_) {
    failed_ = true;
    message_ = message;
  }
  aborted_ = true;
  cv_.notify_all();
}

void RunController::waitForGrant(TaskHandle* task, std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [&] { return aborted_ || granted_ == task->index; });
  if (aborted_) throw RunAbort{};
  granted_ = kNoGrant;
  task->phase = TaskHandle::Phase::Running;
  task->blockedOn = nullptr;
}

void RunController::yield(TaskHandle* task) {
  std::unique_lock<std::mutex> lock(mutex_);
  task->phase = TaskHandle::Phase::Parked;
  task->parkEpoch = task->grantEpoch;
  cv_.notify_all();
  waitForGrant(task, lock);
}

void RunController::lockCooperatively(TaskHandle* task, const void* mutexAddr,
                                      bool (*tryLock)(void*), void* arg) {
  // Acquisition order is itself a schedule decision.
  yield(task);
  for (;;) {
    if (tryLock(arg)) return;
    std::unique_lock<std::mutex> lock(mutex_);
    task->phase = TaskHandle::Phase::Blocked;
    task->blockedOn = mutexAddr;
    task->parkEpoch = task->grantEpoch;
    cv_.notify_all();
    // A Blocked task is not grant-eligible until onMutexReleased flips
    // it back to Parked; re-granted, it retries the tryLock (another
    // waiter may have won the race — then it re-blocks).
    waitForGrant(task, lock);
  }
}

void RunController::onMutexReleased(const void* mutexAddr) {
  const std::unique_lock<std::mutex> lock(mutex_);
  for (auto& task : tasks_) {
    if (task->phase == TaskHandle::Phase::Blocked && task->blockedOn == mutexAddr) {
      task->phase = TaskHandle::Phase::Parked;
      task->blockedOn = nullptr;
    }
  }
}

void RunController::failFromTask(const std::string& message) {
  {
    const std::unique_lock<std::mutex> lock(mutex_);
    recordFailureLocked(message);
  }
  throw RunAbort{};
}

RunController::Outcome RunController::run(TestRun&& test, const Oracle& oracle,
                                          std::size_t maxPoints) {
  Outcome out;
  tasks_.clear();
  tasks_.reserve(test.tasks.size());
  for (std::size_t i = 0; i < test.tasks.size(); ++i) {
    auto handle = std::make_unique<TaskHandle>();
    handle->controller = this;
    handle->index = i;
    handle->name = test.tasks[i].name;
    tasks_.push_back(std::move(handle));
  }

  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    TaskHandle* handle = tasks_[i].get();
    handle->thread = std::thread([this, handle, body = std::move(test.tasks[i].body)] {
      currentTask = handle;
      bool runBody = false;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return aborted_ || granted_ == handle->index; });
        if (!aborted_) {
          granted_ = kNoGrant;
          handle->phase = TaskHandle::Phase::Running;
          runBody = true;
        }
      }
      if (runBody) {
        try {
          body();
        } catch (const RunAbort&) {
          // Aborted schedule — unwind quietly.
        } catch (const std::exception& error) {
          const std::unique_lock<std::mutex> lock(mutex_);
          recordFailureLocked("task '" + handle->name + "' threw: " + error.what());
        } catch (...) {
          const std::unique_lock<std::mutex> lock(mutex_);
          recordFailureLocked("task '" + handle->name + "' threw a non-std exception");
        }
      }
      std::unique_lock<std::mutex> lock(mutex_);
      handle->phase = TaskHandle::Phase::Finished;
      handle->parkEpoch = handle->grantEpoch;
      currentTask = nullptr;
      cv_.notify_all();
    });
  }

  std::size_t decision = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      // Quiesce: every task parked/blocked/finished with its last grant
      // consumed. The timeout only trips when a granted task blocked in
      // something non-cooperative (a condition-variable wait, real I/O)
      // — a harness misuse, surfaced loudly rather than as a hang.
      const bool quiesced = cv_.wait_for(lock, std::chrono::seconds(60), [&] {
        return std::all_of(tasks_.begin(), tasks_.end(), [](const auto& task) {
          return task->phase != TaskHandle::Phase::Running &&
                 task->parkEpoch == task->grantEpoch;
        });
      });
      EPTO_ENSURE_MSG(quiesced,
                      "schedule exploration hung: a granted task never reached another "
                      "schedule point (non-cooperative blocking in a task body?)");
      if (aborted_) break;

      std::vector<std::size_t> runnable;
      for (const auto& task : tasks_) {
        if (task->phase == TaskHandle::Phase::Parked) runnable.push_back(task->index);
      }
      if (runnable.empty()) {
        bool anyBlocked = false;
        std::string blockedNames;
        for (const auto& task : tasks_) {
          if (task->phase == TaskHandle::Phase::Blocked) {
            anyBlocked = true;
            if (!blockedNames.empty()) blockedNames += ", ";
            blockedNames += task->name;
          }
        }
        if (anyBlocked) {
          recordFailureLocked("deadlock: tasks blocked on cooperative mutexes with no "
                              "runnable task left: " + blockedNames);
          break;
        }
        break;  // every task finished
      }

      std::size_t position = 0;
      if (runnable.size() > 1) {
        position = std::min(oracle(decision, runnable), runnable.size() - 1);
        out.choices.push_back(position);
        out.runnableCounts.push_back(runnable.size());
        ++decision;
      }
      TaskHandle* chosen = tasks_[runnable[position]].get();
      out.grantOrder.push_back(chosen->name);
      ++out.points;
      if (out.points > maxPoints) {
        recordFailureLocked("schedule exceeded the point budget (" +
                            std::to_string(maxPoints) +
                            " grants) — livelock or a runaway task body");
        break;
      }
      ++chosen->grantEpoch;
      granted_ = chosen->index;
      cv_.notify_all();
    }
  }

  for (auto& task : tasks_) {
    if (task->thread.joinable()) task->thread.join();
  }

  out.failed = failed_;
  out.message = message_;
  if (!out.failed && test.verify) {
    if (const auto error = test.verify()) {
      out.failed = true;
      out.message = *error;
    }
  }
  return out;
}

void yieldAtPoint(const char* /*label*/) { currentTask->controller->yield(currentTask); }

void cooperativeLock(void* mutexAddr, bool (*tryLock)(void*), void* arg) {
  TaskHandle* task = currentTask;
  EPTO_ENSURE_MSG(task != nullptr, "cooperativeLock outside an explorer task");
  task->controller->lockCooperatively(task, mutexAddr, tryLock, arg);
}

void mutexReleased(void* mutexAddr) {
  TaskHandle* task = currentTask;
  if (task != nullptr) task->controller->onMutexReleased(mutexAddr);
}

}  // namespace detail

namespace {

std::string encodeExhaustiveSeed(const std::vector<std::size_t>& choices) {
  std::string seed = "x:";
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) seed += ',';
    seed += std::to_string(choices[i]);
  }
  return seed;
}

/// PCT-style oracle: random distinct priorities per task, highest
/// runnable wins, and the winner of each of the `changePoints` sampled
/// decisions is demoted below everything seen so far. Deterministic
/// given `seed`. `horizon` is PCT's estimated schedule length k: the
/// demotion decisions are sampled from [0, horizon) — explore() feeds
/// the previous run's measured decision count so short schedules get
/// useful (early) change points instead of ones past their end.
detail::RunController::Oracle makePctOracle(std::uint64_t seed, std::size_t changePoints,
                                            std::size_t horizon) {
  struct State {
    std::uint64_t rng = 0;
    std::vector<std::uint64_t> priority;
    std::vector<std::size_t> demoteAt;
    std::uint64_t nextDemoted = (1ULL << 32U) - 1;
  };
  auto state = std::make_shared<State>();
  state->rng = seed;
  if (horizon == 0) horizon = 1;
  for (std::size_t i = 0; i < changePoints; ++i) {
    state->demoteAt.push_back(detail::splitmix64(state->rng) % horizon);
  }
  return [state](std::size_t decision, const std::vector<std::size_t>& runnable) {
    for (const std::size_t index : runnable) {
      while (state->priority.size() <= index) {
        // Initial priorities sit above every demoted value.
        state->priority.push_back((detail::splitmix64(state->rng) | (1ULL << 33U)));
      }
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < runnable.size(); ++i) {
      if (state->priority[runnable[i]] > state->priority[runnable[best]]) best = i;
    }
    if (std::find(state->demoteAt.begin(), state->demoteAt.end(), decision) !=
        state->demoteAt.end()) {
      state->priority[runnable[best]] = state->nextDemoted--;
    }
    return best;
  };
}

ExploreReport runOnce(const TestFactory& factory, const detail::RunController::Oracle& oracle,
                      const ExploreOptions& options, std::string seed) {
  detail::RunController controller;
  auto outcome = controller.run(factory(), oracle, options.maxPointsPerRun);
  ExploreReport report;
  report.runs = 1;
  report.maxPoints = outcome.points;
  report.failed = outcome.failed;
  report.message = outcome.message;
  report.seed = std::move(seed);
  if (outcome.failed) report.schedule = outcome.grantOrder;
  return report;
}

}  // namespace

ExploreReport explore(const TestFactory& factory, const ExploreOptions& options) {
  EPTO_ENSURE_MSG(!detail::underExploration(), "nested exploration is not supported");
  EPTO_ENSURE_MSG(factory != nullptr, "explore needs a test factory");
  ExploreReport report;

  if (options.mode == ExploreMode::BoundedExhaustive) {
    std::vector<std::size_t> forced;
    for (;;) {
      if (report.runs >= options.maxRuns) return report;  // exhausted stays false
      detail::RunController controller;
      const auto oracle = [&forced](std::size_t decision,
                                    const std::vector<std::size_t>& runnable) {
        if (decision < forced.size()) return std::min(forced[decision], runnable.size() - 1);
        return std::size_t{0};
      };
      auto outcome = controller.run(factory(), oracle, options.maxPointsPerRun);
      ++report.runs;
      report.maxPoints = std::max(report.maxPoints, outcome.points);
      if (outcome.failed) {
        report.failed = true;
        report.message = outcome.message;
        report.seed = encodeExhaustiveSeed(outcome.choices);
        report.schedule = outcome.grantOrder;
        return report;
      }
      // DFS backtrack: bump the deepest decision with an untried branch.
      std::size_t depth = outcome.choices.size();
      while (depth > 0 && outcome.choices[depth - 1] + 1 >= outcome.runnableCounts[depth - 1]) {
        --depth;
      }
      if (depth == 0) {
        report.exhausted = true;
        return report;
      }
      forced.assign(outcome.choices.begin(),
                    outcome.choices.begin() + static_cast<std::ptrdiff_t>(depth));
      forced[depth - 1] = outcome.choices[depth - 1] + 1;
    }
  }

  std::size_t horizon = 16;  // k estimate before the first run measures it
  for (std::size_t runIndex = 0; runIndex < options.runs; ++runIndex) {
    const std::uint64_t runSeed = options.seed + runIndex;
    detail::RunController controller;
    auto outcome = controller.run(
        factory(), makePctOracle(runSeed, options.priorityChangePoints, horizon),
        options.maxPointsPerRun);
    ++report.runs;
    report.maxPoints = std::max(report.maxPoints, outcome.points);
    if (outcome.failed) {
      report.failed = true;
      report.message = outcome.message;
      report.seed = "p:" + std::to_string(runSeed) + ":" +
                    std::to_string(options.priorityChangePoints) + ":" +
                    std::to_string(horizon);
      report.schedule = outcome.grantOrder;
      return report;
    }
    horizon = std::max<std::size_t>(1, outcome.choices.size());
  }
  return report;
}

ExploreReport replaySeed(const TestFactory& factory, const std::string& seed,
                         const ExploreOptions& options) {
  EPTO_ENSURE_MSG(!detail::underExploration(), "nested exploration is not supported");
  EPTO_ENSURE_MSG(factory != nullptr, "replaySeed needs a test factory");
  EPTO_ENSURE_MSG(seed.size() >= 2 && seed[1] == ':' && (seed[0] == 'x' || seed[0] == 'p'),
                  "schedule seed must start with 'x:' or 'p:'");

  if (seed[0] == 'x') {
    std::vector<std::size_t> forced;
    std::size_t value = 0;
    bool inNumber = false;
    for (std::size_t i = 2; i <= seed.size(); ++i) {
      if (i < seed.size() && seed[i] >= '0' && seed[i] <= '9') {
        value = value * 10 + static_cast<std::size_t>(seed[i] - '0');
        inNumber = true;
      } else {
        EPTO_ENSURE_MSG(i == seed.size() || seed[i] == ',', "malformed exhaustive seed");
        if (inNumber) forced.push_back(value);
        value = 0;
        inNumber = false;
      }
    }
    const auto oracle = [&forced](std::size_t decision,
                                  const std::vector<std::size_t>& runnable) {
      if (decision < forced.size()) return std::min(forced[decision], runnable.size() - 1);
      return std::size_t{0};
    };
    return runOnce(factory, oracle, options, seed);
  }

  // "p:<seed>:<d>:<horizon>" (horizon optional for hand-written seeds)
  std::vector<std::uint64_t> fields{0};
  for (std::size_t i = 2; i < seed.size(); ++i) {
    if (seed[i] == ':') {
      fields.push_back(0);
      continue;
    }
    EPTO_ENSURE_MSG(seed[i] >= '0' && seed[i] <= '9', "malformed PCT seed");
    fields.back() = fields.back() * 10 + static_cast<std::uint64_t>(seed[i] - '0');
  }
  EPTO_ENSURE_MSG(fields.size() == 2 || fields.size() == 3,
                  "malformed PCT seed (want p:<seed>:<d>[:<horizon>])");
  const std::uint64_t runSeed = fields[0];
  const auto depth = static_cast<std::size_t>(fields[1]);
  const std::size_t horizon = fields.size() == 3 ? static_cast<std::size_t>(fields[2]) : 16;
  return runOnce(factory, makePctOracle(runSeed, depth, horizon), options, seed);
}

void expect(bool condition, const char* message) {
  if (condition) return;
  detail::TaskHandle* task = detail::currentTask;
  if (task == nullptr) {
    EPTO_ENSURE_MSG(false, message);
  }
  task->controller->failFromTask(std::string("expect failed: ") + message);
}

void ModelMutex::lock() {
  EPTO_ENSURE_MSG(detail::underExploration(),
                  "ModelMutex is only usable inside explorer task bodies");
  detail::cooperativeLock(
      this,
      [](void* arg) {
        auto* held = static_cast<bool*>(arg);
        if (*held) return false;
        *held = true;
        return true;
      },
      &held_);
}

void ModelMutex::unlock() {
  EPTO_ENSURE_MSG(held_, "ModelMutex::unlock without a held lock");
  held_ = false;
  detail::mutexReleased(this);
}

}  // namespace epto::check
