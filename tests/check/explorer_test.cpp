// Explorer self-tests: the controller itself is the trusted base of the
// whole schedule-checking story, so its mechanics — enumeration counts,
// replayable seeds, failure plumbing, deadlock detection, budgets — get
// checked before any component test leans on them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "check/schedule.h"
#include "check/schedule_point.h"
#include "explore_support.h"
#include "util/mutex.h"

namespace epto {
namespace {

using check::ExploreMode;
using check::ExploreOptions;
using check::ExploreReport;
using check::ScheduledTask;
using check::TestRun;

/// Two tasks of `points` schedule points each; pure counting, no state.
check::TestFactory twoCounters(int points) {
  return [points] {
    TestRun run;
    for (const char* name : {"a", "b"}) {
      run.tasks.push_back(ScheduledTask{name, [points] {
        for (int i = 0; i < points; ++i) EPTO_SCHEDULE_POINT("tick");
      }});
    }
    return run;
  };
}

TEST(Explorer, ExhaustiveCountsInterleavingsOfTwoTasks) {
  // A task with p points is p+1 atomic segments; interleavings of two
  // order-preserved segment sequences = C(2p+2, p+1).
  ExploreOptions options;
  auto one = check::explore(twoCounters(1), options);
  EXPECT_FALSE(one.failed);
  EXPECT_TRUE(one.exhausted);
  EXPECT_EQ(one.runs, 6U);  // C(4,2)

  auto two = check::explore(twoCounters(2), options);
  EXPECT_TRUE(two.exhausted);
  EXPECT_EQ(two.runs, 20U);  // C(6,3)
}

TEST(Explorer, MaxRunsStopsSearchWithoutExhausting) {
  ExploreOptions options;
  options.maxRuns = 5;
  auto report = check::explore(twoCounters(2), options);
  EXPECT_FALSE(report.failed);
  EXPECT_FALSE(report.exhausted);
  EXPECT_EQ(report.runs, 5U);
}

/// Classic lost update: A writes then re-reads around a schedule point;
/// B's write landing in between is the bug schedule.
check::TestFactory lostUpdate() {
  return [] {
    auto x = std::make_shared<int>(0);
    TestRun run;
    run.tasks.push_back(ScheduledTask{"writerA", [x] {
      *x = 1;
      EPTO_SCHEDULE_POINT("between");
      check::expect(*x == 1, "writerA's value was overwritten mid-section");
    }});
    run.tasks.push_back(ScheduledTask{"writerB", [x] { *x = 2; }});
    return run;
  };
}

TEST(Explorer, FindsSeededBugAndReplaySeedReproducesIt) {
  auto report = check::explore(lostUpdate(), ExploreOptions{});
  ASSERT_TRUE(report.failed);
  EXPECT_NE(report.message.find("overwritten"), std::string::npos);
  ASSERT_FALSE(report.seed.empty());
  EXPECT_EQ(report.seed.rfind("x:", 0), 0U);
  ASSERT_FALSE(report.schedule.empty());

  auto replay = check::replaySeed(lostUpdate(), report.seed);
  EXPECT_TRUE(replay.failed);
  EXPECT_EQ(replay.message, report.message);
  EXPECT_EQ(replay.schedule, report.schedule);
  EXPECT_EQ(replay.runs, 1U);
}

TEST(Explorer, PctModeFindsTheBugDeterministically) {
  ExploreOptions options;
  options.mode = ExploreMode::RandomPct;
  options.runs = 64;
  options.seed = 7;
  auto first = check::explore(lostUpdate(), options);
  ASSERT_TRUE(first.failed);
  EXPECT_EQ(first.seed.rfind("p:", 0), 0U);

  auto second = check::explore(lostUpdate(), options);
  EXPECT_EQ(second.seed, first.seed);
  EXPECT_EQ(second.runs, first.runs);
  EXPECT_EQ(second.schedule, first.schedule);

  auto replay = check::replaySeed(lostUpdate(), first.seed);
  EXPECT_TRUE(replay.failed);
  EXPECT_EQ(replay.schedule, first.schedule);
}

/// lostUpdate() with writerA's section and writerB's write each under one
/// util::MutexLock on a shared util::Mutex. Under exploration the real
/// lock takes its cooperative path (util/mutex.h): writerB contending
/// while writerA is parked inside the section must be descheduled, not
/// blocked in std::mutex::lock with the controller waiting on it.
check::TestFactory lockedUpdate() {
  return [] {
    auto x = std::make_shared<int>(0);
    auto mutex = std::make_shared<util::Mutex>();
    TestRun run;
    run.tasks.push_back(ScheduledTask{"writerA", [x, mutex] {
      const util::MutexLock lock(*mutex);
      *x = 1;
      EPTO_SCHEDULE_POINT("between");
      check::expect(*x == 1, "writerA's value was overwritten mid-section");
    }});
    run.tasks.push_back(ScheduledTask{"writerB", [x, mutex] {
      const util::MutexLock lock(*mutex);
      *x = 2;
    }});
    return run;
  };
}

TEST(Explorer, RealMutexClosesTheLostUpdateUnderExhaustiveSearch) {
  auto report = test::exploreOrReplay(lockedUpdate());
  EXPECT_SCHEDULES_CLEAN(report);
  EXPECT_TRUE(report.exhausted);
  EXPECT_GT(report.runs, 1U);
}

TEST(Explorer, VerifyRejectionFailsTheSchedule) {
  auto factory = [] {
    TestRun run;
    run.tasks.push_back(ScheduledTask{"noop", [] {}});
    run.verify = [] { return std::optional<std::string>("invariant broken"); };
    return run;
  };
  auto report = check::explore(factory, ExploreOptions{});
  ASSERT_TRUE(report.failed);
  EXPECT_EQ(report.message, "invariant broken");
}

TEST(Explorer, TaskExceptionIsReportedWithTaskName) {
  auto factory = [] {
    TestRun run;
    run.tasks.push_back(ScheduledTask{"thrower", [] {
      throw std::runtime_error("boom");
    }});
    return run;
  };
  auto report = check::explore(factory, ExploreOptions{});
  ASSERT_TRUE(report.failed);
  EXPECT_NE(report.message.find("thrower"), std::string::npos);
  EXPECT_NE(report.message.find("boom"), std::string::npos);
}

TEST(Explorer, AbBaModelMutexDeadlockIsDetected) {
  auto factory = [] {
    auto a = std::make_shared<check::ModelMutex>();
    auto b = std::make_shared<check::ModelMutex>();
    TestRun run;
    run.tasks.push_back(ScheduledTask{"ab", [a, b] {
      a->lock();
      EPTO_SCHEDULE_POINT("holding-a");
      b->lock();
      b->unlock();
      a->unlock();
    }});
    run.tasks.push_back(ScheduledTask{"ba", [a, b] {
      b->lock();
      EPTO_SCHEDULE_POINT("holding-b");
      a->lock();
      a->unlock();
      b->unlock();
    }});
    return run;
  };
  auto report = check::explore(factory, ExploreOptions{});
  ASSERT_TRUE(report.failed);
  EXPECT_NE(report.message.find("deadlock"), std::string::npos);
  ASSERT_FALSE(report.seed.empty());

  auto replay = check::replaySeed(factory, report.seed);
  EXPECT_TRUE(replay.failed);
  EXPECT_NE(replay.message.find("deadlock"), std::string::npos);
}

TEST(Explorer, PointBudgetFlagsLivelock) {
  auto factory = [] {
    TestRun run;
    run.tasks.push_back(ScheduledTask{"spinner", [] {
      for (;;) EPTO_SCHEDULE_POINT("spin");
    }});
    return run;
  };
  ExploreOptions options;
  options.maxPointsPerRun = 50;
  auto report = check::explore(factory, options);
  ASSERT_TRUE(report.failed);
  EXPECT_NE(report.message.find("point budget"), std::string::npos);
}

TEST(Explorer, ReplayEnvVarRoutesToSingleScheduleReplay) {
  ::setenv("EPTO_SCHED_REPLAY", "x:", 1);
  auto report = test::exploreOrReplay(twoCounters(1), ExploreOptions{});
  ::unsetenv("EPTO_SCHED_REPLAY");
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(report.runs, 1U);  // one replay, not a search
  EXPECT_EQ(report.seed, "x:");
}

}  // namespace
}  // namespace epto
