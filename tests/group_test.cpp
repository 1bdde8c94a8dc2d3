// TaskGroup accounting tests: counters, reports, inversion metric, ratio
// retargeting, reset.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/group.hpp"

namespace {

using sigrt::ExecutionKind;
using sigrt::GroupReport;
using sigrt::TaskGroup;

TEST(TaskGroup, CountsOutcomes) {
  TaskGroup g(1, "g", 0.5, true);
  g.on_spawn();
  g.on_spawn();
  g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.3f, 0.5, false);
  g.on_complete(ExecutionKind::Dropped, 0.1f, 0.5, false);
  const GroupReport r = g.report();
  EXPECT_EQ(r.spawned, 3u);
  EXPECT_EQ(r.accurate, 1u);
  EXPECT_EQ(r.approximate, 1u);
  EXPECT_EQ(r.dropped, 1u);
}

TEST(TaskGroup, ProvidedRatio) {
  TaskGroup g(1, "g", 0.5, true);
  for (int i = 0; i < 4; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5, false);
  g.on_complete(ExecutionKind::Accurate, 0.8f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.2f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.1f, 0.5, false);
  EXPECT_DOUBLE_EQ(g.report().provided_ratio(), 0.5);
  EXPECT_NEAR(g.report().ratio_diff(), 0.0, 1e-12);
}

TEST(TaskGroup, RatioDiffTracksMeanRequested) {
  TaskGroup g(1, "g", 0.8, true);
  g.on_spawn();
  g.on_spawn();
  // Requested 0.8 at classification time for both; both approximated.
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.8, false);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.8, false);
  EXPECT_NEAR(g.report().ratio_diff(), 0.8, 1e-12);
}

TEST(TaskGroup, MeanRequestedHandlesRetargeting) {
  // Fluidanimate pattern: half the tasks at ratio 1.0, half at 0.0.
  TaskGroup g(1, "fluid", 0.0, true);
  for (int i = 0; i < 4; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.5f, 1.0, false);
  g.on_complete(ExecutionKind::Accurate, 0.5f, 1.0, false);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.0, false);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.0, false);
  const GroupReport r = g.report();
  EXPECT_DOUBLE_EQ(r.mean_requested_ratio, 0.5);
  EXPECT_DOUBLE_EQ(r.provided_ratio(), 0.5);
  EXPECT_NEAR(r.ratio_diff(), 0.0, 1e-12);
}

TEST(TaskGroup, InversionDetected) {
  TaskGroup g(1, "g", 0.5, true);
  for (int i = 0; i < 4; ++i) g.on_spawn();
  // A 0.2-significance task ran accurately while a 0.8 task was
  // approximated: the 0.8 task is inversed.
  g.on_complete(ExecutionKind::Accurate, 0.2f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.8f, 0.5, false);
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.1f, 0.5, false);
  EXPECT_DOUBLE_EQ(g.report().inversion_fraction, 0.25);
}

TEST(TaskGroup, NoInversionWhenOrderRespected) {
  TaskGroup g(1, "g", 0.5, true);
  for (int i = 0; i < 4; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5, false);
  g.on_complete(ExecutionKind::Accurate, 0.8f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.2f, 0.5, false);
  g.on_complete(ExecutionKind::Dropped, 0.1f, 0.5, false);
  EXPECT_DOUBLE_EQ(g.report().inversion_fraction, 0.0);
}

TEST(TaskGroup, EqualSignificanceIsNeverAnInversion) {
  TaskGroup g(1, "g", 0.5, true);
  for (int i = 0; i < 2; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.5f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.5, false);
  EXPECT_DOUBLE_EQ(g.report().inversion_fraction, 0.0);
}

TEST(TaskGroup, InternalTasksExcludedFromStats) {
  TaskGroup g(1, "g", 1.0, true);
  g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 1.0f, 1.0, /*internal=*/true);
  const GroupReport r = g.report();
  EXPECT_EQ(r.accurate, 0u);
  EXPECT_EQ(r.spawned, 1u);  // spawn still tracked for the barrier
}

/// A blocking barrier on the group's wait channel, as Runtime::wait_group
/// issues it from a non-task thread.
void wait_quiesced(const TaskGroup& g) {
  sigrt::support::MutexLock lock(g.wait_mutex());
  g.wait_cv().wait(lock.native(), [&g] { return g.pending() == 0; });
}

TEST(TaskGroup, WaitBlocksUntilPendingZero) {
  TaskGroup g(1, "g", 1.0, true);
  g.on_spawn();
  std::thread completer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    g.on_complete(ExecutionKind::Accurate, 1.0f, 1.0, false);
  });
  wait_quiesced(g);  // woken by the quiescence broadcast
  EXPECT_EQ(g.pending(), 0u);
  completer.join();
}

TEST(TaskGroup, WaitReturnsImmediatelyWhenIdle) {
  TaskGroup g(1, "g", 1.0, true);
  wait_quiesced(g);  // must not block
  SUCCEED();
}

TEST(TaskGroup, SetRatioVisible) {
  TaskGroup g(1, "g", 0.3, true);
  EXPECT_DOUBLE_EQ(g.ratio(), 0.3);
  g.set_ratio(0.9);
  EXPECT_DOUBLE_EQ(g.ratio(), 0.9);
}

TEST(TaskGroup, ResetStatsClearsCountersKeepsRatio) {
  TaskGroup g(1, "g", 0.7, true);
  g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.5f, 0.7, false);
  g.reset_stats();
  const GroupReport r = g.report();
  EXPECT_EQ(r.accurate, 0u);
  EXPECT_EQ(r.spawned, 0u);
  EXPECT_DOUBLE_EQ(g.ratio(), 0.7);
}

TEST(TaskGroup, LogDisabledStillCounts) {
  TaskGroup g(1, "g", 0.5, /*record_log=*/false);
  g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.5f, 0.5, false);
  const GroupReport r = g.report();
  EXPECT_EQ(r.accurate, 1u);
  EXPECT_DOUBLE_EQ(r.inversion_fraction, 0.0);
}

TEST(TaskGroup, EmptyReportDefaults) {
  TaskGroup g(3, "empty", 0.4, true);
  const GroupReport r = g.report();
  EXPECT_EQ(r.id, 3u);
  EXPECT_EQ(r.name, "empty");
  EXPECT_DOUBLE_EQ(r.provided_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(r.requested_ratio, 0.4);
}

}  // namespace
