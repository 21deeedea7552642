#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "src/core/service_queue.h"
#include "src/runtime/real_env.h"
#include "src/runtime/sim_env.h"
#include "src/trace/trace.h"

namespace sdr {
namespace {

TEST(ServiceQueueTest, JobsCompleteInFifoOrderWithQueueing) {
  Simulator sim(1);
  SimEnv env(&sim, nullptr, 1);
  ServiceQueue q(&env, 1.0);
  std::vector<int> done;
  q.Enqueue(100, [&] { done.push_back(1); });
  q.Enqueue(50, [&] { done.push_back(2); });
  q.Enqueue(10, [&] { done.push_back(3); });
  EXPECT_EQ(q.depth(), 3u);
  sim.RunUntil(99);
  EXPECT_TRUE(done.empty());
  sim.RunUntil(100);
  EXPECT_EQ(done, (std::vector<int>{1}));
  sim.RunUntil(150);
  EXPECT_EQ(done, (std::vector<int>{1, 2}));
  sim.RunUntil(160);
  EXPECT_EQ(done, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.depth(), 0u);
}

TEST(ServiceQueueTest, IdleGapsDoNotAccumulate) {
  Simulator sim(1);
  SimEnv env(&sim, nullptr, 1);
  ServiceQueue q(&env, 1.0);
  int done = 0;
  q.Enqueue(10, [&] { ++done; });
  sim.RunUntil(1000);  // long idle
  ASSERT_EQ(done, 1);
  // The second job starts when it arrives, not where the idle server's
  // last job ended.
  q.Enqueue(10, [&] { ++done; });
  sim.RunUntil(1009);
  EXPECT_EQ(done, 1);
  sim.RunUntil(1010);
  EXPECT_EQ(done, 2);
}

TEST(ServiceQueueTest, SpeedScalesServiceTime) {
  Simulator sim(1);
  SimEnv env(&sim, nullptr, 1);
  ServiceQueue fast(&env, 4.0);
  ServiceQueue slow(&env, 0.5);
  int fast_done = 0, slow_done = 0;
  fast.Enqueue(100, [&] { ++fast_done; });
  slow.Enqueue(100, [&] { ++slow_done; });
  sim.RunUntil(25);
  EXPECT_EQ(fast_done, 1);
  EXPECT_EQ(slow_done, 0);
  sim.RunUntil(200);
  EXPECT_EQ(slow_done, 1);
}

TEST(ServiceQueueTest, ZeroCostJobStillTakesMinimumTick) {
  Simulator sim(1);
  SimEnv env(&sim, nullptr, 1);
  ServiceQueue q(&env, 10.0);
  int done = 0;
  q.Enqueue(0, [&] { ++done; });
  sim.RunUntil(0);
  EXPECT_EQ(done, 0);
  sim.RunUntilIdle();
  EXPECT_EQ(done, 1);
}

// On the real transport the modelled cost is not waited out: a job runs
// when the event loop reaches it, after the handler that enqueued it
// returns, in FIFO order.
TEST(ServiceQueueRealEnvTest, JobsRunWhenTheLoopReachesThemInFifoOrder) {
  RealEnv env(RealEnv::Options{});
  ServiceQueue q(&env, 1.0);
  std::vector<int> done;
  bool ran_inside_enqueue = true;
  size_t depth_after_enqueue = 0;
  SimTime enqueued_at = 0;
  SimTime finished_at = 0;
  env.ScheduleAfter(0, [&] {
    enqueued_at = env.Now();
    q.Enqueue(200 * kMillisecond, [&] { done.push_back(1); });
    ran_inside_enqueue = !done.empty();
    q.Enqueue(200 * kMillisecond, [&] { done.push_back(2); });
    q.Enqueue(200 * kMillisecond, [&] {
      done.push_back(3);
      finished_at = env.Now();
      env.RequestStop();
    });
    depth_after_enqueue = q.depth();
  });
  // Ends the loop even if the queue waits out the modelled 600 ms.
  env.ScheduleAfter(5 * kSecond, [&] { env.RequestStop(); });
  env.Run();

  EXPECT_FALSE(ran_inside_enqueue);
  EXPECT_EQ(depth_after_enqueue, 3u);
  EXPECT_EQ(done, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_LT(finished_at - enqueued_at, 200 * kMillisecond);
}

// Under RealEnv, queue_wait_us is the measured time from enqueue to the
// job's start: the jobs behind one that holds the server for 20 ms wait at
// least that long, and none waits the modelled 200 ms.
TEST(ServiceQueueRealEnvTest, QueueWaitIsMeasuredFromEnqueueToStart) {
  RealEnv env(RealEnv::Options{});
  TraceSink sink(&env, TraceSink::Options{});
  env.set_trace(&sink);
  ServiceQueue q(&env, 1.0);
  q.BindTrace(TraceRole::kSlave, 1);
  env.ScheduleAfter(0, [&] {
    q.Enqueue(200 * kMillisecond, [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    q.Enqueue(200 * kMillisecond, [] {});
    q.Enqueue(200 * kMillisecond, [&] { env.RequestStop(); });
  });
  env.ScheduleAfter(5 * kSecond, [&] { env.RequestStop(); });
  env.Run();

  auto hists = sink.MergedHistograms();
  ASSERT_EQ(hists.count("queue_wait_us"), 1u);
  const LatencyHistogram& wait = hists["queue_wait_us"];
  EXPECT_EQ(wait.count(), 3u);
  EXPECT_GE(wait.max(), 20 * kMillisecond);
  EXPECT_LT(wait.max(), 200 * kMillisecond);
}

}  // namespace
}  // namespace sdr
