#include <gtest/gtest.h>

#include "src/core/service_queue.h"
#include "src/runtime/sim_env.h"

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

}  // namespace
}  // namespace sdr
