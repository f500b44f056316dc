#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace h3cdn::util {
namespace {

TEST(ThreadPool, ZeroMeansDefaultJobs) {
  EXPECT_GE(default_jobs(), 1u);
  std::vector<std::atomic<int>> hits(9);
  parallel_for(hits.size(), 0, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SingleThreadPoolStillRunsOnWorker) {
  // jobs=1 must use the same code path as jobs=N: cells run on a worker
  // thread, never inline on the caller.
  std::thread::id task_thread;
  parallel_for(1, 1, [&](std::size_t) { task_thread = std::this_thread::get_id(); });
  EXPECT_NE(task_thread, std::thread::id{});
  EXPECT_NE(task_thread, std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForZeroIsANoOp) {
  parallel_for(0, 2, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, UsableAgainAfterException) {
  EXPECT_THROW(parallel_for(2, 2, [](std::size_t) { throw std::runtime_error("first phase"); }),
               std::runtime_error);
  std::atomic<int> ran{0};
  parallel_for(3, 2, [&](std::size_t) { ran.fetch_add(1); });  // no stale exception
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, ServesSeveralPhasesBackToBack) {
  // Several parallel_for phases in a row, like run_resilience's per-row
  // sweeps.
  std::atomic<int> total{0};
  for (int phase = 0; phase < 5; ++phase) {
    parallel_for(10, 3, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, ParallelForRethrowsTaskException) {
  // The throwing index does not stop the others; the exception surfaces
  // after the join.
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(8, 2,
                            [&](std::size_t i) {
                              ran.fetch_add(1);
                              if (i == 3) throw std::runtime_error("shard failed");
                            }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace h3cdn::util
