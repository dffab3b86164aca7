// ThreadPool: the reusable host pool behind simt::ExecutionPolicy.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace simtmsg::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.run_indexed(kCount, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SerialParallelismStaysOnCallingThread) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  bool all_on_caller = true;
  pool.run_indexed(64, 1, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  });
  EXPECT_TRUE(all_on_caller);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  pool.run_indexed(0, 4, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_indexed(100, 4,
                                [](std::size_t i) {
                                  if (i == 37) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<std::size_t> done{0};
  pool.run_indexed(10, 4, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 10u);
}

TEST(ThreadPool, NestedRunDegradesToSerialInsteadOfDeadlocking) {
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  pool.run_indexed(8, 2, [&](std::size_t) {
    pool.run_indexed(8, 2, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 64u);
}

TEST(ThreadPool, ParallelismAboveWorkerCountStillCompletes) {
  ThreadPool pool(2);
  std::atomic<std::size_t> done{0};
  pool.run_indexed(500, 64, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 500u);
}

TEST(ThreadPool, SequentialJobsReuseThePool) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.run_indexed(100, 4, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u) << "round " << round;
  }
}

TEST(ThreadPool, SharedPoolIsUsable) {
  std::atomic<std::size_t> done{0};
  ThreadPool::shared().run_indexed(32, 0, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 32u);
  EXPECT_GE(ThreadPool::shared().workers(), 1);
}

/// Threads in this process (Linux /proc), or -1 where that is unavailable.
int live_threads() {
  std::error_code ec;
  const std::filesystem::directory_iterator tasks("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<int>(std::distance(tasks, std::filesystem::directory_iterator{}));
}

// A pool whose every launch is serial must never start a worker; the first
// launch that fans out starts them all, and later launches reuse them.
TEST(ThreadPool, WorkersStartOnFirstParallelRun) {
  const int before = live_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task on this platform";
  ThreadPool pool(3);
  std::atomic<std::size_t> done{0};
  pool.run_indexed(64, 1, [&](std::size_t) { done.fetch_add(1); });
  pool.run_indexed(1, 8, [&](std::size_t) { done.fetch_add(1); });  // One index: serial.
  EXPECT_EQ(live_threads(), before) << "serial launches started workers";
  pool.run_indexed(64, 4, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(live_threads(), before + 3);
  pool.run_indexed(64, 4, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(live_threads(), before + 3) << "workers must be reused, not restarted";
  EXPECT_EQ(done.load(), 64u + 1u + 64u + 64u);
  EXPECT_EQ(pool.workers(), 3);
}

TEST(ThreadPool, UnusedPoolShutsDownCleanly) {
  const int before = live_threads();
  { const ThreadPool pool(4); }
  if (before < 0) GTEST_SKIP() << "no /proc/self/task on this platform";
  EXPECT_EQ(live_threads(), before);
}

}  // namespace
}  // namespace simtmsg::util
