#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace rhw {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndNegativeAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](int64_t, int64_t) { ++calls; });
  pool.parallel_for(-5, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleElement) {
  ThreadPool pool(8);
  std::atomic<int64_t> sum{0};
  pool.parallel_for(1, [&](int64_t b, int64_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPool, NestedCallsFallBackToSerial) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.parallel_for(8, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      // Reentrant use of the global pool must not deadlock.
      parallel_for(10, [&](int64_t ib, int64_t ie) { total += ie - ib; });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<int64_t> sum{0};
  parallel_for(12345, [&](int64_t b, int64_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 12345);
}

TEST(ThreadPool, ManySequentialDispatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    pool.parallel_for(37, [&](int64_t b, int64_t e) { sum += e - b; });
    ASSERT_EQ(sum.load(), 37);
  }
}

// Two callers share one pool. Caller A's worker chunk blocks until caller B
// has returned from its own parallel_for, so B must return while A's chunk
// is still running: a call waits on its own chunks only. The waits are
// bounded, so a pool that waits on every queued chunk fails here (after the
// timeout) instead of hanging.
TEST(ThreadPool, CallerWaitsOnlyForItsOwnChunks) {
  constexpr auto kTimeout = std::chrono::seconds(5);
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool a_worker_started = false;
  bool b_returned = false;
  bool a_saw_b_return = false;

  // n = 2 over 2 workers: chunk [0, 1) runs on the caller, [1, 2) on a worker.
  std::thread caller_a([&] {
    pool.parallel_for(2, [&](int64_t begin, int64_t) {
      if (begin == 0) return;
      std::unique_lock lock(mu);
      a_worker_started = true;
      cv.notify_all();
      a_saw_b_return = cv.wait_for(lock, kTimeout, [&] { return b_returned; });
    });
  });
  {
    std::unique_lock lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, kTimeout, [&] { return a_worker_started; }))
        << "caller A's worker chunk never started";
  }
  std::atomic<int64_t> b_sum{0};
  pool.parallel_for(2, [&](int64_t b, int64_t e) { b_sum += e - b; });
  {
    std::lock_guard lock(mu);
    b_returned = true;
  }
  cv.notify_all();
  caller_a.join();
  EXPECT_EQ(b_sum.load(), 2);
  EXPECT_TRUE(a_saw_b_return)
      << "caller B's parallel_for waited on caller A's chunk";
}

}  // namespace
}  // namespace rhw
