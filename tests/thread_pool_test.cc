#include "src/common/thread_pool.h"

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/parallel.h"

namespace faas {
namespace {

TEST(ThreadPoolTest, ForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kCount = 50'000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.For(kCount, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ExplicitChunkSizeCoversRaggedTail) {
  ThreadPool pool(3);
  constexpr size_t kCount = 1001;  // Not a multiple of the chunk size.
  std::vector<std::atomic<int>> hits(kCount);
  pool.For(kCount, [&](size_t i) { hits[i].fetch_add(1); },
           /*max_parallelism=*/3, /*chunk=*/64);
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SingleParallelismRunsInlineInOrder) {
  ThreadPool pool(4);
  std::vector<int> order;
  pool.For(6, [&](size_t i) { order.push_back(static_cast<int>(i)); },
           /*max_parallelism=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPoolTest, ZeroWorkerPoolStillCompletes) {
  // A pool built for one thread parks no workers; the caller does all the
  // work itself.
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.For(100, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); },
           /*max_parallelism=*/8);
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, ExceptionRethrownOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.For(1000,
               [&](size_t i) {
                 if (i == 137) {
                   throw std::runtime_error("boom");
                 }
               }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionMessageSurvives) {
  ThreadPool pool(2);
  try {
    pool.For(100, [&](size_t i) {
      if (i == 0) {
        throw std::runtime_error("first failure wins");
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first failure wins");
  }
}

TEST(ThreadPoolTest, ExceptionSkipsRemainingChunks) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.For(100'000,
                        [&](size_t i) {
                          if (i == 0) {
                            throw std::runtime_error("early abort");
                          }
                          executed.fetch_add(1);
                        },
                        /*max_parallelism=*/2, /*chunk=*/16),
               std::runtime_error);
  // Cancellation is best effort, but the bulk of the range must be skipped.
  EXPECT_LT(executed.load(), 100'000 - 1);
}

TEST(ThreadPoolTest, NestedForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.For(8, [&](size_t) {
    // The nested region runs inline on whichever thread executes the outer
    // body; the caller always participates, so this cannot deadlock even
    // with every pool worker busy in the outer loop.
    ThreadPool inner(2);
    inner.For(16, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPoolTest, NestedParallelForOnSharedPool) {
  std::atomic<int> total{0};
  ParallelFor(
      4,
      [&](size_t) {
        ParallelFor(8, [&](size_t) { total.fetch_add(1); }, 0);
      },
      0);
  EXPECT_EQ(total.load(), 4 * 8);
}

TEST(ThreadPoolTest, ReusableAcrossManyRegions) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.For(64, [&](size_t i) { sum.fetch_add(static_cast<int64_t>(i)); });
  }
  EXPECT_EQ(sum.load(), 200 * (64 * 63 / 2));
}

TEST(ThreadPoolTest, SharedPoolSizedToHardware) {
  EXPECT_EQ(ThreadPool::Shared().num_workers(), HardwareThreads() - 1);
}

TEST(ParallelForExceptionTest, RethrowsInsteadOfTerminating) {
  // The seed ParallelFor let a throwing worker reach std::terminate; the
  // pool-backed version must surface the exception to the caller at any
  // thread count.
  for (int threads : {1, 2, 4}) {
    EXPECT_THROW(
        ParallelFor(
            256,
            [&](size_t i) {
              if (i % 2 == 0) {
                throw std::invalid_argument("bad index");
              }
            },
            threads),
        std::invalid_argument)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace faas
