// Persistent worker-thread pool with a chunked parallel-for.
//
// The seed ParallelFor spawned and joined fresh std::threads on every call
// and claimed one index per atomic operation; for sweep workloads that call
// into the parallel region once per policy point, thread creation and
// cache-line ping-pong on the work counter dominated.  This pool is created
// once (see ThreadPool::Shared), parks its workers on a condition variable
// between parallel regions, and hands out *chunks* of the index range so the
// shared counter is touched O(count / chunk) times instead of O(count).
//
// Design notes:
//   - The calling thread always participates in the loop body, so a region
//     completes even when every pool worker is busy elsewhere; nested
//     ParallelFor calls therefore cannot deadlock (the inner call simply
//     runs mostly inline).
//   - The first exception thrown by any participant is captured and
//     rethrown on the calling thread after the region drains (the seed
//     behaviour was std::terminate).  Remaining chunks are skipped once an
//     exception is pending.
//   - Results must still be written to per-index slots; scheduling is
//     dynamic, so chunk-to-thread assignment is nondeterministic even
//     though index coverage is exact.

#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace faas {

class ThreadPool {
 public:
  // 0 means hardware concurrency.  The pool keeps (num_threads - 1) parked
  // workers: the caller of For() is the remaining participant.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of parked worker threads (callers add one more on top).
  int num_workers() const { return static_cast<int>(threads_.size()); }

  // Invokes fn(i) for every i in [0, count) using the calling thread plus up
  // to (max_parallelism - 1) pool workers.  chunk == 0 picks a chunk size
  // that yields ~8 chunks per participant.  Rethrows the first exception any
  // participant raised.  max_parallelism <= 1 (or count <= 1) runs inline.
  void For(size_t count, const std::function<void(size_t)>& fn,
           int max_parallelism = 0, size_t chunk = 0);

  // Process-wide pool sized to the hardware, created on first use.
  // FAAS_POOL_THREADS=N overrides the size.
  static ThreadPool& Shared();

 private:
  // Enqueues one helper task of a For() region for a pool worker; the task
  // must not throw.
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace faas

#endif  // SRC_COMMON_THREAD_POOL_H_
