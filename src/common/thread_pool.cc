#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "src/common/parallel.h"

namespace faas {

namespace {

// Shared state of one For() region.  Kept alive by shared_ptr so helper
// tasks that wake after the caller returned (having found no chunk left)
// still touch valid memory; `fn` is only dereferenced while the caller is
// provably blocked in Wait() (a claimed chunk implies finished < count).
struct ForRegion {
  size_t count = 0;
  size_t chunk = 1;
  const std::function<void(size_t)>* fn = nullptr;
  std::atomic<size_t> next{0};
  std::atomic<bool> cancelled{false};

  std::mutex mu;
  std::condition_variable done_cv;
  size_t finished = 0;  // indices accounted for; region done at == count
  std::exception_ptr error;

  // Claims and runs chunks until the range is exhausted.  On exception,
  // records the first error and lets the remaining chunks drain unexecuted
  // so `finished` still reaches `count`.
  void RunChunks() {
    while (true) {
      const size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) {
        return;
      }
      const size_t end = std::min(begin + chunk, count);
      if (!cancelled.load(std::memory_order_relaxed)) {
        try {
          for (size_t i = begin; i < end; ++i) {
            (*fn)(i);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (error == nullptr) {
            error = std::current_exception();
          }
          cancelled.store(true, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      finished += end - begin;
      if (finished == count) {
        done_cv.notify_all();
      }
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [this] { return finished == count; });
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads == 0) {
    num_threads = HardwareThreads();
  }
  const int workers = std::max(0, num_threads - 1);
  threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to drain
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::For(size_t count, const std::function<void(size_t)>& fn,
                     int max_parallelism, size_t chunk) {
  if (max_parallelism == 0) {
    max_parallelism = num_workers() + 1;
  }
  if (count <= 1 || max_parallelism <= 1) {
    for (size_t i = 0; i < count; ++i) {
      fn(i);  // Inline path: exceptions propagate naturally.
    }
    return;
  }
  const size_t participants =
      std::min({static_cast<size_t>(max_parallelism),
                static_cast<size_t>(num_workers()) + 1, count});
  if (chunk == 0) {
    chunk = std::max<size_t>(1, count / (participants * 8));
  }

  auto region = std::make_shared<ForRegion>();
  region->count = count;
  region->chunk = chunk;
  region->fn = &fn;

  const size_t helpers =
      std::min(participants - 1, (count + chunk - 1) / chunk - 1);
  for (size_t h = 0; h < helpers; ++h) {
    Submit([region] { region->RunChunks(); });
  }
  region->RunChunks();
  region->Wait();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("FAAS_POOL_THREADS");
        env != nullptr && env[0] != '\0') {
      const int n = std::atoi(env);
      if (n > 0) {
        return n;
      }
    }
    return 0;
  }());
  return pool;
}

}  // namespace faas
