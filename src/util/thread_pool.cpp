#include "util/thread_pool.hpp"

#include <algorithm>

namespace simtmsg::util {
namespace {
/// Set while the current thread executes pool work; a nested run_indexed
/// from inside a task degrades to the serial loop instead of deadlocking on
/// the single job slot.
thread_local bool tls_in_pool_task = false;
}  // namespace

ThreadPool::ThreadPool(int threads) : workers_(std::max(1, threads)) {}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stopping_ || (job_.active && job_.next < job_.count); });
    if (stopping_) return;
    drain_job(lock);
  }
}

void ThreadPool::drain_job(std::unique_lock<std::mutex>& lock) {
  while (job_.active && job_.next < job_.count) {
    const std::size_t i = job_.next++;
    const IndexedFn fn = job_.fn;
    lock.unlock();
    std::exception_ptr error;
    tls_in_pool_task = true;
    try {
      fn(i);
    } catch (...) {
      error = std::current_exception();
    }
    tls_in_pool_task = false;
    lock.lock();
    if (error && !job_.error) job_.error = error;
    if (++job_.done == job_.count) done_.notify_all();
  }
}

void ThreadPool::run_indexed(std::size_t count, int parallelism, IndexedFn fn) {
  if (count == 0) return;
  if (parallelism <= 1 || count == 1 || tls_in_pool_task) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // One job at a time: a second top-level caller waits its turn rather than
  // clobbering the active job.
  const std::lock_guard<std::mutex> submit(submit_mutex_);
  if (threads_.empty()) {
    threads_.reserve(static_cast<std::size_t>(workers_));
    for (int i = 0; i < workers_; ++i) threads_.emplace_back([this] { worker_loop(); });
  }
  std::unique_lock<std::mutex> lock(mutex_);
  job_ = Job{};
  job_.fn = fn;
  job_.count = count;
  job_.active = true;
  // Wake enough workers to reach `parallelism` including the caller.
  const int helpers = std::min<int>(parallelism - 1, workers());
  for (int i = 0; i < helpers; ++i) wake_.notify_one();

  drain_job(lock);  // The caller works too instead of just blocking.
  done_.wait(lock, [this] { return job_.done == job_.count; });
  job_.active = false;
  const std::exception_ptr error = job_.error;
  job_ = Job{};
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace simtmsg::util
