// ThreadPool: a reusable host worker pool for executing independent work
// items (CTAs, partitions) concurrently.
//
// The pool exists to parallelize the *host wall-clock* cost of the
// functional SIMT engine; it must never influence modelled results.  The
// contract that makes this possible is index isolation: `run_indexed(n, p,
// fn)` calls `fn(i)` exactly once for every i in [0, n), each call may touch
// only state owned by its own index (plus read-only shared state), and the
// caller merges per-index results in index order after the call returns.
// Under that contract the outcome is bit-identical for every parallelism
// level, including p == 1 (which runs entirely on the calling thread and
// never wakes a worker).
//
// Workers start on the first run_indexed that actually fans out (so a
// process whose launches are all serial never starts a thread) and stay
// alive for the pool's lifetime — the process lifetime for `shared()` — so
// repeated kernel launches pay no thread start-up cost.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function_ref.hpp"

namespace simtmsg::util {

class ThreadPool {
 public:
  /// A pool of `threads` persistent workers (clamped to >= 1), started on
  /// the first parallel run_indexed.  The calling thread of run_indexed
  /// always participates, so a pool of k workers sustains parallelism
  /// k + 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool sized to the hardware concurrency, created on first
  /// use.  All launch sites share it so oversubscription stays bounded no
  /// matter how many matchers run.
  static ThreadPool& shared();

  /// Configured worker count (whether or not the workers started yet).
  [[nodiscard]] int workers() const noexcept { return workers_; }

  /// Per-index work callback.  A non-owning reference: run_indexed blocks
  /// until every index completed, so the callable the caller passed always
  /// outlives the job (and no std::function is materialized per call).
  using IndexedFn = FunctionRef<void(std::size_t)>;

  /// Execute fn(i) once for every i in [0, count), using at most
  /// `parallelism` concurrent threads (the caller plus up to parallelism-1
  /// workers).  parallelism <= 1 runs serially on the calling thread in
  /// index order.  Blocks until every index completed.  If any fn throws,
  /// the first exception (in completion order) is rethrown on the caller
  /// after all indices finished or were abandoned.
  void run_indexed(std::size_t count, int parallelism, IndexedFn fn);

 private:
  struct Job {
    IndexedFn fn;
    std::size_t count = 0;
    std::size_t next = 0;      ///< Next index to claim (under mutex_).
    std::size_t done = 0;      ///< Indices finished (under mutex_).
    std::exception_ptr error;  ///< First failure (under mutex_).
    bool active = false;
  };

  void worker_loop();
  /// Claim-and-run loop shared by workers and the caller.  Returns when the
  /// job has no indices left to claim.
  void drain_job(std::unique_lock<std::mutex>& lock);

  const int workers_;
  std::mutex submit_mutex_;  ///< Serializes top-level run_indexed callers.
  std::mutex mutex_;
  std::condition_variable wake_;  ///< Workers wait for a job or shutdown.
  std::condition_variable done_;  ///< Caller waits for job completion.
  Job job_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;  ///< Empty until the first fan-out.
};

}  // namespace simtmsg::util
