#ifndef GENCOMPACT_COMMON_THREAD_POOL_H_
#define GENCOMPACT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gencompact {

/// A fixed-size pool of worker threads draining one FIFO task queue — the
/// executor's scan offload: a source call's CPU-bound scan runs here while
/// the thread driving the event loop keeps serving other round trips, and
/// the task posts its result back to the loop itself.
///
/// A pool constructed with zero threads runs every task inline, so "no
/// pool" and "pool of 0" behave identically. The destructor stops intake,
/// drains every task already queued, and joins the workers.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Fire-and-forget enqueue; callers track completion themselves. With
  /// zero workers the task runs inline before Post returns.
  void Post(std::function<void()> task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace gencompact

#endif  // GENCOMPACT_COMMON_THREAD_POOL_H_
