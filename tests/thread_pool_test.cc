#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace gencompact {
namespace {

TEST(ThreadPoolTest, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  int ran = 0;
  pool.Post([&ran]() { ran = 7; });
  // No worker exists: the task already ran, on this thread, before Post
  // returned.
  EXPECT_EQ(ran, 7);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.Post([&completed]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ++completed;
      });
    }
    // Destructor runs here with most tasks still queued.
  }
  EXPECT_EQ(completed.load(), 16);
}

}  // namespace
}  // namespace gencompact
