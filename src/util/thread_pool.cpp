#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hios::util {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = static_cast<int>(std::thread::hardware_concurrency());
  num_threads_ = std::clamp(num_threads, 1, kMaxThreads);  // hardware_concurrency() may be 0
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) const {
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::size_t first_failed = n;
  std::exception_ptr error;
  auto lane = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (i < first_failed) {
          first_failed = i;
          error = std::current_exception();
        }
      }
    }
  };

  const std::size_t lanes = std::min(n, static_cast<std::size_t>(num_threads_));
  std::vector<std::thread> threads;
  threads.reserve(lanes > 0 ? lanes - 1 : 0);
  for (std::size_t t = 1; t < lanes; ++t) {
    try {
      threads.emplace_back(lane);
    } catch (const std::exception&) {
      break;  // no thread to spare: the lanes already started take the rest
    }
  }
  lane();
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

void set_global_threads(int num_threads) { global_pool() = ThreadPool(num_threads); }

ScopedThreads::ScopedThreads(int num_threads) : previous_(global_pool().num_threads()) {
  set_global_threads(num_threads);
}

ScopedThreads::~ScopedThreads() { set_global_threads(previous_); }

}  // namespace hios::util
