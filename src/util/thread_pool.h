// Fork-join parallel_for over a lane count, for independent jobs: the
// cold plan builds of serve::PlanPool::prewarm (each one single-threaded
// schedule() call, DESIGN.md §6g) and Server::run_trace's engine batch.
// A ThreadPool owns no thread. Each parallel_for starts min(n, lanes) - 1
// std::threads, runs the last lane on the caller and joins them all before
// it returns; a nested call starts threads of its own. Lanes take indices
// from one atomic counter, so jobs write to per-index slots. Every index
// runs once even when some throw, and the lowest failing index's exception
// is rethrown: the one a sequential loop would have hit first.
// num_threads(): the constructor argument when > 0, else
// hardware_concurrency(), clamped to [1, kMaxThreads].
#pragma once

#include <cstddef>
#include <functional>

namespace hios::util {

class ThreadPool {
 public:
  static constexpr int kMaxThreads = 256;

  explicit ThreadPool(int num_threads = 0);

  int num_threads() const { return num_threads_; }
  /// fn(i) for every i in [0, n); see the file comment.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) const;

 private:
  int num_threads_ = 1;
};

/// The lane count PlanPool::prewarm uses. It, set_global_threads and
/// ScopedThreads stay only while perfbench/ compiles against them.
ThreadPool& global_pool();

/// Sets the global lane count (<= 0: hardware_concurrency()); not while a
/// parallel_for on it runs.
void set_global_threads(int num_threads);

/// RAII override of the global lane count: sets it on construction and
/// restores the previous one on destruction.
class ScopedThreads {
 public:
  explicit ScopedThreads(int num_threads);
  ~ScopedThreads();
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int previous_;
};

}  // namespace hios::util
