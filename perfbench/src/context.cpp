#include "context.h"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "workload.h"

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // larger parent (the Python launcher) would mask this process's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

int online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

namespace {

// Fixed floating-point busy work; the result feeds a sink so it is kept.
double spin(int64_t iterations) {
  double x = 1.0;
  for (int64_t i = 0; i < iterations; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

}  // namespace

double effective_cores(int threads) {
  constexpr int64_t kWork = 20'000'000;
  std::atomic<double> sink{0.0};
  auto timed = [&](int n) {
    const double t0 = wall_s();
    std::vector<std::thread> pool;
    for (int i = 0; i < n; ++i) pool.emplace_back([&] { sink.store(spin(kWork)); });
    for (auto& t : pool) t.join();
    return wall_s() - t0;
  };
  const double one = timed(1);
  const double many = timed(threads);
  return many > 0.0 ? static_cast<double>(threads) * one / many : 0.0;
}

}  // namespace perfbench
