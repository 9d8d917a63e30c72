#include "span.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_on{false};
std::atomic<int64_t> g_next_id{0};
std::atomic<int> g_next_thread{0};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu

thread_local std::vector<int64_t> t_open;  // ids of the spans open on this thread
thread_local int t_thread = -1;

int thread_index() {
  if (t_thread < 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

}  // namespace

int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

void set_recording(bool on) { g_on.store(on); }
bool recording() { return g_on.load(std::memory_order_relaxed); }

int64_t next_span_id() { return g_next_id.load(); }

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.clear();
}

std::vector<SpanRecord> recorded_spans() {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    out = g_spans;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

Span::Span(const char* name) : name_(name) {
  if (name == nullptr || !recording()) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = t_open.empty() ? -1 : t_open.back();
  t_open.push_back(id_);
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ < 0) return;
  const int64_t end = now_ns();
  t_open.pop_back();
  SpanRecord r;
  r.name = name_;
  r.start_ns = start_ns_;
  r.end_ns = end;
  r.id = id_;
  r.parent = parent_;
  r.thread = thread_index();
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(r);
}

std::vector<int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of child intervals clipped to the parent's interval.
    int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, spans[i].start_ns);
      hi = std::min(hi, spans[i].end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld}}",
                 i == 0 ? "" : ",\n", s.name, s.thread, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
