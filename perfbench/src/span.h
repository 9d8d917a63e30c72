// In-memory span recorder for the traced benchmark run.
//
// A Span is an RAII timer around one call into a library layer. When
// recording is off (the untraced runs) constructing one costs a single
// branch. When on, each span keeps its name, start, end, thread and the
// span that was open on the same thread when it started (its parent).
// Spans stay in memory until the run ends; self_times() then gives each
// span's duration minus the part covered by its children, and
// write_chrome_trace() writes them as Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = -1;
  int64_t parent = -1;  ///< -1: no enclosing span on this thread
  int thread = 0;
};

/// Monotonic nanoseconds since an arbitrary process-wide origin.
int64_t now_ns();

void set_recording(bool on);
bool recording();
/// Id the next span will get; spans with ids >= it start after this call.
int64_t next_span_id();
/// Drops every recorded span.
void clear_spans();
/// Copy of every finished span, ordered by id.
std::vector<SpanRecord> recorded_spans();

class Span {
 public:
  /// A null `name` records nothing.
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  int64_t id_ = -1;
  int64_t parent_ = -1;
  int64_t start_ns_ = 0;
};

/// Self time (ns) of every span, indexed like `spans`: its duration minus
/// the union of its children's intervals.
std::vector<int64_t> self_times(const std::vector<SpanRecord>& spans);

/// Writes `spans` as Chrome trace-event JSON ("X" events, ts/dur in us).
/// Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench
