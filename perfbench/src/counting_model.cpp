#include "counting_model.h"

#include <algorithm>

#include "span.h"

namespace perfbench {

CountingModel::CountingModel(const hios::cost::CostModel& inner, const char* span_name,
                             bool track_distinct)
    : inner_(inner), span_name_(span_name), track_distinct_(track_distinct) {
  set_topology(inner.topology());
  set_speed_factors(inner.speed_factors());
}

double CountingModel::stage_time(const hios::graph::Graph& g,
                                 std::span<const hios::graph::NodeId> stage) const {
  const Span span(span_name_);
  calls_.fetch_add(1);
  if (!track_distinct_) return inner_.stage_time(g, stage);
  std::vector<hios::graph::NodeId> key(stage.begin(), stage.end());
  std::sort(key.begin(), key.end());
  {
    std::lock_guard<std::mutex> lock(mu_);
    seen_.insert(std::move(key));
  }
  return inner_.stage_time(g, stage);
}

int64_t CountingModel::distinct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(seen_.size());
}

}  // namespace perfbench
