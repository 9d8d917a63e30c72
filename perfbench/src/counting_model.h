// Thread-safe counting decorator for cost::CostModel.
//
// Wraps a cost model and counts every stage_time() call plus the distinct
// op sets queried (order-independent, i.e. Fig. 14's profiling count).
// The distinct-set table is guarded by a mutex, so the count is exact even
// when a scheduler's pool workers or a StageTimeCache miss path call in
// from several threads at once. When span recording is on, each call is
// also recorded as a span named `span_name` (null: no span). With
// `track_distinct` off only calls are counted, which keeps the decorator
// cheap on hot lookup paths.
//
// Like cost::StageTimeCache, the decorator copies the inner model's
// topology and speed factors so transfer_time / node_time answer exactly
// as the inner model would.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "cost/cost_model.h"

namespace perfbench {

class CountingModel final : public hios::cost::CostModel {
 public:
  explicit CountingModel(const hios::cost::CostModel& inner, const char* span_name = nullptr,
                         bool track_distinct = true);

  double stage_time(const hios::graph::Graph& g,
                    std::span<const hios::graph::NodeId> stage) const override;
  double demand(const hios::graph::Graph& g, hios::graph::NodeId v) const override {
    return inner_.demand(g, v);
  }

  /// stage_time() calls so far (every call, repeats included).
  int64_t calls() const { return calls_.load(); }
  /// Distinct op sets queried so far (0 when not tracked).
  int64_t distinct() const;

 private:
  const hios::cost::CostModel& inner_;
  const char* span_name_;
  bool track_distinct_;
  mutable std::atomic<int64_t> calls_{0};
  mutable std::mutex mu_;
  mutable std::set<std::vector<hios::graph::NodeId>> seen_;  ///< guarded by mu_
};

}  // namespace perfbench
