// The condensed stage DAG of a schedule and the §III-A timing pass over it.
//
// evaluate_schedule, validate_schedule's deadlock check, sim::simulate_ops
// and sim::simulate_pipeline are built on two pieces:
//   * StageDag flattens a schedule GPU-major, maps nodes to stages, checks
//     the input, and condenses the per-GPU execution order plus the graph's
//     data edges into one deduplicated successor list per stage, with a
//     Kahn order (nullopt when the two together form a cycle).
//   * time_stages runs the latency recurrence over that order: a stage
//     starts once its GPU is released and every predecessor has finished
//     (+ the transfer on the connecting edge), and runs for its duration.
// The incremental evaluator behind the schedulers' merge scan
// (sched::ScheduleState) takes its input checks and stable stage ids from
// StageDag but keeps its own pass over live, mutable stages.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "cost/cost_model.h"
#include "sched/schedule.h"

namespace hios::sched {

class StageDag {
 public:
  /// One stage, flattened. `ops` views the schedule's op list, so the
  /// schedule must outlive the DAG.
  struct FlatStage {
    int gpu = 0;
    int index = 0;  ///< position in the GPU's stage list
    std::span<const graph::NodeId> ops;
  };

  /// Throws hios::Error when `schedule.gpus` does not hold num_gpus lists,
  /// on an empty stage, a node id outside [0, n), a node in two stages or a
  /// node missing from the schedule.
  StageDag(const graph::Graph& g, const Schedule& schedule);

  /// Stages in flat, GPU-major order: GPU 0's list, then GPU 1's, ...
  std::span<const FlatStage> stages() const { return stages_; }
  std::size_t num_stages() const { return stages_.size(); }
  /// node -> flat stage index.
  const std::vector<int>& stage_of() const { return stage_of_; }

  /// The DAG edges leaving stage `s` are the ids [edge_begin(s),
  /// edge_begin(s + 1)): the per-GPU chain edge first, then data edges in
  /// the order of their first graph edge. Edge `k` ends at edge_dst(k).
  int edge_begin(int s) const { return edge_begin_[static_cast<std::size_t>(s)]; }
  int edge_dst(int k) const { return edge_dst_[static_cast<std::size_t>(k)]; }

  /// Stages in Kahn order (frontier seeded in flat order), or nullopt when
  /// the schedule deadlocks. An empty schedule has an empty order.
  const std::optional<std::vector<int>>& order() const { return order_; }

  /// t(S) of every stage on its GPU, indexed by flat stage: one query per
  /// stage, made in Kahn order (a counting cost model sums them in that
  /// order). Requires order().
  std::vector<double> stage_times(const graph::Graph& g, const cost::CostModel& cost) const;

  /// Transfer time of every DAG edge: 0 on a chain edge, otherwise the worst
  /// transfer of the graph edges it condenses (one query per graph edge
  /// whose ends sit in different stages).
  std::vector<double> transfer_times(const graph::Graph& g, const cost::CostModel& cost) const;

 private:
  std::vector<FlatStage> stages_;
  std::vector<int> stage_of_;
  std::vector<int> edge_begin_;  ///< CSR offsets, size num_stages() + 1
  std::vector<int> edge_dst_;
  std::vector<int> dag_edge_of_;  ///< graph edge -> DAG edge, -1 inside a stage
  std::optional<std::vector<int>> order_;
};

/// Start/finish (ms) of every flat stage and the latest finish.
struct StageTimes {
  std::vector<double> start;
  std::vector<double> finish;
  double latency_ms = 0.0;
};

/// Runs the timing recurrence over `dag.order()`, which must exist.
/// `duration` is per flat stage, `transfer` per DAG edge, and `release`
/// per GPU: no stage on that GPU starts earlier (empty means all zero).
StageTimes time_stages(const StageDag& dag, std::span<const double> duration,
                       std::span<const double> transfer, std::span<const double> release = {});

}  // namespace hios::sched
