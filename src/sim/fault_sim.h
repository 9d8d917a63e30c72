// Fault-aware virtual time: one GPU's clock under a fault::FaultPlan, and
// the stage-level simulator built on it.
//
// VirtualGpu is the single implementation of the engine's fault semantics,
// used by the threaded engine's workers (runtime::execute_schedule) and by
// simulate_stages_faulty:
//   * per-GPU stages execute in listed order; a stage starts at the GPU's
//     clock or at the latest arrival of a remote dependency;
//   * fail-stop: a GPU dies before any stage starting at/after its fail
//     time (a stage that started earlier completes, including its sends);
//   * a GPU whose dependency can never arrive (producer died or a link's
//     retry budget exhausted) stops at that stage, and everything it would
//     have sent later is dead to its consumers;
//   * transfers are resolved with the plan's retry/backoff arithmetic and
//     every failed attempt is recorded as a kRetry timeline event;
//   * stragglers scale stage durations from their onset time.
// The two callers traverse the schedule independently — the engine by
// message passing between threads, the simulator in the stage DAG's
// topological order — and must report identical runs: makespan, executed
// ops, finish times, every timeline event and every observation. Tests
// assert that, which extends the repo's determinism guarantee to faulty
// runs.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cost/cost_model.h"
#include "fault/fault_plan.h"
#include "sched/schedule.h"
#include "sim/timeline.h"

namespace hios::sim {

/// Outcome of one simulated faulty run.
struct FaultyRun {
  Timeline timeline;                 ///< executed stages + transfers + retries
  bool complete = true;              ///< every op executed
  double makespan_ms = 0.0;          ///< max finish over executed stages
  std::vector<char> executed;        ///< per graph node
  std::vector<double> node_finish_ms;///< per graph node; -1 when not executed
  std::vector<fault::FaultObservation> observations;
};

/// One GPU's virtual clock under a FaultPlan, with its records (timeline
/// events, fault observations, executed ops). The caller walks the GPU's
/// stage list in order and, per stage, either stops the GPU (block or
/// fail_stop_before) or calls run_stage, then ran(v) for each op followed
/// by send() for v's cross-GPU out-edges. An empty plan takes the
/// fault-free paths: a stage lasts t(S), a transfer its modelled time.
class VirtualGpu {
 public:
  /// `g`, `cost` and `plan` must outlive *this.
  VirtualGpu(const graph::Graph& g, const cost::CostModel& cost, const fault::FaultPlan& plan,
             int gpu);

  /// Finish of the last stage run (0 before the first): the earliest start
  /// of the next stage. Stage times are non-negative, so every local
  /// producer, which ran in an earlier stage, finished by then.
  double clock() const { return clock_; }
  /// True once block() or fail_stop_before() stopped the GPU.
  bool stopped() const { return stopped_; }

  /// Stops the GPU at its next stage: the tensor of `producer` (on
  /// `producer_gpu`) will never arrive. Records a kBlocked observation.
  void block(graph::NodeId producer, int producer_gpu);

  /// True when the GPU fail-stops before stage `stage`, ready at `start`
  /// (start >= fail time): stops it and records a kFailStop observation.
  bool fail_stop_before(double start, int stage);

  /// Runs stage `stage` (`ops`) from `start` for t(S) times the straggler
  /// slowdown active at `start`; clock() becomes its finish.
  void run_stage(std::span<const graph::NodeId> ops, int stage, double start);

  /// Records op `v` of the stage just run as executed, with its compute event.
  void ran(graph::NodeId v);

  /// Sends graph edge `e`'s tensor, made by the stage just run, to `dst_gpu`
  /// at that stage's finish: records each failed attempt (kRetry), then
  /// either the transfer and returns its arrival, or a kTransferFailed
  /// observation and returns nullopt.
  std::optional<double> send(graph::EdgeId e, int dst_gpu);

  /// Folds the records of `gpus` (index = GPU id) into one run, GPU by GPU:
  /// GPU 0's events and observations first. Moves the records out.
  static FaultyRun collect(std::span<VirtualGpu> gpus, std::size_t num_nodes);

 private:
  const graph::Graph* g_;
  const cost::CostModel* cost_;
  const fault::FaultPlan* plan_;
  int gpu_;
  double fail_ms_;
  double clock_ = 0.0;
  bool stopped_ = false;
  int stage_ = -1;       ///< the stage just run; it started at start_
  double start_ = 0.0;
  std::vector<TimelineEvent> events_;
  std::vector<fault::FaultObservation> observations_;
  std::vector<std::pair<graph::NodeId, double>> ran_;  ///< executed op, finish
};

/// Stage-level fault-aware simulation of `schedule` under `plan`: one
/// VirtualGpu per GPU, driven over the stage DAG's topological order.
/// The schedule must be valid (throws otherwise, like the engine).
FaultyRun simulate_stages_faulty(const graph::Graph& g, const sched::Schedule& schedule,
                                 const cost::CostModel& cost,
                                 const fault::FaultPlan& plan);

}  // namespace hios::sim
