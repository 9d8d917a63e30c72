// Virtual-GPU execution engine — the functional substitute for the paper's
// cuDNN + CUDA-aware-MPI engine (§VI-A).
//
// One worker thread per virtual GPU executes its stage list in order,
// computing real tensors with the CPU reference kernels. Cross-GPU tensor
// dependencies travel over per-edge blocking channels, exactly like the
// matched MPI send/recv pairs in the paper's engine. Time is *virtual*:
// each message carries the producing stage's finish time plus the modelled
// transfer time, and each worker advances a sim::VirtualGpu clock — the one
// implementation of stage timing under faults, which sim::simulate_stages_faulty
// drives too — using the cost model the scheduler optimised against. The
// result is deterministic regardless of thread interleaving and equal, event
// for event, to the stage-level simulator — while the tensors prove the
// schedule computes exactly what sequential execution computes.
//
// Hardened runtime: the engine is hang-proof. A worker that throws, dies to
// an injected fail-stop, or loses a dependency closes every channel it will
// never feed (as does a transfer whose retry budget runs out), so peers
// unblock with a structured observation instead of waiting forever; a
// wall-clock watchdog bounds every receive as a last line of defence. Fault
// injection (fault::FaultPlan) drives fail-stop / straggler / link faults
// deterministically in virtual time; transient transfer faults are retried
// with capped exponential backoff and every attempt is recorded in the
// Timeline.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "cost/cost_model.h"
#include "fault/fault_plan.h"
#include "ops/model.h"
#include "sched/schedule.h"
#include "sim/timeline.h"

namespace hios::runtime {

/// Thrown when the wall-clock watchdog expires on a blocking receive — the
/// runtime itself wedged, which the closed-channel protocol is supposed to
/// make impossible. Distinguished from plain hios::Error so serving-layer
/// liveness monitors (serve::Metrics) can count watchdog fires separately
/// from ordinary request failures.
class WatchdogError : public Error {
 public:
  using Error::Error;
};

/// Execution knobs beyond the schedule itself.
struct ExecOptions {
  /// Fault script to inject; nullptr = fault-free run.
  const fault::FaultPlan* faults = nullptr;

  /// Wall-clock watchdog on every blocking receive (<= 0 disables). This is
  /// real time, not virtual time: it only fires if the runtime itself is
  /// wedged, which the closed-channel protocol should make impossible.
  double watchdog_ms = 60000.0;

  /// When a fault leaves the run incomplete: false (default) throws a
  /// structured hios::Error; true returns the partial ExecutionResult so a
  /// failover layer can reschedule the residual work.
  bool allow_partial = false;

  /// Tensors of ops computed *before* this run (failover residual
  /// execution): a scheduled node whose op id appears here is not executed;
  /// its tensor is injected with readiness at virtual time 0.
  const std::map<ops::OpId, std::shared_ptr<const ops::Tensor>>* boundary = nullptr;
};

/// Result of one engine run.
struct ExecutionResult {
  double latency_ms = 0.0;                    ///< virtual-clock makespan of executed stages
  std::map<ops::OpId, ops::Tensor> outputs;   ///< tensors of graph sink ops
  sim::Timeline timeline;                     ///< per-stage compute + transfers (+ retries)

  // --- fault-run state (trivial on fault-free runs) --------------------
  bool complete = true;                       ///< every scheduled op executed
  std::vector<char> executed;                 ///< per graph node: ran to completion
  std::vector<double> node_finish_ms;         ///< per graph node; -1 when not executed
  std::vector<fault::FaultObservation> fault_events;
  /// Tensor of every executed op, keyed by model op id (populated only on
  /// fault-injected runs — failover feeds these back as boundary inputs).
  std::map<ops::OpId, std::shared_ptr<const ops::Tensor>> computed;
};

/// Executes `schedule` (over the profiled `graph`, whose node tags index
/// into `model`) with one thread per virtual GPU. `inputs` supplies a
/// tensor per model input (by op id); missing inputs are filled with
/// deterministic pseudo-random data.
/// Throws on invalid schedules (validated up front), on worker exceptions,
/// and — unless `options.allow_partial` — on fault-incomplete runs.
ExecutionResult execute_schedule(const ops::Model& model, const graph::Graph& graph,
                                 const sched::Schedule& schedule,
                                 const cost::CostModel& cost,
                                 const std::map<ops::OpId, ops::Tensor>& inputs = {},
                                 const ExecOptions& options = {});

/// Sequential reference execution of the whole model on one "GPU".
/// Returns every compute op's output tensor (keyed by op id).
std::map<ops::OpId, ops::Tensor> execute_reference(
    const ops::Model& model, const std::map<ops::OpId, ops::Tensor>& inputs = {});

/// Deterministic input tensor for a model input op (same everywhere).
ops::Tensor make_input_tensor(const ops::Model& model, ops::OpId input_id);

}  // namespace hios::runtime
