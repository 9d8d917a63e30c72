// Scheduler driver and factory.
//
// Every algorithm is a placement step followed by one finishing pass
// (sched/placement.h). The six the paper evaluates (§V-B), plus one
// ablation, are the rows of one table in scheduler_factory.cpp:
//   sequential        — one GPU, priority order, one op per stage; evaluate
//   ios               — IOS (Ding et al.): single-GPU DP with pruning; evaluate
//   hios-lp           — Alg. 1 (longest-path inter-GPU) + Alg. 2 (intra-GPU)
//   hios-mr           — Alg. 3 (mapping-recording inter-GPU) + Alg. 2
//   inter-lp          — Alg. 1, evaluated without Alg. 2 (ablation)
//   inter-mr          — Alg. 3, evaluated without Alg. 2 (ablation)
//   hios-lp-iosintra  — Alg. 1 + IOS per GPU instead of Alg. 2 (§IV-B
//                       ablation, sched/ios_intra.h; not one of the six)
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "sched/schedule.h"

namespace hios::sched {

/// Tunables shared by every algorithm.
struct SchedulerConfig {
  int num_gpus = 2;       ///< M (ignored by sequential and ios)
  int window = 2;         ///< w, max ops per merged stage in Alg. 2
  int max_streams = 8;    ///< L, CUDA streams per GPU (§III-A); caps any stage

  // IOS pruning (defaults keep 200-op graphs subsecond; raise for exactness)
  int ios_max_stage_ops = 3;  ///< max ops per stage candidate
  int ios_frontier_cap = 10;  ///< ready-set truncation (by priority)
  int ios_beam_width = 24;    ///< states kept per down-set size

  bool operator==(const SchedulerConfig&) const = default;
};

/// Output of one scheduling run.
struct ScheduleResult {
  Schedule schedule;
  double latency_ms = 0.0;     ///< evaluated latency under the cost model
  /// Wall-clock time of the whole schedule() call, measured from entry to
  /// return. Every scheduler searches on the calling thread alone, so the
  /// global pool's size changes neither the work done nor the result;
  /// scheduling_ms is the only field that varies between runs.
  double scheduling_ms = 0.0;
  std::string algorithm;
};

struct Algorithm;  // one row of the driver's table (scheduler_factory.cpp)

/// One named algorithm. schedule() times the whole call, compiles `g` once,
/// wraps `cost` in the run's stage-time cache, places, then finishes.
class Scheduler {
 public:
  std::string name() const;
  /// Produces a valid schedule of g. `cost` supplies t(S); t(v)/t(u,v)
  /// live on the graph itself.
  ScheduleResult schedule(const graph::Graph& g, const cost::CostModel& cost,
                          const SchedulerConfig& config) const;

 private:
  friend std::unique_ptr<Scheduler> make_scheduler(const std::string& name);
  explicit Scheduler(const Algorithm& algorithm) : algorithm_(&algorithm) {}
  const Algorithm* algorithm_;
};

/// Instantiates a scheduler by name (see list above). Throws on unknown.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

/// All registered algorithm names, in the paper's presentation order.
std::vector<std::string> scheduler_names();

}  // namespace hios::sched
