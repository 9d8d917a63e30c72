// IOS-as-intra-GPU pass: the alternative Alg. 2 the paper argues against.
//
// §IV-B claims that running IOS inside each GPU is (a) unaffordably
// expensive and (b) suboptimal because the DP ignores cross-GPU
// dependencies when forming stages. This module implements exactly that
// design so the claim can be measured: given an inter-GPU mapping, each
// GPU's induced subgraph is re-partitioned into stages by the IOS DP
// (which sees only local dependencies), the per-GPU stage lists are
// spliced back together, and the whole schedule is evaluated globally.
// `bench_ablation_intra` compares it against Alg. 2's sliding window.
#pragma once

#include "cost/cost_model.h"
#include "sched/scheduler.h"

namespace hios::sched {

/// Re-partitions each GPU's ops into stages with the IOS DP, keeping the
/// GPU mapping of `schedule` fixed. Falls back to the input stages for a
/// GPU when the IOS result evaluates worse globally. The "hios-lp-iosintra"
/// scheduler runs this pass after the Alg. 1 placement.
ScheduleResult ios_intra_pass(const graph::Graph& g, const Schedule& schedule,
                              const cost::CostModel& cost, const SchedulerConfig& config);

}  // namespace hios::sched
