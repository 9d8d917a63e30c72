// Incremental list scheduling — HIOS-LP's inner-loop objective (Alg. 1).
//
// HIOS-LP scores a path-on-GPU candidate by list-scheduling *all* mapped
// operators; the old code re-ran the full O(V + E) pass (and allocated a
// fresh Schedule) for every candidate GPU of every path. The pass is a
// strict left-to-right recurrence over the fixed priority order, so when
// only the mapping of some nodes changes, everything before the earliest
// changed position is unchanged. ListScheduleState checkpoints the per-GPU
// tails and the running latency after every position and, on query,
// recomputes only the suffix from the earliest dirty rank.
//
// The recurrence reads no CostModel: at construction it fills per-rank
// tables of each in-edge's source, its transfer time per link class (GPU
// pairs whose transfers cost the same; the same GPU is the class costing
// 0) and node_time per (op, GPU), straight from the model. The
// recomputation therefore executes the exact instruction sequence of
// sched::list_schedule on the values the model returns, from identical
// prefix state, so latencies are bit-identical to the from-scratch pass
// (property-tested in tests/sched_core_test.cpp).
#pragma once

#include <vector>

#include "cost/cost_model.h"
#include "graph/compiled_graph.h"

namespace hios::sched {

class ListScheduleState {
 public:
  /// Starts with every node unmapped. `cg` must outlive *this; `cost` is
  /// only read here. Throws when the model's topology covers fewer than
  /// `num_gpus` GPUs.
  ListScheduleState(const graph::CompiledGraph& cg, int num_gpus,
                    const cost::CostModel& cost);

  /// Assigns `v` to `gpu` (-1 unmaps). O(1): marks the suffix from v's
  /// priority rank dirty.
  void set_gpu(graph::NodeId v, int gpu);

  /// Latency of the list schedule of all currently mapped nodes.
  /// Recomputes the dirty suffix only.
  double latency();

  const std::vector<int>& mapping() const { return mapping_; }

  /// Start/finish of a mapped node under the current mapping (-1 when
  /// unmapped). Valid after latency().
  double start(graph::NodeId v) const { return start_[static_cast<std::size_t>(v)]; }
  double finish(graph::NodeId v) const { return finish_[static_cast<std::size_t>(v)]; }

 private:
  void recompute();

  const graph::CompiledGraph& cg_;
  int num_gpus_;
  std::size_t n_;

  // Cost tables, by priority rank. In-edges of the op at rank i occupy
  // slots [in_head_[i], in_head_[i + 1]).
  std::vector<int32_t> in_head_;     ///< n + 1 slot offsets
  std::vector<graph::NodeId> in_src_;  ///< per slot: the edge's source
  std::size_t classes_ = 1;          ///< distinct link classes, incl. same GPU
  std::vector<int> pair_class_;      ///< m x m: class of (src GPU, dst GPU)
  std::vector<double> xfer_;         ///< slots x classes_ transfer times
  std::vector<double> node_time_;    ///< n x m: t(v) of the op at each rank

  std::vector<int> mapping_;          ///< node -> gpu (-1 unmapped)
  std::vector<double> start_, finish_;
  std::vector<double> tails_;         ///< (n + 1) x m checkpoints, row-major
  std::vector<double> lat_prefix_;    ///< running latency after each position
  std::vector<double> cur_;           ///< scratch row
  std::size_t dirty_from_ = 0;        ///< first priority rank needing recompute
};

}  // namespace hios::sched
