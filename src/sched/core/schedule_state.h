// Incremental schedule evaluation state — the scheduling core behind Alg. 2.
//
// The old parallelize() scored every merge candidate by deep-copying the
// whole Schedule, re-flattening it, re-deriving node -> stage indices,
// re-deduplicating the stage dependency DAG and re-querying every t(S);
// locating an op was an O(V * S) scan and the stage reachability matrix was
// rebuilt from scratch (O(E * S) with Graph::find_edge scans) after every
// accepted merge. ScheduleState keeps all of that as live, incrementally
// maintained state:
//
//   * stages get *stable ids* at load(); per-GPU order is a list of alive
//     ids, and node -> stage id / stage id -> position indexes make
//     locate() O(1);
//   * a merge candidate is scored with the apply -> evaluate -> undo | commit
//     protocol: apply_merge() splices the window's stages into the first
//     one in place (O(window ops + stages shifted)), evaluate() runs over
//     the maintained structure with zero allocation, undo_merge() restores
//     the previous state exactly, and commit_merge() makes it permanent;
//   * stage-to-stage reachability (the condensed graph of Alg. 2) is
//     maintained by an incremental transitive-closure update on commit
//     instead of an O(S^2)-ish rebuild — merging pairwise-independent
//     stages adds exactly the paths {x ->* s_i} x {s_j ->* y}, so
//     reach[s] |= U (U = union of the members' reach sets) for every s
//     reaching any member covers the new closure (see DESIGN.md §6d);
//   * one critical path of the committed state is marked at load() and at
//     every commit, so Alg. 2 can skip windows that cannot win.
//
// Evaluation is bit-identical to sched::evaluate_schedule (the retained
// reference implementation, over sched::StageDag): the
// timing recurrence uses only max and + over the same operands, so the
// result is independent of traversal order; the equivalence is enforced by
// the randomized property suite in tests/sched_core_test.cpp.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "cost/cost_model.h"
#include "graph/compiled_graph.h"
#include "sched/evaluate.h"
#include "sched/schedule.h"
#include "util/bitset.h"

namespace hios::sched {

class ScheduleState {
 public:
  /// Binds the state to a compiled graph and cost model (typically a
  /// cost::StageTimeCache). Both must outlive the state.
  ScheduleState(const graph::CompiledGraph& cg, const cost::CostModel& cost);

  /// Loads `schedule`, replacing any previous state. Throws, like
  /// evaluate_schedule, on empty stages, out-of-range ids, an op listed
  /// twice or an op missing from the schedule.
  void load(const Schedule& schedule);

  int num_gpus() const { return num_gpus_; }
  std::size_t num_stages_alive() const { return alive_count_; }

  // --- O(1) location --------------------------------------------------
  /// Stable stage id holding `v`.
  int stage_of(graph::NodeId v) const { return node_stage_[static_cast<std::size_t>(v)]; }
  int gpu_of_stage(int sid) const { return stage_gpu_[static_cast<std::size_t>(sid)]; }
  /// Current position of an alive stage in its GPU's stage list.
  int position_of(int sid) const { return pos_of_[static_cast<std::size_t>(sid)]; }
  std::span<const graph::NodeId> stage_ops(int sid) const {
    return ops_[static_cast<std::size_t>(sid)];
  }
  int stage_count(int gpu) const {
    return static_cast<int>(gpu_list_[static_cast<std::size_t>(gpu)].size());
  }
  /// Stable id of the stage at `pos` on `gpu`.
  int stage_at(int gpu, int pos) const {
    return gpu_list_[static_cast<std::size_t>(gpu)][static_cast<std::size_t>(pos)];
  }

  // --- evaluation -----------------------------------------------------
  /// Latency of the current state, or nullopt when the schedule deadlocks
  /// (cycle between data deps and per-GPU execution order). Allocation-free
  /// after load().
  std::optional<double> evaluate_latency();

  /// Full timing report, flattened GPU-major like evaluate_schedule.
  std::optional<Evaluation> evaluate();

  // --- merge protocol (Alg. 2 candidates) -----------------------------
  /// Merges the stages at positions [pos, pos + extent] on `gpu` into the
  /// stage at `pos`, in place. Exactly one merge may be pending at a time;
  /// follow with undo_merge() or commit_merge().
  void apply_merge(int gpu, int pos, int extent);
  /// Reverts the pending merge, restoring the pre-apply state exactly.
  void undo_merge();
  /// Makes the pending merge permanent and updates stage reachability
  /// incrementally. The merged stages must have been pairwise independent.
  void commit_merge();

  /// False only when a critical path of the committed state is known and
  /// no stage at positions [pos, pos + extent] on `gpu` lies on it: merging
  /// such a window leaves that path's timing intact, so the merged latency
  /// is >= the committed one, bit for bit (DESIGN.md §6d). load() and
  /// commit_merge() mark the path. Query before apply_merge().
  bool window_on_critical_path(int gpu, int pos, int extent) const;

  /// True when neither alive stage reaches the other through data edges
  /// (the condensed-graph independence test of Alg. 2). Ignores any
  /// pending merge: query before apply_merge().
  bool stages_independent(int a, int b) const {
    return a != b && !reach_[static_cast<std::size_t>(a)].test(static_cast<std::size_t>(b)) &&
           !reach_[static_cast<std::size_t>(b)].test(static_cast<std::size_t>(a));
  }

  /// Materialises the current state as a plain Schedule.
  Schedule extract() const;

 private:
  struct PendingMerge {
    int gpu = 0;
    int pos = 0;
    int rep = 0;                   ///< surviving stage id
    std::size_t rep_ops_before = 0;
    double rep_time_before = 0.0;
    std::vector<int> removed;      ///< merged-away stage ids, window order
  };

  void rebuild_reach();
  bool run_eval();  ///< fills start_/finish_/latency_; false on deadlock
  /// Evaluates the committed state and marks one critical path in on_path_.
  void mark_critical_path();

  const graph::CompiledGraph& cg_;
  const cost::CostModel& cost_;
  int num_gpus_ = 0;
  std::size_t alive_count_ = 0;

  std::vector<int> stage_gpu_;                   ///< stable id -> gpu
  std::vector<std::vector<graph::NodeId>> ops_;  ///< stable id -> member ops
  std::vector<char> alive_;
  std::vector<std::vector<int>> gpu_list_;       ///< gpu -> ordered alive ids
  std::vector<int> pos_of_;                      ///< stable id -> position (-1 dead)
  std::vector<int> node_stage_;                  ///< node -> stable id

  std::vector<DynBitset> reach_;                 ///< data-edge reachability, stable ids
  std::optional<PendingMerge> pending_;

  // Hoisted cost-model queries. GPU assignments never change between
  // load() and extract() (merges stay on their GPU), so each edge's
  // transfer time is a per-load constant; each stage's t(S) only changes
  // when it absorbs a merge window, maintained by apply/undo.
  std::vector<double> edge_transfer_;            ///< edge id -> transfer
  std::vector<double> stage_time_;               ///< stable id -> t(S) on its GPU

  // Evaluation scratch, sized at load(); reused allocation-free.
  std::vector<double> ready_, start_, finish_;
  std::vector<int> in_deg_, next_on_gpu_, frontier_;
  std::vector<int> mark_;
  int mark_gen_ = 0;
  double latency_ = 0.0;

  // One critical path of the committed state, by stable id; when the
  // backward walk fails (or the state deadlocks) path_known_ is false and
  // no window is pruned.
  std::vector<char> on_path_;
  bool path_known_ = false;
};

}  // namespace hios::sched
