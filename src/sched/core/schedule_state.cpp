#include "sched/core/schedule_state.h"

#include <algorithm>

#include "sched/stage_dag.h"

namespace hios::sched {

ScheduleState::ScheduleState(const graph::CompiledGraph& cg, const cost::CostModel& cost)
    : cg_(cg), cost_(cost) {}

void ScheduleState::load(const Schedule& schedule) {
  HIOS_CHECK(schedule.num_gpus >= 1, "ScheduleState: schedule has no GPUs");
  // StageDag checks the input; its flat stage ids become the stable ids.
  const StageDag dag(cg_.graph(), schedule);
  num_gpus_ = schedule.num_gpus;
  stage_gpu_.clear();
  ops_.clear();
  alive_.clear();
  pos_of_.clear();
  gpu_list_.assign(static_cast<std::size_t>(num_gpus_), {});
  node_stage_ = dag.stage_of();
  pending_.reset();
  for (const StageDag::FlatStage& st : dag.stages()) {
    gpu_list_[static_cast<std::size_t>(st.gpu)].push_back(static_cast<int>(ops_.size()));
    stage_gpu_.push_back(st.gpu);
    ops_.emplace_back(st.ops.begin(), st.ops.end());
    alive_.push_back(1);
    pos_of_.push_back(st.index);
  }
  alive_count_ = ops_.size();

  const std::size_t cap = ops_.size();
  ready_.assign(cap, 0.0);
  start_.assign(cap, 0.0);
  finish_.assign(cap, 0.0);
  in_deg_.assign(cap, 0);
  next_on_gpu_.assign(cap, -1);
  mark_.assign(cap, 0);
  mark_gen_ = 0;
  frontier_.clear();
  frontier_.reserve(cap);
  on_path_.assign(cap, 0);

  const graph::Graph& g = cg_.graph();
  stage_time_.resize(cap);
  for (std::size_t sid = 0; sid < cap; ++sid) {
    stage_time_[sid] = cost_.stage_time_on(
        g, std::span<const graph::NodeId>(ops_[sid]), stage_gpu_[sid]);
  }
  edge_transfer_.assign(g.num_edges(), 0.0);
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.num_edges()); ++e) {
    const graph::Edge& edge = g.edge(e);
    const int su = node_stage_[static_cast<std::size_t>(edge.src)];
    const int sv = node_stage_[static_cast<std::size_t>(edge.dst)];
    edge_transfer_[static_cast<std::size_t>(e)] = cost_.transfer_time(
        g, e, stage_gpu_[static_cast<std::size_t>(su)], stage_gpu_[static_cast<std::size_t>(sv)]);
  }

  rebuild_reach();
  mark_critical_path();
}

void ScheduleState::rebuild_reach() {
  // Closure of the condensed data-dependency graph over the (initial)
  // stages, straight from node_stage_ and the CSR out-lists: a Kahn order
  // over stages (each cross-stage graph edge counted, repeats included),
  // then one reverse sweep reach[s] = U {t} u reach[t] over s's successors.
  const std::size_t num_stages = ops_.size();
  auto stage_of_dst = [&](graph::EdgeId e) {
    return node_stage_[static_cast<std::size_t>(cg_.graph().edge(e).dst)];
  };
  std::vector<int> indeg(num_stages, 0);
  for (const graph::Edge& e : cg_.graph().edges()) {
    const int sv = node_stage_[static_cast<std::size_t>(e.dst)];
    if (node_stage_[static_cast<std::size_t>(e.src)] != sv) ++indeg[static_cast<std::size_t>(sv)];
  }
  std::vector<int> order;
  order.reserve(num_stages);
  for (std::size_t s = 0; s < num_stages; ++s)
    if (indeg[s] == 0) order.push_back(static_cast<int>(s));
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int s = order[i];
    for (graph::NodeId v : ops_[static_cast<std::size_t>(s)])
      for (graph::EdgeId e : cg_.out_edges(v)) {
        const int t = stage_of_dst(e);
        if (t != s && --indeg[static_cast<std::size_t>(t)] == 0) order.push_back(t);
      }
  }

  reach_.assign(num_stages, DynBitset(num_stages));
  if (order.size() < num_stages) {
    // A cyclic condensed graph means the input schedule deadlocks (the
    // reference evaluator reports nullopt, and so does run_eval). Keep
    // load() total by marking every pair dependent: no merge is ever
    // independent on an infeasible schedule.
    for (auto& row : reach_)
      for (std::size_t s = 0; s < num_stages; ++s) row.set(s);
    return;
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    DynBitset& row = reach_[static_cast<std::size_t>(*it)];
    for (graph::NodeId v : ops_[static_cast<std::size_t>(*it)])
      for (graph::EdgeId e : cg_.out_edges(v)) {
        const int t = stage_of_dst(e);
        if (t == *it) continue;
        row.set(static_cast<std::size_t>(t));
        row |= reach_[static_cast<std::size_t>(t)];
      }
  }
}

void ScheduleState::apply_merge(int gpu, int pos, int extent) {
  HIOS_CHECK(!pending_.has_value(), "apply_merge: a merge is already pending");
  HIOS_CHECK(gpu >= 0 && gpu < num_gpus_, "apply_merge: bad gpu " << gpu);
  auto& list = gpu_list_[static_cast<std::size_t>(gpu)];
  HIOS_CHECK(pos >= 0 && extent >= 1 && static_cast<std::size_t>(pos + extent) < list.size(),
             "apply_merge: window [" << pos << ", " << pos + extent << "] out of range");

  PendingMerge p;
  p.gpu = gpu;
  p.pos = pos;
  p.rep = list[static_cast<std::size_t>(pos)];
  p.rep_ops_before = ops_[static_cast<std::size_t>(p.rep)].size();
  p.rep_time_before = stage_time_[static_cast<std::size_t>(p.rep)];
  p.removed.reserve(static_cast<std::size_t>(extent));
  for (int k = 1; k <= extent; ++k) p.removed.push_back(list[static_cast<std::size_t>(pos + k)]);

  auto& rep_ops = ops_[static_cast<std::size_t>(p.rep)];
  for (int sid : p.removed) {
    for (graph::NodeId v : ops_[static_cast<std::size_t>(sid)]) {
      node_stage_[static_cast<std::size_t>(v)] = p.rep;
      rep_ops.push_back(v);
    }
    alive_[static_cast<std::size_t>(sid)] = 0;
    pos_of_[static_cast<std::size_t>(sid)] = -1;
  }
  list.erase(list.begin() + pos + 1, list.begin() + pos + 1 + extent);
  for (std::size_t i = static_cast<std::size_t>(pos) + 1; i < list.size(); ++i)
    pos_of_[static_cast<std::size_t>(list[i])] = static_cast<int>(i);
  alive_count_ -= p.removed.size();
  stage_time_[static_cast<std::size_t>(p.rep)] = cost_.stage_time_on(
      cg_.graph(), std::span<const graph::NodeId>(rep_ops), gpu);
  pending_ = std::move(p);
}

void ScheduleState::undo_merge() {
  HIOS_CHECK(pending_.has_value(), "undo_merge: no pending merge");
  const PendingMerge& p = *pending_;
  ops_[static_cast<std::size_t>(p.rep)].resize(p.rep_ops_before);
  stage_time_[static_cast<std::size_t>(p.rep)] = p.rep_time_before;
  auto& list = gpu_list_[static_cast<std::size_t>(p.gpu)];
  list.insert(list.begin() + p.pos + 1, p.removed.begin(), p.removed.end());
  for (int sid : p.removed) {
    alive_[static_cast<std::size_t>(sid)] = 1;
    for (graph::NodeId v : ops_[static_cast<std::size_t>(sid)])
      node_stage_[static_cast<std::size_t>(v)] = sid;
  }
  for (std::size_t i = static_cast<std::size_t>(p.pos) + 1; i < list.size(); ++i)
    pos_of_[static_cast<std::size_t>(list[i])] = static_cast<int>(i);
  alive_count_ += p.removed.size();
  pending_.reset();
}

void ScheduleState::commit_merge() {
  HIOS_CHECK(pending_.has_value(), "commit_merge: no pending merge");
  const PendingMerge p = std::move(*pending_);
  pending_.reset();

  // Incremental transitive closure: merging pairwise-independent stages
  // {rep} + removed creates exactly the new paths x ->* merged ->* y where
  // x reached some member and some member reached y. U below is everything
  // any member reached; every stage that reached a member inherits U (and
  // the merged stage itself, addressed as rep).
  const std::size_t sz = reach_.size();
  HIOS_ASSERT(static_cast<std::size_t>(p.rep) < sz, "commit_merge: bad rep id");
  DynBitset U = reach_[static_cast<std::size_t>(p.rep)];
  for (int m : p.removed) {
    HIOS_ASSERT(!reach_[static_cast<std::size_t>(p.rep)].test(static_cast<std::size_t>(m)) &&
                    !reach_[static_cast<std::size_t>(m)].test(static_cast<std::size_t>(p.rep)),
                "commit_merge: merged stages were not independent");
    U |= reach_[static_cast<std::size_t>(m)];
  }
  for (std::size_t s = 0; s < sz; ++s) {
    if (!alive_[s] || static_cast<int>(s) == p.rep) continue;
    bool touches = reach_[s].test(static_cast<std::size_t>(p.rep));
    for (std::size_t k = 0; !touches && k < p.removed.size(); ++k)
      touches = reach_[s].test(static_cast<std::size_t>(p.removed[k]));
    if (touches) {
      reach_[s] |= U;
      reach_[s].set(static_cast<std::size_t>(p.rep));
    }
  }
  reach_[static_cast<std::size_t>(p.rep)] = std::move(U);
  // The last run_eval timed a candidate; re-time the committed state.
  mark_critical_path();
}

void ScheduleState::mark_critical_path() {
  std::ranges::fill(on_path_, 0);
  path_known_ = false;
  if (!run_eval()) return;  // deadlock: no path, prune nothing
  int s = -1;
  for (std::size_t sid = 0; sid < alive_.size() && s < 0; ++sid)
    if (alive_[sid] && finish_[sid] == latency_) s = static_cast<int>(sid);
  if (s < 0) return;  // no stages

  // Walk back from a last-finishing stage. run_eval set each start to
  // std::max over 0, the chain predecessor's finish and each data
  // predecessor's finish + transfer, and std::max returns one of its
  // operands, so some predecessor matches the start exactly unless it is 0.
  const graph::Graph& g = cg_.graph();
  for (;;) {
    const auto us = static_cast<std::size_t>(s);
    on_path_[us] = 1;
    const double start = start_[us];
    if (start == 0.0) break;
    int pred = -1;
    if (const int pos = pos_of_[us]; pos > 0) {
      const int chain = gpu_list_[static_cast<std::size_t>(stage_gpu_[us])]
                                 [static_cast<std::size_t>(pos - 1)];
      if (finish_[static_cast<std::size_t>(chain)] == start) pred = chain;
    }
    for (graph::NodeId v : ops_[us]) {
      for (graph::EdgeId e : cg_.in_edges(v)) {
        const int su = node_stage_[static_cast<std::size_t>(g.edge(e).src)];
        if (pred < 0 && su != s &&
            finish_[static_cast<std::size_t>(su)] + edge_transfer_[static_cast<std::size_t>(e)] ==
                start)
          pred = su;
      }
    }
    if (pred < 0) return;  // the walk failed: path_known_ stays false
    s = pred;
  }
  path_known_ = true;
}

bool ScheduleState::window_on_critical_path(int gpu, int pos, int extent) const {
  HIOS_ASSERT(!pending_.has_value(), "window_on_critical_path: a merge is pending");
  if (!path_known_) return true;
  const auto& list = gpu_list_[static_cast<std::size_t>(gpu)];
  for (int k = 0; k <= extent; ++k)
    if (on_path_[static_cast<std::size_t>(list[static_cast<std::size_t>(pos + k)])]) return true;
  return false;
}

bool ScheduleState::run_eval() {
  const graph::Graph& g = cg_.graph();

  // Per-GPU chains: the next alive stage on the same GPU.
  for (const auto& list : gpu_list_) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      next_on_gpu_[static_cast<std::size_t>(list[i])] =
          i + 1 < list.size() ? list[i + 1] : -1;
    }
  }

  // In-degrees: one for the chain predecessor plus one per distinct data
  // predecessor stage (deduped with a generation-marked scratch array).
  // The chain and a data edge between the same stage pair both count and
  // both get decremented below, so the bookkeeping stays consistent; the
  // resulting ready times equal the reference evaluator's because the
  // co-located transfer is 0.
  for (const auto& list : gpu_list_) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      const int sid = list[i];
      int deg = i > 0 ? 1 : 0;
      ++mark_gen_;
      for (graph::NodeId v : ops_[static_cast<std::size_t>(sid)]) {
        for (graph::EdgeId e : cg_.in_edges(v)) {
          const int su = node_stage_[static_cast<std::size_t>(g.edge(e).src)];
          if (su == sid) continue;
          if (mark_[static_cast<std::size_t>(su)] != mark_gen_) {
            mark_[static_cast<std::size_t>(su)] = mark_gen_;
            ++deg;
          }
        }
      }
      in_deg_[static_cast<std::size_t>(sid)] = deg;
      ready_[static_cast<std::size_t>(sid)] = 0.0;
    }
  }

  frontier_.clear();
  for (const auto& list : gpu_list_)
    for (int sid : list)
      if (in_deg_[static_cast<std::size_t>(sid)] == 0) frontier_.push_back(sid);

  std::size_t processed = 0;
  std::size_t head = 0;
  double latency = 0.0;
  while (head < frontier_.size()) {
    const int s = frontier_[head++];
    ++processed;
    const double t_start = ready_[static_cast<std::size_t>(s)];
    const double t_finish = t_start + stage_time_[static_cast<std::size_t>(s)];
    start_[static_cast<std::size_t>(s)] = t_start;
    finish_[static_cast<std::size_t>(s)] = t_finish;
    latency = std::max(latency, t_finish);

    const int chain = next_on_gpu_[static_cast<std::size_t>(s)];
    if (chain >= 0) {
      ready_[static_cast<std::size_t>(chain)] =
          std::max(ready_[static_cast<std::size_t>(chain)], t_finish);
      if (--in_deg_[static_cast<std::size_t>(chain)] == 0) frontier_.push_back(chain);
    }
    ++mark_gen_;
    for (graph::NodeId v : ops_[static_cast<std::size_t>(s)]) {
      for (graph::EdgeId e : cg_.out_edges(v)) {
        const int sv = node_stage_[static_cast<std::size_t>(g.edge(e).dst)];
        if (sv == s) continue;
        ready_[static_cast<std::size_t>(sv)] =
            std::max(ready_[static_cast<std::size_t>(sv)],
                     t_finish + edge_transfer_[static_cast<std::size_t>(e)]);
        if (mark_[static_cast<std::size_t>(sv)] != mark_gen_) {
          mark_[static_cast<std::size_t>(sv)] = mark_gen_;
          if (--in_deg_[static_cast<std::size_t>(sv)] == 0) frontier_.push_back(sv);
        }
      }
    }
  }
  latency_ = latency;
  return processed == alive_count_;
}

std::optional<double> ScheduleState::evaluate_latency() {
  if (!run_eval()) return std::nullopt;
  return latency_;
}

std::optional<Evaluation> ScheduleState::evaluate() {
  if (!run_eval()) return std::nullopt;
  Evaluation eval;
  eval.latency_ms = latency_;
  eval.stage_of.assign(cg_.num_nodes(), -1);
  eval.stages.reserve(alive_count_);
  for (int gpu = 0; gpu < num_gpus_; ++gpu) {
    const auto& list = gpu_list_[static_cast<std::size_t>(gpu)];
    for (std::size_t i = 0; i < list.size(); ++i) {
      const int sid = list[i];
      const int flat = static_cast<int>(eval.stages.size());
      for (graph::NodeId v : ops_[static_cast<std::size_t>(sid)])
        eval.stage_of[static_cast<std::size_t>(v)] = flat;
      eval.stages.push_back(StageTiming{gpu, static_cast<int>(i),
                                        start_[static_cast<std::size_t>(sid)],
                                        finish_[static_cast<std::size_t>(sid)]});
    }
  }
  return eval;
}

Schedule ScheduleState::extract() const {
  Schedule schedule(num_gpus_);
  for (int gpu = 0; gpu < num_gpus_; ++gpu) {
    auto& stages = schedule.gpus[static_cast<std::size_t>(gpu)];
    stages.reserve(gpu_list_[static_cast<std::size_t>(gpu)].size());
    for (int sid : gpu_list_[static_cast<std::size_t>(gpu)])
      stages.push_back(Stage{ops_[static_cast<std::size_t>(sid)]});
  }
  return schedule;
}

}  // namespace hios::sched
