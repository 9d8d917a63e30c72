#include "sched/core/list_state.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

namespace hios::sched {

namespace {

bool same_link(const cost::LinkClass& a, const cost::LinkClass& b) {
  return std::bit_cast<uint64_t>(a.bw_scale) == std::bit_cast<uint64_t>(b.bw_scale) &&
         std::bit_cast<uint64_t>(a.extra_latency_ms) ==
             std::bit_cast<uint64_t>(b.extra_latency_ms);
}

}  // namespace

ListScheduleState::ListScheduleState(const graph::CompiledGraph& cg, int num_gpus,
                                     const cost::CostModel& cost)
    : cg_(cg), num_gpus_(num_gpus), n_(cg.num_nodes()) {
  HIOS_CHECK(num_gpus_ > 0, "need at least one GPU");
  const graph::Graph& g = cg.graph();
  const auto& order = cg.priority_order();
  const auto m = static_cast<std::size_t>(num_gpus_);

  // Link classes, each with a representative (src, dst) GPU pair. A pair
  // joins the first class whose link is bit-identical (every cross pair on a
  // symmetric machine), so transfer_time agrees across a class bit for bit.
  const cost::Topology& topology = cost.topology();
  std::vector<std::pair<int, int>> reps = {{0, 0}};
  pair_class_.assign(m * m, 0);
  for (int a = 0; a < num_gpus_; ++a) {
    for (int b = 0; b < num_gpus_; ++b) {
      if (a == b) continue;
      std::size_t c = 1;
      while (c < reps.size() && !topology.empty() &&
             !same_link(topology.between(a, b), topology.between(reps[c].first, reps[c].second)))
        ++c;
      if (c == reps.size()) reps.emplace_back(a, b);
      pair_class_[static_cast<std::size_t>(a) * m + static_cast<std::size_t>(b)] =
          static_cast<int>(c);
    }
  }
  classes_ = reps.size();

  in_head_.resize(n_ + 1);
  in_head_[0] = 0;
  for (std::size_t i = 0; i < n_; ++i)
    in_head_[i + 1] = in_head_[i] + static_cast<int32_t>(cg.in_edges(order[i]).size());
  in_src_.resize(cg.num_edges());
  xfer_.resize(cg.num_edges() * classes_);
  node_time_.resize(n_ * m);
  for (std::size_t i = 0; i < n_; ++i) {
    const graph::NodeId v = order[i];
    auto s = static_cast<std::size_t>(in_head_[i]);
    for (graph::EdgeId e : cg.in_edges(v)) {
      in_src_[s] = g.edge(e).src;
      for (std::size_t c = 0; c < classes_; ++c)
        xfer_[s * classes_ + c] = cost.transfer_time(g, e, reps[c].first, reps[c].second);
      ++s;
    }
    for (int gpu = 0; gpu < num_gpus_; ++gpu)
      node_time_[i * m + static_cast<std::size_t>(gpu)] = cost.node_time(g, v, gpu);
  }

  mapping_.assign(n_, -1);
  start_.assign(n_, -1.0);
  finish_.assign(n_, -1.0);
  tails_.assign((n_ + 1) * m, 0.0);
  lat_prefix_.assign(n_ + 1, 0.0);
  cur_.assign(m, 0.0);
  dirty_from_ = n_;  // empty mapping: all rows are already the zero state
}

void ListScheduleState::set_gpu(graph::NodeId v, int gpu) {
  HIOS_CHECK(v >= 0 && static_cast<std::size_t>(v) < n_, "set_gpu: bad node " << v);
  HIOS_CHECK(gpu < num_gpus_, "set_gpu: mapping[" << v << "] = " << gpu << " out of range");
  mapping_[static_cast<std::size_t>(v)] = gpu;
  dirty_from_ = std::min(dirty_from_, static_cast<std::size_t>(cg_.rank(v)));
}

double ListScheduleState::latency() {
  if (dirty_from_ < n_) recompute();
  return lat_prefix_[n_];
}

void ListScheduleState::recompute() {
  const auto& order = cg_.priority_order();
  const auto m = static_cast<std::size_t>(num_gpus_);

  // Prefix state: row `dirty_from_` only depends on clean positions below.
  std::copy_n(tails_.begin() + static_cast<std::ptrdiff_t>(dirty_from_ * m), m, cur_.begin());

  for (std::size_t i = dirty_from_; i < n_; ++i) {
    const auto v = static_cast<std::size_t>(order[i]);
    const int gpu = mapping_[v];
    if (gpu < 0) {
      start_[v] = -1.0;
      finish_[v] = -1.0;
      lat_prefix_[i + 1] = lat_prefix_[i];
    } else {
      const auto dst = static_cast<std::size_t>(gpu);
      double t_start = cur_[dst];
      for (auto s = static_cast<std::size_t>(in_head_[i]);
           s < static_cast<std::size_t>(in_head_[i + 1]); ++s) {
        const auto u = static_cast<std::size_t>(in_src_[s]);
        const int pred_gpu = mapping_[u];
        if (pred_gpu < 0) continue;
        const auto link = static_cast<std::size_t>(
            pair_class_[static_cast<std::size_t>(pred_gpu) * m + dst]);
        const double arrival = finish_[u] + xfer_[s * classes_ + link];
        t_start = std::max(t_start, arrival);
      }
      const double t_finish = t_start + node_time_[i * m + dst];
      start_[v] = t_start;
      finish_[v] = t_finish;
      cur_[dst] = t_finish;
      lat_prefix_[i + 1] = std::max(lat_prefix_[i], t_finish);
    }
    std::copy_n(cur_.begin(), m, tails_.begin() + static_cast<std::ptrdiff_t>((i + 1) * m));
  }
  dirty_from_ = n_;
}

}  // namespace hios::sched
