#include "graph/longest_path.h"

#include <algorithm>
#include <numeric>

#include "graph/algorithms.h"

namespace hios::graph {

ValidPathFinder::ValidPathFinder(const Graph& g, std::span<const NodeId> topo_order)
    : n_(g.num_nodes()) {
  HIOS_CHECK(topo_order.size() == n_, "topo order size mismatch");
  const std::size_t m = g.num_edges();
  weight_.resize(n_);
  in_head_.assign(n_ + 1, 0);
  out_head_.assign(n_ + 1, 0);
  for (NodeId v = 0; v < static_cast<NodeId>(n_); ++v) {
    weight_[v] = g.node_weight(v);
    in_head_[v + 1] = in_head_[v] + static_cast<int32_t>(g.in_degree(v));
    out_head_[v + 1] = out_head_[v] + static_cast<int32_t>(g.out_degree(v));
  }
  in_src_.resize(m);
  in_w_.resize(m);
  out_dst_.resize(m);
  out_w_.resize(m);
  const std::vector<Edge>& edges = g.edges();
  for (NodeId v = 0; v < static_cast<NodeId>(n_); ++v) {
    int32_t s = in_head_[v];
    for (EdgeId e : g.in_edges(v)) {
      in_src_[s] = edges[e].src;
      in_w_[s++] = edges[e].weight;
    }
    s = out_head_[v];
    for (EdgeId e : g.out_edges(v)) {
      out_dst_[s] = edges[e].dst;
      out_w_[s++] = edges[e].weight;
    }
  }

  scheduled_.assign(n_, 0);
  dirty_.assign(n_, 0);
  head_bonus_.assign(n_, 0.0);
  tail_bonus_.assign(n_, 0.0);
  topo_live_.assign(topo_order.begin(), topo_order.end());
  id_live_.resize(n_);
  std::iota(id_live_.begin(), id_live_.end(), NodeId{0});
  full_.assign(n_, -1.0);
  ext_.assign(n_, -1.0);
  parent_.assign(n_, kInvalidNode);
}

void ValidPathFinder::mark_scheduled(NodeId v) {
  HIOS_CHECK(v >= 0 && static_cast<std::size_t>(v) < n_, "bad node id " << v);
  HIOS_ASSERT(!scheduled_[v], "node " << v << " is already scheduled");
  scheduled_[v] = 1;
  // Its unscheduled neighbours now touch a scheduled op: dirty, and the
  // connecting edge is a candidate boundary bonus. max() keeps the first of
  // equal weights, so the order of marking does not change any bonus.
  for (int32_t s = in_head_[v]; s < in_head_[v + 1]; ++s) {
    const NodeId u = in_src_[s];
    if (scheduled_[u]) continue;
    dirty_[u] = 1;
    tail_bonus_[u] = std::max(tail_bonus_[u], in_w_[s]);
  }
  for (int32_t s = out_head_[v]; s < out_head_[v + 1]; ++s) {
    const NodeId x = out_dst_[s];
    if (scheduled_[x]) continue;
    dirty_[x] = 1;
    head_bonus_[x] = std::max(head_bonus_[x], out_w_[s]);
  }
}

std::optional<ValidPath> ValidPathFinder::next() {
  // DP over the unscheduled ops in topological order, dropping the ops
  // scheduled since the last call from the list on the way:
  //   start(v) = chain {v} with v as first vertex (head bonus applies),
  //   full(v)  = best chain ending at v (v may be dirty = last vertex),
  //   ext(v)   = best chain ending at v that may still be extended:
  //              equal to full(v) when v is clean, start(v) when dirty
  //              (a dirty vertex can be extended only as the first vertex).
  // An unscheduled predecessor precedes v in the list, so its ext() is
  // always this call's.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < topo_live_.size(); ++i) {
    const NodeId v = topo_live_[i];
    if (scheduled_[v]) continue;
    topo_live_[kept++] = v;
    const double start_v = weight_[v] + head_bonus_[v];
    double best = start_v;
    NodeId best_parent = kInvalidNode;
    for (int32_t s = in_head_[v]; s < in_head_[v + 1]; ++s) {
      const NodeId u = in_src_[s];
      if (scheduled_[u] || ext_[u] < 0.0) continue;
      const double cand = ext_[u] + in_w_[s] + weight_[v];
      if (cand > best || (cand == best && best_parent != kInvalidNode && u < best_parent)) {
        best = cand;
        best_parent = u;
      }
    }
    full_[v] = best;
    parent_[v] = best_parent;
    ext_[v] = dirty_[v] ? start_v : best;
  }
  topo_live_.resize(kept);
  if (kept == 0) return std::nullopt;

  // Pick the best chain ending (tail bonus applies to the last vertex); the
  // first maximum in node-id order wins.
  NodeId best_end = kInvalidNode;
  double best_len = -1.0;
  kept = 0;
  for (std::size_t i = 0; i < id_live_.size(); ++i) {
    const NodeId v = id_live_[i];
    if (scheduled_[v]) continue;
    id_live_[kept++] = v;
    if (full_[v] < 0.0) continue;
    const double len = full_[v] + tail_bonus_[v];
    if (len > best_len) {
      best_len = len;
      best_end = v;
    }
  }
  id_live_.resize(kept);
  HIOS_ASSERT(best_end != kInvalidNode, "no unscheduled vertex found");

  ValidPath path;
  path.length = best_len;
  // Reconstruct: walk parents; a dirty predecessor was used via start() and
  // therefore begins the chain.
  NodeId cur = best_end;
  path.nodes.push_back(cur);
  while (parent_[cur] != kInvalidNode) {
    const NodeId prev = parent_[cur];
    path.nodes.push_back(prev);
    if (dirty_[prev]) break;  // ext(prev) == start(prev): chain starts here
    cur = prev;
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  for (NodeId v : path.nodes) mark_scheduled(v);
  return path;
}

std::optional<ValidPath> longest_valid_path(const Graph& g, const DynBitset& scheduled) {
  auto order_opt = topological_sort(g);
  HIOS_CHECK(order_opt.has_value(), "longest_valid_path: graph has a cycle");
  return longest_valid_path(g, scheduled, *order_opt);
}

std::optional<ValidPath> longest_valid_path(const Graph& g, const DynBitset& scheduled,
                                            const std::vector<NodeId>& topo_order) {
  HIOS_CHECK(scheduled.size() == g.num_nodes(), "scheduled mask size mismatch");
  ValidPathFinder finder(g, topo_order);
  for (std::size_t v = 0; v < scheduled.size(); ++v)
    if (scheduled.test(v)) finder.mark_scheduled(static_cast<NodeId>(v));
  return finder.next();
}

}  // namespace hios::graph
