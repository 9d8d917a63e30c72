// Longest *valid* path extraction for HIOS-LP (Alg. 1 line 5).
//
// A valid path is a chain of unscheduled vertices v_1 -> ... -> v_k (each
// consecutive pair joined by an edge of G) such that every *intermediate*
// vertex v_2..v_{k-1} has no edge from/to any already-scheduled vertex.
// The path length counts:
//   * node weights t(v_i) for every vertex on the chain,
//   * edge weights t(v_i, v_{i+1}) along the chain (worst case: adjacent
//     operators may land on different GPUs before mapping is decided),
//   * a head bonus: the heaviest edge from a scheduled vertex into v_1
//     (if any), and symmetrically a tail bonus out of v_k — this is how the
//     paper's example includes boundary edges e2/e6 in path P2.
//
// The paper finds this path in O(V^2 E). ValidPathFinder does it with one DP
// pass over the *unscheduled* ops in topological order (see DESIGN.md §6d):
// it keeps those ops in two compact lists (topological and node-id order)
// that shrink as paths are committed, and maintains the dirty flags and the
// head/tail bonuses incrementally, touching only the in- and out-neighbours
// of each committed op. An extraction therefore costs O(U + E_U) for the U
// still-unscheduled ops and their in-edges, and committing an op O(deg);
// HIOS-LP's whole loop is O(sum of U over its paths + V + E).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/bitset.h"

namespace hios::graph {

/// A valid path and its weighted length.
struct ValidPath {
  std::vector<NodeId> nodes;  ///< chain in dependency order
  double length = 0.0;        ///< node + chain-edge weights + boundary bonuses
};

/// Stateful longest-valid-path extraction over one graph: each next() takes
/// the longest valid path among the unscheduled ops and marks it scheduled.
/// Deterministic: ties are broken toward the smaller ending-node id, then
/// smaller predecessor ids.
class ValidPathFinder {
 public:
  /// Starts with every op unscheduled. `topo_order` must be a topological
  /// order of `g` (e.g. CompiledGraph::topo_order()); `g` must outlive
  /// *this and must not change while it is alive.
  ValidPathFinder(const Graph& g, std::span<const NodeId> topo_order);

  /// Marks `v` scheduled (the set G - G'). `v` must not be scheduled yet.
  void mark_scheduled(NodeId v);

  /// Extracts the longest valid path and marks its ops scheduled. Returns
  /// nullopt when every op is scheduled.
  std::optional<ValidPath> next();

 private:
  std::size_t n_;
  std::vector<double> weight_;             ///< t(v)
  std::vector<int32_t> in_head_, out_head_;  ///< CSR offsets, size n + 1
  std::vector<NodeId> in_src_, out_dst_;   ///< edge endpoint per CSR slot
  std::vector<double> in_w_, out_w_;       ///< edge weight per CSR slot

  std::vector<char> scheduled_;
  std::vector<char> dirty_;  ///< touches a scheduled op: only a chain's end
  std::vector<double> head_bonus_, tail_bonus_;
  std::vector<NodeId> topo_live_, id_live_;  ///< unscheduled ops, compacted lazily
  std::vector<double> full_, ext_;           ///< DP values, valid for live ops
  std::vector<NodeId> parent_;
};

/// Finds the longest valid path among unscheduled vertices.
/// `scheduled` marks vertices already mapped to a GPU (the set G - G').
/// Returns nullopt when every vertex is scheduled. One-shot wrapper over
/// ValidPathFinder (same tie-breaks).
std::optional<ValidPath> longest_valid_path(const Graph& g, const DynBitset& scheduled);

/// Same extraction against a caller-supplied topological order of `g`
/// (e.g. graph::CompiledGraph::topo_order()), which skips the topological
/// sort. Callers extracting many paths from one graph should keep one
/// ValidPathFinder instead.
std::optional<ValidPath> longest_valid_path(const Graph& g, const DynBitset& scheduled,
                                            const std::vector<NodeId>& topo_order);

}  // namespace hios::graph
