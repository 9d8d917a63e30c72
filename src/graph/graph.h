// Weighted DAG used as the computation graph of a DL model (§III-A).
//
// Each node is an operator with weight t(v) = execution time when running
// alone on one GPU (milliseconds). Each edge is a tensor dependency with
// weight t(u,v) = transfer time when u and v land on different GPUs.
// The graph is append-only: nodes/edges are created once and addressed by
// dense integer ids, which every other module uses as array indices.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.h"

namespace hios::graph {

using NodeId = int32_t;
using EdgeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// A tensor dependency u -> v with transfer-time weight (ms).
struct Edge {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double weight = 0.0;
};

/// Append-only weighted digraph. Weights: node = t(v), edge = t(u,v).
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  /// Adds a node; `tag` is an opaque payload (e.g. index into an op list).
  NodeId add_node(std::string name, double weight = 0.0, int64_t tag = -1);

  /// Adds an edge u -> v. Self-loops and duplicate edges are rejected.
  EdgeId add_edge(NodeId u, NodeId v, double weight = 0.0);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::size_t num_nodes() const { return node_names_.size(); }
  std::size_t num_edges() const { return edges_.size(); }

  const std::string& node_name(NodeId v) const { check_node(v); return node_names_[v]; }
  double node_weight(NodeId v) const { check_node(v); return node_weights_[v]; }
  void set_node_weight(NodeId v, double w) { check_node(v); node_weights_[v] = w; }
  int64_t node_tag(NodeId v) const { check_node(v); return node_tags_[v]; }

  const Edge& edge(EdgeId e) const {
    HIOS_CHECK(e >= 0 && static_cast<std::size_t>(e) < edges_.size(), "bad edge id " << e);
    return edges_[e];
  }
  void set_edge_weight(EdgeId e, double w) {
    HIOS_CHECK(e >= 0 && static_cast<std::size_t>(e) < edges_.size(), "bad edge id " << e);
    edges_[e].weight = w;
  }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Edge ids leaving / entering a node.
  std::span<const EdgeId> out_edges(NodeId v) const { check_node(v); return out_[v]; }
  std::span<const EdgeId> in_edges(NodeId v) const { check_node(v); return in_[v]; }

  std::size_t out_degree(NodeId v) const { check_node(v); return out_[v].size(); }
  std::size_t in_degree(NodeId v) const { check_node(v); return in_[v].size(); }

  /// Returns the edge id of u -> v or -1 when absent. Linear in
  /// out_degree(u); used at graph-build time, not on scheduling hot paths.
  EdgeId find_edge(NodeId u, NodeId v) const;

  /// Nodes with no incoming / outgoing edges.
  std::vector<NodeId> sources() const;
  std::vector<NodeId> sinks() const;

  /// Sum of all node weights (= sequential latency on one GPU).
  double total_node_weight() const;

 private:
  void check_node(NodeId v) const {
    HIOS_CHECK(v >= 0 && static_cast<std::size_t>(v) < node_names_.size(),
               "bad node id " << v);
  }

  std::string name_;
  std::vector<std::string> node_names_;
  std::vector<double> node_weights_;
  std::vector<int64_t> node_tags_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

}  // namespace hios::graph
