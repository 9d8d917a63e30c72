#include "graph/graph_json.h"

#include <limits>

namespace hios::graph {

namespace {

/// Reads edges[index].field as a NodeId, rejecting values the cast would wrap.
NodeId node_id_field(const Json& edge, std::size_t index, const char* field) {
  const int64_t id = edge.at(field).as_int();
  HIOS_CHECK(id >= 0 && id <= std::numeric_limits<NodeId>::max(),
             "graph JSON: edges[" << index << "]." << field << " = " << id
                                  << " is not a node id");
  return static_cast<NodeId>(id);
}

}  // namespace

Json to_json(const Graph& g) {
  Json root = Json::object();
  root["name"] = g.name();
  Json nodes = Json::array();
  for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
    Json node = Json::object();
    node["name"] = g.node_name(v);
    node["weight"] = g.node_weight(v);
    node["tag"] = g.node_tag(v);
    nodes.push_back(std::move(node));
  }
  root["nodes"] = std::move(nodes);
  Json edges = Json::array();
  for (const Edge& e : g.edges()) {
    Json edge = Json::object();
    edge["src"] = static_cast<int64_t>(e.src);
    edge["dst"] = static_cast<int64_t>(e.dst);
    edge["weight"] = e.weight;
    edges.push_back(std::move(edge));
  }
  root["edges"] = std::move(edges);
  return root;
}

Graph from_json(const Json& json) {
  Graph g(json.at("name").as_string());
  for (const Json& node : json.at("nodes").as_array()) {
    g.add_node(node.at("name").as_string(), node.at("weight").as_number(),
               node.at("tag").as_int());
  }
  const auto& edges = json.at("edges").as_array();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    g.add_edge(node_id_field(edges[i], i, "src"), node_id_field(edges[i], i, "dst"),
               edges[i].at("weight").as_number());
  }
  return g;
}

}  // namespace hios::graph
