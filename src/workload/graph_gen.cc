#include "workload/graph_gen.h"

#include <random>

#include "common/strings.h"

namespace chainsplit {

GraphData GenerateGraph(Database* db, std::string_view edge_pred_name,
                        const GraphOptions& options) {
  TermPool& pool = db->pool();
  PredId edge = db->program().InternPred(edge_pred_name, 2);
  std::mt19937_64 rng(options.seed);

  GraphData data;
  data.nodes.reserve(options.num_nodes);
  for (int i = 0; i < options.num_nodes; ++i) {
    data.nodes.push_back(pool.MakeSymbol(StrCat(options.node_prefix, i)));
  }
  std::uniform_int_distribution<int> node_dist(0, options.num_nodes - 1);
  for (int e = 0; e < options.num_edges; ++e) {
    int a = node_dist(rng);
    int b = node_dist(rng);
    if (a == b) b = (b + 1) % options.num_nodes;
    if (options.acyclic && a > b) std::swap(a, b);
    if (db->InsertFact(edge, {data.nodes[a], data.nodes[b]})) {
      ++data.num_edges;
    }
  }
  return data;
}

GraphData GenerateChainGraph(Database* db, std::string_view edge_pred_name,
                             int num_nodes, std::string_view node_prefix) {
  TermPool& pool = db->pool();
  PredId edge = db->program().InternPred(edge_pred_name, 2);
  GraphData data;
  for (int i = 0; i < num_nodes; ++i) {
    data.nodes.push_back(pool.MakeSymbol(StrCat(node_prefix, i)));
  }
  for (int i = 0; i + 1 < num_nodes; ++i) {
    if (db->InsertFact(edge, {data.nodes[i], data.nodes[i + 1]})) {
      ++data.num_edges;
    }
  }
  return data;
}

GraphData GenerateLayeredDag(Database* db, std::string_view edge_pred_name,
                             int layers, int width,
                             std::string_view node_prefix) {
  TermPool& pool = db->pool();
  PredId edge = db->program().InternPred(edge_pred_name, 2);
  GraphData data;
  for (int i = 0; i < 1 + layers * width; ++i) {
    data.nodes.push_back(pool.MakeSymbol(StrCat(node_prefix, i)));
  }
  auto link = [&](int from, int to) {
    if (db->InsertFact(edge, {data.nodes[from], data.nodes[to]})) {
      ++data.num_edges;
    }
  };
  for (int i = 0; i < width; ++i) link(0, 1 + i);
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      const int from = 1 + l * width + i;
      link(from, 1 + (l + 1) * width + i);
      link(from, 1 + (l + 1) * width + (i + 1) % width);
    }
  }
  return data;
}

}  // namespace chainsplit
