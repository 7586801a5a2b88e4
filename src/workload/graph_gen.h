#ifndef CHAINSPLIT_WORKLOAD_GRAPH_GEN_H_
#define CHAINSPLIT_WORKLOAD_GRAPH_GEN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "rel/catalog.h"

namespace chainsplit {

/// Random digraph generator for the transitive-closure and
/// merged-chain experiments (E8) and for cyclic-data tests.
struct GraphOptions {
  int num_nodes = 100;
  int num_edges = 300;
  /// When true, edges only go from lower to higher node index (DAG).
  bool acyclic = false;
  uint64_t seed = 17;
  /// Prefix for node symbols ("n" -> n0, n1, ...). Distinct prefixes
  /// keep two graphs' node sets disjoint in one database.
  std::string_view node_prefix = "n";
};

struct GraphData {
  std::vector<TermId> nodes;
  int64_t num_edges = 0;
};

/// Populates relation `edge_pred_name`(From, To) in `*db`.
GraphData GenerateGraph(Database* db, std::string_view edge_pred_name,
                        const GraphOptions& options);

/// A simple directed chain 0 -> 1 -> ... -> n-1 (worst-case TC depth).
GraphData GenerateChainGraph(Database* db, std::string_view edge_pred_name,
                             int num_nodes, std::string_view node_prefix);

/// A layered DAG (the shape of a deep transitive-closure query):
/// nodes[0] links to the `width` nodes of layer 0, and node i of layer
/// l to nodes i and i+1 (mod width) of layer l+1, for `layers` layers.
/// Layer l's node i is nodes[1 + l * width + i].
GraphData GenerateLayeredDag(Database* db, std::string_view edge_pred_name,
                             int layers, int width,
                             std::string_view node_prefix);

}  // namespace chainsplit

#endif  // CHAINSPLIT_WORKLOAD_GRAPH_GEN_H_
