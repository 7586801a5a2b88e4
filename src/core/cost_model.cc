#include "core/cost_model.h"

#include <algorithm>
#include <cmath>

namespace chainsplit {

double EstimateJoinExpansion(const RelationStats& stats,
                             const std::string& adornment) {
  if (stats.cardinality == 0) return 0.0;
  double denom = 1.0;
  for (size_t c = 0; c < adornment.size(); ++c) {
    if (adornment[c] == 'b' && c < stats.distinct.size() &&
        stats.distinct[c] > 0) {
      denom *= static_cast<double>(stats.distinct[c]);
    }
  }
  return static_cast<double>(stats.cardinality) / denom;
}

CardinalityEstimator StatsEstimator(EvalDb* db) {
  return [db](PredId pred, const std::string& adornment) {
    return EstimateJoinExpansion(db->Stats(pred), adornment);
  };
}

LinkageStrength ClassifyLinkage(double expansion_ratio,
                                const CostModelOptions& options) {
  if (expansion_ratio <= options.follow_threshold) {
    return LinkageStrength::kStrong;
  }
  if (expansion_ratio >= options.split_threshold) {
    return LinkageStrength::kWeak;
  }
  return LinkageStrength::kBorderline;
}

bool QuantitativeFollowWins(double expansion_ratio, double bound_bindings,
                            const CostModelOptions& options) {
  // Following propagates `bound_bindings * er` tuples into every
  // subsequent iteration of the chain; splitting keeps the iterated
  // relation at `bound_bindings` tuples and pays one extra join of the
  // two sub-chain answer sets, of estimated size
  // `bound_bindings + er` per binding. With the iteration count unknown
  // at planning time, we compare one iteration's intermediate sizes —
  // the same simplification a System-R-style estimator would make
  // without a depth estimate.
  double follow_cost = bound_bindings * std::max(expansion_ratio, 1.0);
  double split_cost = bound_bindings + expansion_ratio;
  (void)options;
  return follow_cost <= split_cost;
}

PropagationGate MakeCostGate(EvalDb* db, const CostModelOptions& options) {
  return [db, options](const Atom& literal,
                       const std::string& adornment) -> bool {
    // A literal with no bound argument contributes no selective
    // bindings: never treat its scan output as bindings worth chasing.
    if (adornment.find('b') == std::string::npos) return false;
    const RelationStats& stats = db->Stats(literal.pred);
    if (stats.cardinality == 0) return true;  // nothing to expand
    double er = EstimateJoinExpansion(stats, adornment);
    switch (ClassifyLinkage(er, options)) {
      case LinkageStrength::kStrong:
        return true;
      case LinkageStrength::kWeak:
        return false;
      case LinkageStrength::kBorderline:
        // One arriving binding per magic tuple is the neutral estimate.
        return QuantitativeFollowWins(er, /*bound_bindings=*/1.0, options);
    }
    return true;
  };
}

}  // namespace chainsplit
