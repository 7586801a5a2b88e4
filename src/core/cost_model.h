#ifndef CHAINSPLIT_CORE_COST_MODEL_H_
#define CHAINSPLIT_CORE_COST_MODEL_H_

#include <string>

#include "engine/adornment.h"
#include "engine/grounder.h"
#include "rel/catalog.h"

namespace chainsplit {

/// Thresholds of the efficiency-based chain-split decision (Algorithm
/// 3.1). Below `follow_threshold` the linkage is *strong*: bindings are
/// propagated through it (chain-following). Above `split_threshold` it
/// is *weak*: propagation is cut (chain-split). In between, a
/// quantitative comparison of the two plans decides.
struct CostModelOptions {
  double follow_threshold = 2.0;
  double split_threshold = 8.0;
};

/// Join expansion ratio of one literal under `adornment` (§2.1):
/// the expected number of result tuples produced per distinct binding
/// of the bound arguments, estimated from catalog statistics assuming
/// column independence:
///
///   er = cardinality / prod_{c bound} distinct(c)
///
/// With no bound argument the ratio is the full cardinality (an
/// unrestricted scan). An empty relation has ratio 0. Magic and answer
/// relations are empty when a fixpoint's rules are scheduled, so the
/// join scheduler (`CompileRule`) never lets that 0 put an unbound
/// scan ahead of a literal with a bound argument; the ratio only ranks
/// literals of the same class.
double EstimateJoinExpansion(const RelationStats& stats,
                             const std::string& adornment);

/// The join scheduler's estimator over the statistics of `*db`:
/// `EstimateJoinExpansion` of the predicate's relation, read at call
/// time. `db` must outlive the estimator.
CardinalityEstimator StatsEstimator(EvalDb* db);

/// Result of the per-literal split decision, for diagnostics.
enum class LinkageStrength { kStrong, kWeak, kBorderline };

/// Classifies one linkage by the thresholds.
LinkageStrength ClassifyLinkage(double expansion_ratio,
                                const CostModelOptions& options);

/// The detailed quantitative analysis for borderline linkages
/// (Heuristic 2.1): compares the estimated per-iteration cost of
/// following (propagating through the linkage, paying the expanded
/// intermediate relation on every subsequent step) against splitting
/// (paying a join of the two sub-chain results once at the end).
/// `bound_bindings` estimates the number of distinct bindings arriving
/// at the linkage per iteration. Returns true when following is
/// estimated cheaper.
bool QuantitativeFollowWins(double expansion_ratio, double bound_bindings,
                            const CostModelOptions& options);

/// Builds the Algorithm 3.1 binding-propagation gate over the EDB
/// statistics of `*db`: propagate through strong linkages, cut weak
/// ones, quantitative analysis in between. The returned gate reads
/// statistics at call time, so it sees data loaded after creation.
/// `db` must outlive the gate.
PropagationGate MakeCostGate(EvalDb* db,
                             const CostModelOptions& options = {});

}  // namespace chainsplit

#endif  // CHAINSPLIT_CORE_COST_MODEL_H_
