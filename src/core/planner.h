#ifndef CHAINSPLIT_CORE_PLANNER_H_
#define CHAINSPLIT_CORE_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/deadline.h"
#include "common/status.h"
#include "core/buffered.h"
#include "core/partial.h"
#include "core/split_decision.h"
#include "engine/seminaive.h"
#include "engine/topdown.h"
#include "rel/catalog.h"

namespace chainsplit {

/// Evaluation techniques the planner can pick (§3 of the paper, plus
/// the SLD fallback for recursion classes outside the compiled-chain
/// fragment).
enum class Technique {
  kMagicSets,        // chain-following magic sets + semi-naive
  kChainSplitMagic,  // Algorithm 3.1 (gated binding propagation)
  kBuffered,         // Algorithm 3.2 (buffered chain-split)
  kPartial,          // Algorithm 3.3 (constraint-pushing partial eval)
  kTopDown,          // SLD resolution (nonlinear recursions, fallback)
};

const char* TechniqueToString(Technique t);

struct PlannerOptions {
  SplitDecisionOptions split;
  SemiNaiveOptions seminaive;
  BufferedOptions buffered;
  TopDownOptions topdown;
  /// Force a technique instead of letting the analysis choose. Forcing
  /// an inapplicable technique returns an error — benchmarks use this
  /// to run baselines.
  std::optional<Technique> force;

  /// Order body literals by catalog-statistics cardinality estimates
  /// (access-path selection [13, 18]) during bottom-up evaluation.
  /// Off = the bound-argument-count heuristic; the join-order ablation
  /// benchmark compares the two.
  bool use_stats_ordering = true;

  /// Precomputed rectification of the program's rules (RectifyRules
  /// output for the *current* rule set). When set, the planner reuses
  /// it instead of re-rectifying every query — the query service
  /// caches this per rules-epoch. Must be invalidated when rules
  /// change.
  const std::vector<Rule>* rectified = nullptr;

  /// Cooperative deadline/cancellation for the whole evaluation;
  /// propagated into every evaluator invoked (semi-naive, buffered,
  /// SLD) unless that evaluator's own options already carry a token.
  const CancelToken* cancel = nullptr;

  /// Optional trace sink for the whole evaluation. The planner records
  /// spans for classification, chain compilation, the split decision,
  /// magic rewriting and each evaluator run (with the technique taken),
  /// and propagates the sink into the evaluators' own options (same
  /// propagation rule as `cancel`). Null = no tracing.
  Trace* trace = nullptr;
};

/// Answers plus provenance of one query evaluation.
struct QueryResult {
  /// The query's distinct variables, in first-occurrence order.
  std::vector<TermId> vars;
  /// One row per answer: bindings of `vars`.
  std::vector<Tuple> answers;
  Technique technique = Technique::kTopDown;
  /// Human-readable plan: recursion class, chain form, split, reasons.
  std::string plan;

  SemiNaiveStats seminaive_stats;
  BufferedStats buffered_stats;
  TopDownStats topdown_stats;

  /// Strata of the bottom-up fixpoint's SCC schedule
  /// (core/scc_schedule.h); zero when no fixpoint ran.
  int64_t scc_strata = 0;
};

/// Plans and evaluates `query` against `*db` (rules + EDB facts):
/// classifies the queried recursion, compiles its chain form, runs the
/// chain-split analysis, picks the technique, evaluates, and applies
/// the remaining query goals (constraints) to the answers.
///
/// This is the library's main entry point; see examples/.
StatusOr<QueryResult> EvaluateQuery(EvalDb* db, const Query& query,
                                    const PlannerOptions& options = {});

/// As EvaluateQuery, but writes into `*result` and reports failures
/// through the returned Status. On error (including kDeadlineExceeded
/// and kCancelled) `result->plan` and the evaluator statistics hold
/// the partial work done before the failure — the query service
/// surfaces these as partial stats of a timed-out query.
Status EvaluateQueryInto(EvalDb* db, const Query& query,
                         const PlannerOptions& options, QueryResult* result);

/// Convenience: parse `source` (rules + facts + one query), load facts,
/// and evaluate the first query.
StatusOr<QueryResult> RunProgram(Database* db, std::string_view source,
                                 const PlannerOptions& options = {});

/// Materializes every IDB predicate of `db`'s program bottom-up (the
/// classic Datalog fixpoint over the rectified rules, one SCC stratum
/// at a time, callees first; core/scc_schedule.h). Only valid for
/// function-free programs: a functional recursion denotes an infinite
/// relation and is rejected with kNotFinitelyEvaluable — use
/// query-directed evaluation (EvaluateQuery) for those, which is the
/// paper's whole point.
Status MaterializeAll(EvalDb* db, const SemiNaiveOptions& options = {});

}  // namespace chainsplit

#endif  // CHAINSPLIT_CORE_PLANNER_H_
