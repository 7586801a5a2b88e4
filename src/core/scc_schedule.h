#ifndef CHAINSPLIT_CORE_SCC_SCHEDULE_H_
#define CHAINSPLIT_CORE_SCC_SCHEDULE_H_

#include <vector>

#include "ast/ast.h"
#include "common/status.h"
#include "engine/seminaive.h"
#include "rel/catalog.h"

namespace chainsplit {

/// Options for the stratified schedule (EvaluateSccSchedule).
struct SccScheduleOptions {
  /// Base evaluator options, passed to every stratum's fixpoint.
  /// `cancel` covers the whole schedule: a deadline or cancellation
  /// stops the stratum in flight and the rest never start.
  /// `max_iterations` and `max_tuples` cap the schedule's total:
  /// each stratum runs with what the earlier strata left. `trace`,
  /// when set, receives one "scc" span per stratum around that
  /// stratum's per-iteration spans.
  SemiNaiveOptions seminaive;

  /// Attach a per-stratum statistics estimator for body-literal
  /// ordering, unless `seminaive.estimator` is already set: each
  /// stratum's estimator sees its completed callees.
  bool use_stats_ordering = false;
};

/// Evaluates `rules` to fixpoint over `*db` by scheduling the SCC
/// condensation of their predicate dependency graph: each SCC's rules
/// form one stratum, evaluated semi-naively in place once all its
/// callee SCCs are complete (Tarjan's numbering in ProgramAnalysis
/// makes ascending SCC id a valid serial order).
///
/// On error (deadline, cancellation, resource caps) the failing
/// stratum's status is returned, later strata do not run, and `*stats`
/// holds the merged work of every stratum that ran. `*num_sccs`, when
/// given, receives the number of strata in the condensation.
Status EvaluateSccSchedule(EvalDb* db, const std::vector<Rule>& rules,
                           const SccScheduleOptions& options,
                           SemiNaiveStats* stats, int* num_sccs = nullptr);

}  // namespace chainsplit

#endif  // CHAINSPLIT_CORE_SCC_SCHEDULE_H_
