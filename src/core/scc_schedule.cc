#include "core/scc_schedule.h"

#include "core/classify.h"
#include "core/cost_model.h"

namespace chainsplit {

Status EvaluateSccSchedule(EvalDb* db, const std::vector<Rule>& rules,
                           const SccScheduleOptions& options,
                           SemiNaiveStats* stats, int* num_sccs) {
  *stats = SemiNaiveStats{};
  ProgramAnalysis analysis = ProgramAnalysis::Analyze(db->program(), rules);
  const int n = analysis.num_sccs();
  if (num_sccs != nullptr) *num_sccs = n;

  std::vector<std::vector<Rule>> strata(n);
  for (const Rule& rule : rules) {
    strata[analysis.Get(rule.head.pred).scc].push_back(rule);
  }

  // Ascending SCC id is topological, so every stratum evaluates in
  // place over its completed callees.
  for (int s = 0; s < n; ++s) {
    TraceSpan span(options.seminaive.trace, "scc");
    span.Attr("scc", static_cast<int64_t>(s));
    span.Attr("preds", static_cast<int64_t>(analysis.sccs()[s].size()));
    // The caps bound the whole schedule: each stratum gets what the
    // earlier ones left of them.
    SemiNaiveOptions sn = options.seminaive;
    sn.max_iterations -= stats->iterations;
    sn.max_tuples -= stats->total_derived;
    if (options.use_stats_ordering && sn.estimator == nullptr) {
      sn.estimator = StatsEstimator(db);
    }
    SemiNaiveStats stratum;
    Status status = SemiNaiveEvaluate(db, strata[s], sn, &stratum);
    stats->iterations += stratum.iterations;
    stats->total_derived += stratum.total_derived;
    stats->counters.Add(stratum.counters);
    span.Attr("iterations", stratum.iterations);
    span.Attr("derived", stratum.total_derived);
    CS_RETURN_IF_ERROR(status);
  }
  return Status::Ok();
}

}  // namespace chainsplit
