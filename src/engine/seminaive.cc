#include "engine/seminaive.h"

#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"

namespace chainsplit {
namespace {

/// A rule compiled together with its semi-naive delta variants: one
/// compiled form per IDB body literal, scheduled to start from that
/// literal's delta relation.
struct RuleVariants {
  CompiledRule base;                     // no delta (initialization round)
  std::vector<int> idb_literals;         // body indexes with IDB predicates
  std::vector<CompiledRule> delta_form;  // parallel to idb_literals
};

/// Inserts the `n` head rows that rule runs appended to `*emitted` into
/// the head's relation, counting the new ones, and empties the buffer.
/// `n` is the runs' derivation count: a 0-ary head appends no values.
void Drain(EvalDb* db, PredId head, int64_t n, std::vector<TermId>* emitted,
           SemiNaiveStats* stats) {
  Relation* total = db->GetOrCreateRelation(head);
  const int arity = total->arity();
  for (int64_t i = 0; i < n; ++i) {
    if (total->Insert(Relation::Row(emitted->data() + i * arity, arity))) {
      ++stats->total_derived;
      ++stats->counters.inserted;
    }
  }
  emitted->clear();
}

}  // namespace

Status SemiNaiveEvaluate(EvalDb* db, const std::vector<Rule>& rules,
                         const SemiNaiveOptions& options,
                         SemiNaiveStats* stats) {
  *stats = SemiNaiveStats{};
  Program& program = db->program();

  std::unordered_set<PredId> idb;
  for (const Rule& rule : rules) idb.insert(rule.head.pred);

  std::vector<RuleVariants> compiled;
  compiled.reserve(rules.size());
  for (const Rule& rule : rules) {
    RuleVariants variants;
    CS_ASSIGN_OR_RETURN(variants.base,
                        CompileRule(program, rule, -1, options.estimator));
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (idb.count(rule.body[i].pred) == 0) continue;
      variants.idb_literals.push_back(static_cast<int>(i));
      CS_ASSIGN_OR_RETURN(
          CompiledRule delta_rule,
          CompileRule(program, rule, static_cast<int>(i),
                      options.estimator));
      variants.delta_form.push_back(std::move(delta_rule));
    }
    compiled.push_back(std::move(variants));
  }

  // Each IDB predicate's delta: the rows its relation gained in the
  // previous round. Ranges are fixed for a whole round, and a rule run
  // inserts nothing (its head rows wait in `emitted` until the run is
  // over), so no relation grows while a run reads it.
  std::unordered_map<PredId, RowRange> delta;
  for (PredId pred : idb) delta.emplace(pred, RowRange{});
  auto advance_deltas = [&] {
    int64_t rows = 0;
    for (auto& [pred, range] : delta) {
      const Relation* rel = db->GetRelation(pred);
      range = RowRange{range.end, rel == nullptr ? 0 : rel->num_rows()};
      rows += range.end - range.begin;
    }
    return rows;
  };
  // Head rows of the current rule, drained after each rule.
  std::vector<TermId> emitted;

  // Every round's span carries the work it did: tuples derived and the
  // join counters, as deltas.
  auto record_work = [&](TraceSpan* span, int64_t derived_before,
                         const EvalCounters& counters_before) {
    span->Attr("derived", stats->total_derived - derived_before);
    span->Attr("tuples_considered", stats->counters.tuples_considered -
                                        counters_before.tuples_considered);
    span->Attr("derivations",
               stats->counters.derivations - counters_before.derivations);
  };

  // Initialization round: every rule once against the full relations.
  // Afterwards a predicate's delta is everything it contains (pre-seeded
  // tuples included: downstream rules have never consumed them).
  {
    TraceSpan init_span(options.trace, "fixpoint_init");
    for (const RuleVariants& variants : compiled) {
      CS_RETURN_IF_ERROR(CheckCancel(options.cancel));
      const int64_t before = stats->counters.derivations;
      CS_RETURN_IF_ERROR(EvaluateRule(db, variants.base, /*delta_literal=*/-1,
                                      {}, &emitted, &stats->counters));
      Drain(db, variants.base.head_pred,
            stats->counters.derivations - before, &emitted, stats);
    }
    init_span.Attr("rules", static_cast<int64_t>(compiled.size()));
    record_work(&init_span, 0, EvalCounters{});
  }

  for (int64_t delta_rows = advance_deltas(); delta_rows > 0;
       delta_rows = advance_deltas()) {
    CS_RETURN_IF_ERROR(CheckCancel(options.cancel));
    if (++stats->iterations > options.max_iterations) {
      return ResourceExhaustedError(
          StrCat("fixpoint did not converge within ", options.max_iterations,
                 " iterations"));
    }

    // One span per iteration: the delta feeding it plus its work.
    TraceSpan iter_span(options.trace, "fixpoint_iteration");
    iter_span.Attr("iteration", stats->iterations);
    iter_span.Attr("delta_rows", delta_rows);
    const int64_t derived_before_iter = stats->total_derived;
    const EvalCounters counters_before_iter = stats->counters;

    for (const RuleVariants& variants : compiled) {
      // Every delta variant of a rule reads the relations as they stood
      // before the rule, so the head grows only once all have run.
      const int64_t before = stats->counters.derivations;
      if (options.naive) {
        CS_RETURN_IF_ERROR(EvaluateRule(db, variants.base,
                                        /*delta_literal=*/-1, {}, &emitted,
                                        &stats->counters));
      } else {
        for (size_t v = 0; v < variants.idb_literals.size(); ++v) {
          const int lit = variants.idb_literals[v];
          const RowRange range =
              delta.at(variants.base.source.body[lit].pred);
          if (range.empty()) continue;
          CS_RETURN_IF_ERROR(EvaluateRule(db, variants.delta_form[v], lit,
                                          range, &emitted,
                                          &stats->counters));
        }
      }
      Drain(db, variants.base.head_pred,
            stats->counters.derivations - before, &emitted, stats);
    }
    record_work(&iter_span, derived_before_iter, counters_before_iter);
    if (stats->total_derived > options.max_tuples) {
      return ResourceExhaustedError(
          StrCat("derived more than ", options.max_tuples, " tuples"));
    }
  }

  return Status::Ok();
}

}  // namespace chainsplit
