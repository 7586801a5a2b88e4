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

/// Running sum of Relation telemetry counters.
struct TelemetrySum {
  int64_t probes = 0;
  int64_t collisions = 0;
  int64_t arena = 0;

  void Add(const Relation& rel) {
    Relation::Telemetry t = rel.telemetry();
    probes += t.probes;
    collisions += t.hash_collisions;
    arena += t.arena_bytes;
  }
};

/// Sums telemetry over every stored relation of `db`.
TelemetrySum DatabaseTelemetry(const EvalDb& db) {
  TelemetrySum sum;
  for (PredId pred : db.StoredPredicates()) {
    const Relation* rel = db.GetRelation(pred);
    if (rel != nullptr) sum.Add(*rel);
  }
  return sum;
}

}  // namespace

Status SemiNaiveEvaluate(EvalDb* db, const std::vector<Rule>& rules,
                         const SemiNaiveOptions& options,
                         SemiNaiveStats* stats) {
  *stats = SemiNaiveStats{};
  Program& program = db->program();

  // Storage-telemetry baseline: relation counters are cumulative over
  // each relation's lifetime, so report deltas against the state at
  // entry. Scratch and delta relations are created below and folded in
  // as they are consumed.
  const TelemetrySum db_before = DatabaseTelemetry(*db);
  TelemetrySum scratch_sum;

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

  RelationLookup rel_for = [db](PredId pred) -> const Relation* {
    return db->GetRelation(pred);
  };

  // Per-IDB-predicate delta relations. After the initialization round a
  // predicate's delta is everything it currently contains (pre-seeded
  // tuples included: downstream rules have never consumed them).
  std::unordered_map<PredId, Relation> delta;
  std::unordered_map<PredId, Relation> next_delta;
  for (PredId pred : idb) {
    delta.emplace(pred, Relation(program.preds().arity(pred)));
    next_delta.emplace(pred, Relation(program.preds().arity(pred)));
  }

  // Initialization round: every rule once against the full relations.
  {
    TraceSpan init_span(options.trace, "fixpoint_init");
    for (const RuleVariants& variants : compiled) {
      CS_RETURN_IF_ERROR(CheckCancel(options.cancel));
      Relation scratch(program.preds().arity(variants.base.head_pred));
      CS_RETURN_IF_ERROR(EvaluateRule(db->pool(), program.preds(),
                                      variants.base, rel_for,
                                      /*delta_literal=*/-1, nullptr, &scratch,
                                      &stats->counters));
      Relation* total = db->GetOrCreateRelation(variants.base.head_pred);
      for (int64_t i = 0; i < scratch.num_rows(); ++i) {
        if (total->Insert(scratch.row(i))) ++stats->total_derived;
      }
      scratch_sum.Add(scratch);
    }
    for (PredId pred : idb) {
      const Relation* total = db->GetRelation(pred);
      if (total != nullptr) delta.at(pred).UnionWith(*total);
    }
    init_span.Attr("rules", static_cast<int64_t>(compiled.size()));
    init_span.Attr("derived", stats->total_derived);
  }

  while (true) {
    bool any_delta = false;
    int64_t delta_rows = 0;
    for (const auto& [pred, rel] : delta) {
      any_delta |= !rel.empty();
      delta_rows += rel.num_rows();
    }
    if (!any_delta) break;
    CS_RETURN_IF_ERROR(CheckCancel(options.cancel));
    if (++stats->iterations > options.max_iterations) {
      return ResourceExhaustedError(
          StrCat("fixpoint did not converge within ", options.max_iterations,
                 " iterations"));
    }

    // One span per iteration: the delta feeding this round plus the work
    // it triggered (derived tuples and join counters as deltas).
    TraceSpan iter_span(options.trace, "fixpoint_iteration");
    iter_span.Attr("iteration", stats->iterations);
    iter_span.Attr("delta_rows", delta_rows);
    const int64_t derived_before_iter = stats->total_derived;
    const EvalCounters counters_before_iter = stats->counters;

    for (auto& [pred, rel] : next_delta) rel.Clear();

    for (const RuleVariants& variants : compiled) {
      Relation scratch(program.preds().arity(variants.base.head_pred));
      if (options.naive) {
        CS_RETURN_IF_ERROR(EvaluateRule(
            db->pool(), program.preds(), variants.base, rel_for,
            /*delta_literal=*/-1, nullptr, &scratch, &stats->counters));
      } else {
        for (size_t v = 0; v < variants.idb_literals.size(); ++v) {
          int lit = variants.idb_literals[v];
          const Relation& d =
              delta.at(variants.base.source.body[lit].pred);
          if (d.empty()) continue;
          CS_RETURN_IF_ERROR(EvaluateRule(
              db->pool(), program.preds(), variants.delta_form[v], rel_for,
              lit, &d, &scratch, &stats->counters));
        }
      }
      Relation* total = db->GetOrCreateRelation(variants.base.head_pred);
      Relation& nd = next_delta.at(variants.base.head_pred);
      for (int64_t i = 0; i < scratch.num_rows(); ++i) {
        if (total->Insert(scratch.row(i))) {
          ++stats->total_derived;
          nd.Insert(scratch.row(i));
        }
      }
      scratch_sum.Add(scratch);
    }
    iter_span.Attr("derived",
                   stats->total_derived - derived_before_iter);
    iter_span.Attr("tuples_considered",
                   stats->counters.tuples_considered -
                       counters_before_iter.tuples_considered);
    iter_span.Attr("derivations", stats->counters.derivations -
                                      counters_before_iter.derivations);
    if (stats->total_derived > options.max_tuples) {
      return ResourceExhaustedError(
          StrCat("derived more than ", options.max_tuples, " tuples"));
    }
    std::swap(delta, next_delta);
  }

  TelemetrySum db_after = DatabaseTelemetry(*db);
  TelemetrySum deltas;
  for (const auto& [pred, rel] : delta) deltas.Add(rel);
  for (const auto& [pred, rel] : next_delta) deltas.Add(rel);
  stats->storage.probes =
      db_after.probes - db_before.probes + scratch_sum.probes +
      deltas.probes;
  stats->storage.hash_collisions = db_after.collisions -
                                   db_before.collisions +
                                   scratch_sum.collisions + deltas.collisions;
  stats->storage.arena_bytes = db_after.arena + deltas.arena;
  return Status::Ok();
}

}  // namespace chainsplit
