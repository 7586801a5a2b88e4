#include "core/planner.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "ast/builtin_names.h"
#include "ast/parser.h"
#include "ast/printer.h"
#include "common/strings.h"
#include "core/bounded.h"
#include "core/classify.h"
#include "core/rectify.h"
#include "core/scc_schedule.h"
#include "engine/builtins.h"
#include "engine/magic.h"

namespace chainsplit {

const char* TechniqueToString(Technique t) {
  switch (t) {
    case Technique::kMagicSets: return "magic-sets";
    case Technique::kChainSplitMagic: return "chain-split-magic";
    case Technique::kBuffered: return "buffered-chain-split";
    case Technique::kPartial: return "partial-evaluation";
    case Technique::kTopDown: return "top-down";
  }
  return "unknown";
}

namespace {

/// Extracts "Var <op> constant" upper-bound constraints usable for
/// constraint pushing from the non-main query goals.
struct UpperBound {
  TermId var = kNullTerm;
  int64_t limit = 0;
  bool strict = false;
};

std::vector<UpperBound> FindUpperBounds(const Program& program,
                                        const std::vector<Atom>& goals) {
  std::vector<UpperBound> bounds;
  const TermPool& pool = program.pool();
  for (const Atom& goal : goals) {
    BuiltinKind kind = GetBuiltinKind(program.preds(), goal.pred);
    UpperBound b;
    if (kind == BuiltinKind::kLe || kind == BuiltinKind::kLt) {
      // V =< c.
      if (pool.IsVariable(goal.args[0]) && pool.IsInt(goal.args[1])) {
        b.var = goal.args[0];
        b.limit = pool.int_value(goal.args[1]);
        b.strict = kind == BuiltinKind::kLt;
        bounds.push_back(b);
      }
    } else if (kind == BuiltinKind::kGe || kind == BuiltinKind::kGt) {
      // c >= V.
      if (pool.IsInt(goal.args[0]) && pool.IsVariable(goal.args[1])) {
        b.var = goal.args[1];
        b.limit = pool.int_value(goal.args[0]);
        b.strict = kind == BuiltinKind::kGt;
        bounds.push_back(b);
      }
    }
  }
  return bounds;
}

/// Evaluation context for one query. Writes into caller-owned result
/// storage so partial work (plan lines, evaluator stats) survives an
/// error return — the service reports them for timed-out queries.
class PlanRun {
 public:
  PlanRun(EvalDb* db, const Query& query, const PlannerOptions& options,
          QueryResult* result)
      : db_(db),
        program_(db->program()),
        pool_(db->pool()),
        query_(query),
        options_(options),
        result_(*result) {}

  Status Execute() {
    if (query_.goals.empty()) {
      return InvalidArgumentError("empty query");
    }
    for (const Atom& goal : query_.goals) {
      CollectAtomVariables(pool_, goal, &result_.vars);
    }

    // Main goal: the first IDB, non-builtin goal.
    int main_idx = -1;
    for (size_t i = 0; i < query_.goals.size(); ++i) {
      const Atom& goal = query_.goals[i];
      if (!IsBuiltinPred(program_.preds(), goal.pred) &&
          program_.IsIdb(goal.pred)) {
        main_idx = static_cast<int>(i);
        break;
      }
    }
    if (main_idx < 0 || (options_.force.has_value() &&
                         *options_.force == Technique::kTopDown)) {
      return RunTopDown();
    }
    main_goal_ = query_.goals[main_idx];
    for (size_t i = 0; i < query_.goals.size(); ++i) {
      if (static_cast<int>(i) != main_idx) {
        rest_goals_.push_back(query_.goals[i]);
      }
    }
    // The techniques need a flat main goal (ground or variable args).
    for (TermId arg : main_goal_.args) {
      if (!pool_.IsGround(arg) && !pool_.IsVariable(arg)) {
        return RunTopDown();
      }
    }

    if (options_.rectified != nullptr) {
      rectified_ = *options_.rectified;
    } else {
      rectified_ = RectifyRules(&program_);
    }
    // Facts of IDB predicates join as body-less rules, so the
    // adorned/magic program derives them into the adorned answer
    // relations and the chain compiler sees them as exit rules.
    AppendIdbFacts(*db_, &rectified_);

    if (options_.force.has_value()) {
      // Forced techniques (benchmarks and tests) skip classification
      // entirely: RunMagic/RunChain revalidate applicability
      // themselves and fail on a mismatch.
      switch (*options_.force) {
        case Technique::kMagicSets:
          return RunMagic(/*use_gate=*/false);
        case Technique::kChainSplitMagic:
          return RunMagic(/*use_gate=*/true);
        case Technique::kBuffered:
          return RunChain(/*allow_partial=*/false);
        case Technique::kPartial:
          return RunChain(/*allow_partial=*/true);
        case Technique::kTopDown:
          return RunTopDown();
      }
    }

    TraceSpan classify_span(options_.trace, "classify");
    ProgramAnalysis analysis = ProgramAnalysis::Analyze(program_, rectified_);
    const PredicateClassification& cls = analysis.Get(main_goal_.pred);
    classify_span.Attr("recursion_class",
                       RecursionClassToString(cls.recursion));
    classify_span.Attr("functional", cls.functional ? int64_t{1} : int64_t{0});
    classify_span.End();
    AppendPlan(StrCat("recursion class of ",
                      program_.preds().Display(main_goal_.pred), ": ",
                      RecursionClassToString(cls.recursion),
                      cls.functional ? " (functional)" : " (function-free)"));

    if (!cls.functional) {
      // Bounded-recursion compilation ([8, 9]): a permutation-bounded
      // linear recursion is replaced by its non-recursive unfolding.
      if (cls.recursion == RecursionClass::kLinear) {
        std::optional<BoundedUnfolding> bounded = DetectBoundedRecursion(
            &program_, rectified_, main_goal_.pred);
        if (bounded.has_value()) {
          AppendPlan(StrCat("bounded recursion: unfolded with period ",
                            bounded->period,
                            "; evaluating non-recursively"));
          std::vector<Rule> replaced;
          for (const Rule& rule : rectified_) {
            if (rule.head.pred != main_goal_.pred) replaced.push_back(rule);
          }
          for (const Rule& rule : bounded->rules) replaced.push_back(rule);
          rectified_ = std::move(replaced);
        }
      }
      return RunMagic(options_.split.enable_efficiency_split);
    }
    if (cls.recursion == RecursionClass::kLinear ||
        cls.recursion == RecursionClass::kNestedLinear) {
      Status chain_status = RunChain(/*allow_partial=*/true);
      if (chain_status.ok() ||
          chain_status.code() != StatusCode::kUnimplemented) {
        return chain_status;
      }
      AppendPlan(StrCat("chain compilation unavailable (",
                        chain_status.message(),
                        "); falling back to SLD"));
    }
    return RunTopDown();
  }

 private:
  void AppendPlan(std::string line) {
    result_.plan += line;
    result_.plan += "\n";
  }

  /// options_.topdown with the planner-wide cancel token attached.
  TopDownOptions TopDownWithCancel() const {
    TopDownOptions topdown = options_.topdown;
    if (topdown.cancel == nullptr) topdown.cancel = options_.cancel;
    return topdown;
  }

  Status RunTopDown() {
    AppendPlan("technique: top-down SLD resolution");
    result_.technique = Technique::kTopDown;
    TraceSpan span(options_.trace, "topdown_sld");
    span.Attr("technique", TechniqueToString(result_.technique));
    TopDownEvaluator solver(db_, TopDownWithCancel());
    StatusOr<std::vector<Tuple>> answers =
        solver.Answers(query_.goals, result_.vars);
    result_.topdown_stats = solver.stats();
    span.Attr("steps", result_.topdown_stats.steps);
    span.Attr("solutions", result_.topdown_stats.solutions);
    CS_RETURN_IF_ERROR(answers.status());
    result_.answers = *std::move(answers);
    return Status::Ok();
  }

  std::string QueryAdornment() const {
    std::string adornment;
    for (TermId arg : main_goal_.args) {
      adornment.push_back(pool_.IsGround(arg) ? 'b' : 'f');
    }
    return adornment;
  }

  Status RunMagic(bool use_gate) {
    auto gate_fired = std::make_shared<bool>(false);
    PropagationGate gate;
    if (use_gate) {
      PropagationGate cost_gate = MakeCostGate(db_, options_.split.cost);
      gate = [cost_gate, gate_fired](const Atom& literal,
                                     const std::string& ad) {
        bool propagate = cost_gate(literal, ad);
        // Only a cut on a *partially bound* literal is a chain-split
        // decision; all-free literals never carry bindings anyway.
        if (!propagate && ad.find('b') != std::string::npos) {
          *gate_fired = true;
        }
        return propagate;
      };
    }
    TraceSpan rewrite_span(options_.trace, "magic_rewrite");
    CS_ASSIGN_OR_RETURN(
        AdornedProgram adorned,
        AdornProgram(&program_, rectified_, main_goal_.pred,
                     QueryAdornment(), gate));
    CS_ASSIGN_OR_RETURN(MagicProgram magic,
                        MagicTransform(&program_, adorned, main_goal_));
    for (const Atom& seed : magic.seeds) {
      db_->InsertFact(seed.pred, seed.args);
    }
    rewrite_span.Attr("transformed_rules",
                      static_cast<int64_t>(magic.rules.size()));
    rewrite_span.Attr("gate_fired", *gate_fired ? int64_t{1} : int64_t{0});
    rewrite_span.End();
    result_.technique = (use_gate && *gate_fired)
                            ? Technique::kChainSplitMagic
                            : Technique::kMagicSets;
    SemiNaiveOptions seminaive = options_.seminaive;
    if (seminaive.cancel == nullptr) seminaive.cancel = options_.cancel;
    if (seminaive.trace == nullptr) seminaive.trace = options_.trace;
    // Stratified fixpoint over the condensation of the magic program:
    // magic predicates first, then the answer predicates they seed.
    SccScheduleOptions sched;
    sched.seminaive = seminaive;
    sched.use_stats_ordering = options_.use_stats_ordering;
    int num_sccs = 0;
    TraceSpan fixpoint_span(options_.trace, "fixpoint");
    fixpoint_span.Attr("technique", TechniqueToString(result_.technique));
    Status status = EvaluateSccSchedule(db_, magic.rules, sched,
                                        &result_.seminaive_stats, &num_sccs);
    fixpoint_span.Attr("sccs", static_cast<int64_t>(num_sccs));
    fixpoint_span.Attr("iterations", result_.seminaive_stats.iterations);
    fixpoint_span.Attr("derived", result_.seminaive_stats.total_derived);
    fixpoint_span.End();
    result_.scc_strata = num_sccs;
    CS_RETURN_IF_ERROR(status);
    AppendPlan(StrCat("technique: ", TechniqueToString(result_.technique),
                      " (", magic.rules.size(), " transformed rules, query ",
                      program_.preds().Display(magic.answer_pred), ")"));

    // Answers: tuples of the adorned query predicate matching the
    // query's ground arguments.
    std::vector<Tuple> answers;
    const Relation* rel = db_->GetRelation(magic.answer_pred);
    if (rel != nullptr) {
      for (int64_t i = 0; i < rel->num_rows(); ++i) {
        Relation::Row row = rel->row(i);
        bool match = true;
        for (size_t a = 0; a < main_goal_.args.size() && match; ++a) {
          if (pool_.IsGround(main_goal_.args[a])) {
            match = row[a] == main_goal_.args[a];
          }
        }
        if (match) answers.push_back(row);
      }
    }
    return FinishWithMainAnswers(answers);
  }

  Status RunChain(bool allow_partial) {
    TraceSpan compile_span(options_.trace, "chain_compile");
    CS_ASSIGN_OR_RETURN(
        CompiledChain chain,
        CompileChain(program_, rectified_, main_goal_.pred));
    compile_span.End();
    std::vector<TermId> bound_vars;
    for (size_t i = 0; i < main_goal_.args.size(); ++i) {
      if (pool_.IsGround(main_goal_.args[i])) {
        pool_.CollectVariables(chain.head().args[i], &bound_vars);
      }
    }
    ChainPath whole = WholeBodyPath(pool_, chain);
    TraceSpan split_span(options_.trace, "split_decision");
    CS_ASSIGN_OR_RETURN(
        PathSplit split,
        DecideSplit(db_, chain, whole, bound_vars, options_.split));
    split_span.Attr("evaluable_literals",
                    static_cast<int64_t>(split.evaluable.size()));
    split_span.Attr("delayed_literals",
                    static_cast<int64_t>(split.delayed.size()));
    split_span.End();
    AppendPlan(CompiledChainToString(program_, chain));
    AppendPlan(StrCat("split: ", PathSplitToString(program_, chain, split)));

    BufferedOptions buffered = options_.buffered;
    if (buffered.cancel == nullptr) buffered.cancel = options_.cancel;
    if (buffered.subquery.cancel == nullptr) {
      buffered.subquery.cancel = options_.cancel;
    }
    if (buffered.trace == nullptr) buffered.trace = options_.trace;

    // Constraint pushing (Algorithm 3.3) when the query carries an
    // upper bound on a monotone answer position.
    if (allow_partial) {
      for (const UpperBound& bound :
           FindUpperBounds(program_, rest_goals_)) {
        int position = -1;
        for (size_t i = 0; i < main_goal_.args.size(); ++i) {
          if (main_goal_.args[i] == bound.var) {
            position = static_cast<int>(i);
          }
        }
        if (position < 0) continue;
        std::optional<AccumulatorConstraint> constraint =
            DeduceAccumulatorConstraint(db_, chain, split, position,
                                        bound.limit, bound.strict);
        if (!constraint.has_value()) continue;
        AppendPlan(StrCat(
            "technique: partial evaluation, pushing bound ", bound.limit,
            " on argument ", position, " into the chain"));
        result_.technique = Technique::kPartial;
        TraceSpan eval_span(options_.trace, "partial_eval");
        eval_span.Attr("technique",
                       TechniqueToString(result_.technique));
        StatusOr<std::vector<Tuple>> answers = PartialEvaluate(
            db_, chain, split, main_goal_, *constraint, buffered,
            &result_.buffered_stats);
        eval_span.Attr("levels", result_.buffered_stats.levels);
        eval_span.Attr("answers", result_.buffered_stats.answers);
        eval_span.End();
        CS_RETURN_IF_ERROR(answers.status());
        return FinishWithMainAnswers(*answers);
      }
      if (options_.force == Technique::kPartial) {
        return FailedPreconditionError(
            "partial evaluation forced but no pushable constraint found");
      }
    }

    AppendPlan("technique: buffered chain-split evaluation");
    result_.technique = Technique::kBuffered;
    bool boolean_query = true;
    for (TermId arg : main_goal_.args) {
      boolean_query = boolean_query && pool_.IsGround(arg);
    }
    if (boolean_query && rest_goals_.empty()) {
      // Existence check: one proof suffices for a fully bound query.
      buffered.stop_at_first_answer = true;
      AppendPlan("existence check: stopping at the first proof");
    }
    BufferedChainEvaluator evaluator(db_, chain, buffered);
    TraceSpan eval_span(options_.trace, "buffered_eval");
    eval_span.Attr("technique",
                   TechniqueToString(result_.technique));
    StatusOr<std::vector<Tuple>> answers = evaluator.Evaluate(main_goal_, split);
    result_.buffered_stats = evaluator.stats();
    eval_span.Attr("levels", result_.buffered_stats.levels);
    eval_span.Attr("call_states", result_.buffered_stats.nodes);
    eval_span.Attr("answers", result_.buffered_stats.answers);
    eval_span.End();
    CS_RETURN_IF_ERROR(answers.status());
    return FinishWithMainAnswers(*answers);
  }

  /// Joins the main-goal answers with the remaining query goals and
  /// projects to the query variables.
  Status FinishWithMainAnswers(const std::vector<Tuple>& answers) {
    TraceSpan span(options_.trace, "apply_rest_goals");
    span.Attr("main_answers", static_cast<int64_t>(answers.size()));
    TopDownEvaluator solver(db_, TopDownWithCancel());
    std::unordered_set<Tuple, TupleHash> seen;
    for (const Tuple& tuple : answers) {
      Substitution subst0;
      bool ok = true;
      for (size_t i = 0; i < main_goal_.args.size() && ok; ++i) {
        ok = Unify(pool_, main_goal_.args[i], tuple[i], &subst0);
      }
      if (!ok) continue;
      auto emit = [&](const Substitution& s) {
        Tuple row;
        row.reserve(result_.vars.size());
        for (TermId v : result_.vars) {
          row.push_back(s.Resolve(subst0.Resolve(v, pool_), pool_));
        }
        if (seen.insert(row).second) result_.answers.push_back(row);
      };
      if (rest_goals_.empty()) {
        Substitution empty;
        emit(empty);
        continue;
      }
      std::vector<Atom> goals;
      goals.reserve(rest_goals_.size());
      for (const Atom& goal : rest_goals_) {
        Atom g = goal;
        for (TermId& arg : g.args) arg = subst0.Resolve(arg, pool_);
        goals.push_back(std::move(g));
      }
      CS_RETURN_IF_ERROR(solver.Solve(goals, emit));
    }
    result_.topdown_stats = solver.stats();
    return Status::Ok();
  }

  EvalDb* db_;
  Program& program_;
  TermPool& pool_;
  const Query& query_;
  const PlannerOptions& options_;

  Atom main_goal_;
  std::vector<Atom> rest_goals_;
  std::vector<Rule> rectified_;
  QueryResult& result_;
};

}  // namespace

StatusOr<QueryResult> EvaluateQuery(EvalDb* db, const Query& query,
                                    const PlannerOptions& options) {
  QueryResult result;
  CS_RETURN_IF_ERROR(EvaluateQueryInto(db, query, options, &result));
  return result;
}

Status EvaluateQueryInto(EvalDb* db, const Query& query,
                         const PlannerOptions& options, QueryResult* result) {
  *result = QueryResult();
  PlanRun run(db, query, options, result);
  return run.Execute();
}

Status MaterializeAll(EvalDb* db, const SemiNaiveOptions& options) {
  std::vector<Rule> rectified = RectifyRules(&db->program());
  SccScheduleOptions sched;
  sched.seminaive = options;
  SemiNaiveStats stats;
  return EvaluateSccSchedule(db, rectified, sched, &stats);
}

StatusOr<QueryResult> RunProgram(Database* db, std::string_view source,
                                 const PlannerOptions& options) {
  CS_RETURN_IF_ERROR(ParseProgram(source, &db->program()));
  CS_RETURN_IF_ERROR(db->LoadProgramFacts());
  if (db->program().queries().empty()) {
    return InvalidArgumentError("program contains no query");
  }
  return EvaluateQuery(db, db->program().queries().front(), options);
}

}  // namespace chainsplit
