#ifndef CHAINSPLIT_ENGINE_GROUNDER_H_
#define CHAINSPLIT_ENGINE_GROUNDER_H_

#include <functional>
#include <vector>

#include "ast/ast.h"
#include "common/status.h"
#include "engine/builtins.h"
#include "rel/catalog.h"
#include "rel/relation.h"

namespace chainsplit {

/// Bottom-up evaluation of one rule body against ground relations: the
/// join kernel shared by the naive, semi-naive and magic evaluators.
///
/// Rules must be *flat* (every atom argument is a variable or a ground
/// term) — the form produced by rule rectification (§1.2 / core/rectify)
/// — so a derived tuple is just the head's argument slots.

/// An atom argument: either a constant term or a slot (variable) index.
struct ArgPattern {
  bool is_slot = false;
  int slot = -1;
  TermId constant = kNullTerm;
};

/// A body literal compiled to slot form.
struct CompiledLiteral {
  PredId pred = kNullPred;
  BuiltinKind builtin = BuiltinKind::kNone;
  std::vector<ArgPattern> args;
};

/// A rule compiled for bottom-up evaluation, including a literal order
/// scheduled so every builtin is reached with an evaluable boundness
/// pattern. Compilation *fails with kNotFinitelyEvaluable* when no such
/// order exists — this is the engine-level manifestation of the paper's
/// finite-evaluability analysis (§2.2), and the reason functional
/// chains need chain-split before they can run bottom-up.
struct CompiledRule {
  Rule source;
  PredId head_pred = kNullPred;
  std::vector<ArgPattern> head_args;
  std::vector<CompiledLiteral> body;     // original body order
  std::vector<int> order;                // evaluation order (body indexes)
  std::vector<TermId> slot_vars;         // slot -> variable term
};

/// Estimates the tuples produced per binding when evaluating a
/// predicate under an adornment (its join expansion ratio, §2.1).
/// Plugged in by the planner from catalog statistics; the scheduler
/// uses it for access-path selection [13, 18]: among the evaluable
/// relation literals it picks the one with the smallest estimate.
using CardinalityEstimator =
    std::function<double(PredId, const std::string& adornment)>;

/// Work counters accumulated during rule evaluation; benchmarks report
/// these as machine-independent cost measures.
struct EvalCounters {
  int64_t tuples_considered = 0;  // relation tuples scanned or probed
  int64_t builtin_calls = 0;
  int64_t derivations = 0;        // head instantiations produced
  int64_t inserted = 0;           // new head tuples, counted at drain

  void Add(const EvalCounters& o) {
    tuples_considered += o.tuples_considered;
    builtin_calls += o.builtin_calls;
    derivations += o.derivations;
    inserted += o.inserted;
  }
};

/// Compiles `rule` for bottom-up evaluation. When `first_literal` >= 0,
/// the schedule is forced to begin with that body literal (used by
/// semi-naive to start from the delta relation). Fails when the rule is
/// not flat, not range-restricted, or not finitely evaluable in any
/// order.
StatusOr<CompiledRule> CompileRule(const Program& program, const Rule& rule,
                                   int first_literal = -1,
                                   const CardinalityEstimator& estimator =
                                       nullptr);

/// Rows [begin, end) of a relation. Rows are append-only with stable
/// ids, so a semi-naive delta is the rows its relation gained last round.
struct RowRange {
  int64_t begin = 0;
  int64_t end = 0;
  bool empty() const { return begin >= end; }
};

/// Evaluates `rule` once against the relations of `*db`, appending each
/// derivation's head values to `*out` (duplicates included) and
/// inserting into no relation. When `delta_literal` >= 0, that body
/// literal reads only the rows `delta` of its relation (the semi-naive
/// substitution). The pool may grow (builtins intern new terms).
Status EvaluateRule(EvalDb* db, const CompiledRule& rule, int delta_literal,
                    RowRange delta, std::vector<TermId>* out,
                    EvalCounters* counters);

}  // namespace chainsplit

#endif  // CHAINSPLIT_ENGINE_GROUNDER_H_
