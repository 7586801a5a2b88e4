#ifndef CHAINSPLIT_ENGINE_SEMINAIVE_H_
#define CHAINSPLIT_ENGINE_SEMINAIVE_H_

#include <vector>

#include "ast/ast.h"
#include "common/deadline.h"
#include "common/status.h"
#include "engine/grounder.h"
#include "obs/trace.h"
#include "rel/catalog.h"

namespace chainsplit {

/// Options for bottom-up fixpoint evaluation.
struct SemiNaiveOptions {
  /// Fixpoint iteration cap; exceeded => kResourceExhausted. Guards
  /// against runaway functional recursions (the paper's non-finitely-
  /// evaluable cases surface here when the static analysis is bypassed).
  int64_t max_iterations = 1000000;

  /// Cap on total derived tuples; exceeded => kResourceExhausted.
  int64_t max_tuples = 20000000;

  /// When true, runs the textbook naive iteration (re-deriving
  /// everything each round). Used as a test oracle for semi-naive.
  bool naive = false;

  /// Optional statistics-based cardinality estimator used to order
  /// body literals (access-path selection). Null keeps the
  /// bound-argument heuristic.
  CardinalityEstimator estimator;

  /// Cooperative cancellation/deadline token, checked once per fixpoint
  /// iteration (and between initialization-round rules). Null = never
  /// cancelled. On expiry the evaluation stops with kDeadlineExceeded
  /// or kCancelled; `*stats` holds the partial work done so far.
  const CancelToken* cancel = nullptr;

  /// Optional trace sink riding the same seam as `cancel`: when set,
  /// the fixpoint records a `fixpoint_init` span and one span per
  /// iteration, each carrying tuples derived and join work counters.
  /// Null = no tracing; the hot loop pays only a pointer test.
  Trace* trace = nullptr;
};

/// Aggregate statistics of one fixpoint run; benchmarks report these as
/// machine-independent work measures.
struct SemiNaiveStats {
  int64_t iterations = 0;
  int64_t total_derived = 0;  // new tuples across all IDB predicates
  EvalCounters counters;
};

/// Evaluates `rules` bottom-up to fixpoint over the relations of `*db`
/// (EDB relations plus any pre-seeded IDB tuples, e.g. magic seeds).
/// Derived tuples are inserted into the head predicates' relations in
/// `*db`.
///
/// Rules must be flat (see grounder.h); builtins are scheduled and
/// checked for finite evaluability at compile time, so a program whose
/// chains need splitting is rejected with kNotFinitelyEvaluable rather
/// than looping.
Status SemiNaiveEvaluate(EvalDb* db, const std::vector<Rule>& rules,
                         const SemiNaiveOptions& options,
                         SemiNaiveStats* stats);

}  // namespace chainsplit

#endif  // CHAINSPLIT_ENGINE_SEMINAIVE_H_
