#ifndef CHAINSPLIT_ENGINE_TOPDOWN_H_
#define CHAINSPLIT_ENGINE_TOPDOWN_H_

#include <functional>
#include <vector>

#include "ast/ast.h"
#include "common/deadline.h"
#include "common/status.h"
#include "rel/catalog.h"
#include "term/unify.h"

namespace chainsplit {

/// Options for the SLD evaluator.
struct TopDownOptions {
  /// Derivation depth cap (resolution steps on the current branch);
  /// exceeded => kResourceExhausted. Depth costs heap, ~240 bytes a unit
  /// on a one-literal recursion; isort of 512 random ints reaches 131,029.
  int64_t max_depth = 200000;
  /// Total goal expansions cap.
  int64_t max_steps = 200000000;
  /// Stop after this many solutions.
  int64_t max_solutions = 1000000000;

  /// Cooperative cancellation/deadline token, checked once per 1024
  /// goal expansions (a clock read per SLD step would dominate the
  /// resolution loop). Null = never cancelled.
  const CancelToken* cancel = nullptr;
};

struct TopDownStats {
  int64_t steps = 0;
  int64_t solutions = 0;
  int64_t deepest = 0;  // deepest derivation reached (see max_depth)
};

/// Plain SLD resolution (top-down, leftmost selection, depth-first)
/// over an EvalDb: rules from the program, facts from relations,
/// builtins evaluated natively.
///
/// This is the *reference evaluator* for functional recursions (§4 of
/// the paper): `isort`, `qsort`, `append` terminate top-down because
/// their recursion is well-founded on a shrinking list argument. It is
/// not tabled — queries over cyclic EDB data should use the bottom-up
/// evaluators; the caps in TopDownOptions turn accidental loops into
/// kResourceExhausted errors. Solve runs on the caller's thread with
/// its goals, choice points and trail on the heap, never the stack.
class TopDownEvaluator {
 public:
  explicit TopDownEvaluator(EvalDb* db,
                            TopDownOptions options = TopDownOptions());

  /// Proves `goals` left-to-right; invokes `on_solution`, on the calling
  /// thread, for every proof with the final substitution (resolve your
  /// variables of interest against it).
  Status Solve(const std::vector<Atom>& goals,
               const std::function<void(const Substitution&)>& on_solution);

  /// Convenience: all bindings of `vars` over the solutions of `goals`,
  /// deduplicated, in discovery order.
  StatusOr<std::vector<std::vector<TermId>>> Answers(
      const std::vector<Atom>& goals, const std::vector<TermId>& vars);

  const TopDownStats& stats() const { return stats_; }

 private:
  class Impl;

  EvalDb* db_;
  TopDownOptions options_;
  TopDownStats stats_;
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_ENGINE_TOPDOWN_H_
