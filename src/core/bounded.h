#ifndef CHAINSPLIT_CORE_BOUNDED_H_
#define CHAINSPLIT_CORE_BOUNDED_H_

#include <optional>
#include <vector>

#include "ast/ast.h"
#include "common/status.h"

namespace chainsplit {

/// Bounded-recursion compilation (§1 of the paper, after [8, 9]): a
/// linear recursion is *bounded* when it is equivalent to a
/// non-recursive rule set, so no chain evaluation is needed at all.
///
/// This module detects the classic permutation-bounded case: a single
/// linear recursive rule whose recursive call's arguments are a
/// permutation of the head variables,
///
///   p(X1..Xn) :- B, p(Xs1..Xsn).     (sigma a permutation, order k)
///
/// Since sigma^k is the identity, any derivation of length j+k needs a
/// superset of the conditions of the length-j derivation ending at the
/// same exit fact, so unfolding k times captures the fixpoint. The
/// returned non-recursive replacement is
///
///   p$exit(args) :- <each exit rule body>          (renamed exits)
///   p(X)  :- p$exit(X)                             (j = 0)
///   p(X)  :- B[sigma^0], .., B[sigma^(j-1)], p$exit(sigma^j X)
///                                                  (j = 1..k-1)
///
/// with the non-head variables of B freshened per unfolding step.
struct BoundedUnfolding {
  /// Non-recursive rules that replace the recursion's rules.
  std::vector<Rule> rules;
  /// The permutation's order (number of unfoldings).
  int period = 0;
};

/// Detects whether `pred` (with one linear recursive rule in `rules`)
/// is permutation-bounded, returning the unfolded non-recursive rule
/// set; nullopt when the pattern does not apply (the recursion then
/// goes through chain compilation as usual). `max_period` guards
/// against pathological permutation orders. `rules` should carry the
/// IDB facts as body-less rules (AppendIdbFacts): `pred`'s facts are
/// exit rules like any other.
std::optional<BoundedUnfolding> DetectBoundedRecursion(
    Program* program, const std::vector<Rule>& rules, PredId pred,
    int max_period = 12);

}  // namespace chainsplit

#endif  // CHAINSPLIT_CORE_BOUNDED_H_
