#ifndef CHAINSPLIT_CORE_CHAIN_COMPILE_H_
#define CHAINSPLIT_CORE_CHAIN_COMPILE_H_

#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/status.h"

namespace chainsplit {

/// One chain generating path of a compiled linear recursion (§1): a
/// maximal set of non-recursive body literals connected by shared
/// variables, together with the variables linking it to the head
/// (X_{i-1}) and to the recursive call (X_i).
///
/// `sg` compiles to two paths ({parent(X,X1)}, {parent(Y,Y1)});
/// `scsg` compiles to a single path
/// {parent(X,X1), same_country(X1,Y1), parent(Y,Y1)} — the path
/// chain-split evaluation splits back apart.
struct ChainPath {
  std::vector<int> literals;       // indexes into the recursive rule body
  std::vector<TermId> head_vars;   // path vars occurring in head args
  std::vector<TermId> rec_vars;    // path vars occurring in the recursive
                                   // call's args
};

/// A linear recursion compiled into chain form: one linear recursive
/// rule, its exit rules, and the partition of the recursive rule's
/// non-recursive literals into chain generating paths.
struct CompiledChain {
  PredId pred = kNullPred;
  Rule recursive_rule;
  int recursive_literal = -1;      // index of p(...) in the body
  std::vector<Rule> exit_rules;
  std::vector<ChainPath> paths;

  /// Head argument i corresponds positionally to recursive-call
  /// argument i (the normalized form of [9]); both are vars/constants
  /// in a flat rule.
  const Atom& head() const { return recursive_rule.head; }
  const Atom& recursive_call() const {
    return recursive_rule.body[recursive_literal];
  }
};

/// Compiles the (already rectified, flat) linear recursion `pred` from
/// `rules` into chain form. Requirements: exactly one recursive rule
/// (with exactly one recursive literal) plus >= 1 exit rules; otherwise
/// kUnimplemented / kInvalidArgument.
///
/// `rules` should be the rectified rule set with the IDB facts
/// appended (AppendIdbFacts); exit rules for `pred`, including its
/// ground clauses such as `isort([], []).`, and the recursive rule are
/// collected from it.
StatusOr<CompiledChain> CompileChain(const Program& program,
                                     const std::vector<Rule>& rules,
                                     PredId pred);

/// Human-readable dump of a compiled chain for diagnostics and docs.
std::string CompiledChainToString(const Program& program,
                                  const CompiledChain& chain);

}  // namespace chainsplit

#endif  // CHAINSPLIT_CORE_CHAIN_COMPILE_H_
