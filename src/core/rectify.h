#ifndef CHAINSPLIT_CORE_RECTIFY_H_
#define CHAINSPLIT_CORE_RECTIFY_H_

#include <vector>

#include "ast/ast.h"
#include "common/status.h"
#include "rel/catalog.h"

namespace chainsplit {

/// Rule rectification (§1.2 of the paper): rewrites every non-ground
/// compound argument `f(t1..tk)` of an atom into a fresh variable `V`
/// plus a functional-predicate goal `f(t1..tk, V)` (`cons` for list
/// cells, `$mk_f` otherwise). The result is a *flat* rule — every atom
/// argument is a variable or a ground term — the normalized form the
/// bottom-up engine, the chain compiler and the adornment analysis all
/// operate on.
///
/// Example (paper rules (4.4)/(4.9)):
///   insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
/// becomes
///   insert(X, A, B) :- cons(Y, Ys, A), cons(Y, Zs, B), X > Y,
///                      insert(X, Ys, Zs).
///
/// Ground compound arguments (e.g. the constant list [5,7,1]) are left
/// in place: flat rules allow ground terms as constants.
Rule RectifyRule(Program* program, const Rule& rule);

/// Rectified copies of all rules of `*program` (facts are untouched —
/// they are ground). The program itself is not modified.
std::vector<Rule> RectifyRules(Program* program);

/// Appends the stored rows of the IDB predicates of `*rules` (the
/// heads) as body-less rules, predicate by predicate in row (insertion)
/// order: a fact such as `sg(tom, sue).` next to `sg` rules, a row
/// loaded with `:csv`, or the exit clause `isort([], []).` takes part
/// in rule-based evaluation like any other exit rule, as it does in SLD.
void AppendIdbFacts(const EvalDb& db, std::vector<Rule>* rules);

/// Rectifies a query atom: non-ground compound arguments become fresh
/// variables with functional goals appended to `*extra_goals`.
Atom RectifyAtom(Program* program, const Atom& atom,
                 std::vector<Atom>* extra_goals);

/// True when every atom of `rule` has only variable or ground
/// arguments.
bool IsFlatRule(const TermPool& pool, const Rule& rule);

}  // namespace chainsplit

#endif  // CHAINSPLIT_CORE_RECTIFY_H_
