#ifndef CHAINSPLIT_AST_PRINTER_H_
#define CHAINSPLIT_AST_PRINTER_H_

#include <string>

#include "ast/ast.h"

namespace chainsplit {

/// Renders `atom` in source syntax, e.g. "sg(tom, Y)". Comparison
/// builtins are rendered infix ("X > Y").
std::string AtomToString(const Program& program, const Atom& atom);

/// Renders `rule` as "head :- b1, ..., bk." (or "head." for a fact).
std::string RuleToString(const Program& program, const Rule& rule);

/// Renders `query` as "?- g1, ..., gk.".
std::string QueryToString(const Program& program, const Query& query);

/// Renders the whole program: staged (not yet loaded) facts, then
/// rules, then queries. Loaded facts live in relations, not here.
std::string ProgramToString(const Program& program);

}  // namespace chainsplit

#endif  // CHAINSPLIT_AST_PRINTER_H_
