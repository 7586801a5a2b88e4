#ifndef CHAINSPLIT_AST_PARSER_H_
#define CHAINSPLIT_AST_PARSER_H_

#include <string_view>

#include "ast/ast.h"
#include "common/status.h"

namespace chainsplit {

/// Parses Datalog-with-functions source into `*program`.
///
/// Syntax (Prolog-flavoured, as in the paper):
///
///   parent(tom, bob).                         % fact
///   sg(X, Y) :- sibling(X, Y).                % rule
///   sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
///   insert(X, [Y|Ys], [Y|Zs]) :- X > Y, insert(X, Ys, Zs).
///   travel(..) :- .., F is F1 + F2, ..        % arithmetic
///   ?- sg(tom, Y).                            % query
///
/// Desugaring performed here:
///   * `A < B`, `A =< B`, `A > B`, `A >= B`, `A = B`, `A \= B` become
///     atoms over the reserved comparison predicates.
///   * `Z is X + Y` becomes `sum(X, Y, Z)`; `Z is X - Y` becomes
///     `sum(Y, Z, X)`; `Z is X * Y` becomes `times(X, Y, Z)` —
///     the functional-predicate transformation of §1.2.
///   * List sugar `[a, b | T]` builds '.'(a, '.'(b, T)) terms.
///
/// Ground atoms with empty bodies are staged as EDB facts
/// (Program::StageFact, stored by Database::LoadProgramFacts), except
/// for rules over reserved builtin predicates, which are rejected;
/// non-ground ones become rules. Errors carry line:column positions.
///
/// The parser pulls tokens from the lexer as it goes (two tokens of
/// lookahead, each a view into `text`), so the text is never tokenized
/// up front and the first error in reading order wins: a syntax error
/// that comes before a bad character is reported, not the character
/// ("expected '.' at 1:6" for "p(a) q(b). r(&)."). A bad character
/// reads "unexpected character '&' at L:C"; an integer literal beyond
/// int64 and a term nested deeper than 1,000 levels are errors too.
/// Clauses before the error stay appended to `*program`; callers that
/// need all-or-nothing take a Program::Marker first and roll back to
/// it.
Status ParseProgram(std::string_view text, Program* program);

/// Parses exactly one query statement ("?- goals.") and returns it
/// WITHOUT appending it to `program->queries()`. Interning aside (the
/// pool and predicate table are internally synchronized), this leaves
/// `*program` untouched, so the query service can parse queries under
/// its shared (read) lock — and concurrently with other parses —
/// without growing the program's query list.
StatusOr<Query> ParseQueryOnly(std::string_view text, Program* program);

/// Parses a single term, e.g. "f(X, [1,2|T])". For tests and examples.
StatusOr<TermId> ParseTerm(std::string_view text, Program* program);

/// Parses a single atom, e.g. "sg(tom, Y)". For tests and examples.
StatusOr<Atom> ParseAtom(std::string_view text, Program* program);

}  // namespace chainsplit

#endif  // CHAINSPLIT_AST_PARSER_H_
