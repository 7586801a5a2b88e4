#include "core/plan_signature.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "engine/builtins.h"

namespace chainsplit {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsVariableStart(char c) {
  // Mirrors the parser's lexer: uppercase- or '_'-initial identifiers
  // are variables.
  return std::isupper(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

std::optional<CanonicalQueryText> CanonicalizeQueryText(
    std::string_view text) {
  CanonicalQueryText out;
  std::unordered_map<std::string, size_t> var_index;
  bool saw_dot = false;
  size_t i = 0;
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '%') {  // comment to end of line
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    if (saw_dot) return std::nullopt;  // trailing non-space after '.'
    if (IsIdentChar(c)) {
      size_t start = i;
      while (i < text.size() && IsIdentChar(text[i])) ++i;
      std::string token(text.substr(start, i - start));
      if (token == "_") {
        // The parser makes each bare `_` a fresh variable; mirror that
        // (p(_,_) must not share a key with p(X,X)).
        const size_t idx = var_index.size();
        out.key += StrCat("V", idx);
        var_index.emplace(StrCat("_#", idx), idx);
        out.vars.push_back(token);
      } else if (IsVariableStart(token[0])) {
        auto [it, inserted] =
            var_index.emplace(token, var_index.size());
        if (inserted) out.vars.push_back(token);
        out.key += StrCat("V", it->second);
      } else {
        out.key += token;
      }
      continue;
    }
    out.key.push_back(c);
    // A '.' terminates the statement unless it opens a float-like or
    // operator sequence; the parser has no such forms, so any '.'
    // outside an identifier is the clause terminator.
    if (c == '.') saw_dot = true;
    ++i;
  }
  if (!saw_dot) return std::nullopt;
  if (out.key.size() < 3 || out.key[0] != '?' || out.key[1] != '-') {
    return std::nullopt;
  }
  return out;
}

std::vector<PredId> ReachablePreds(const Program& program,
                                   const Query& query) {
  std::unordered_set<PredId> seen;
  std::vector<PredId> frontier;
  auto visit = [&](PredId pred) {
    if (IsBuiltinPred(program.preds(), pred)) return;
    if (seen.insert(pred).second) frontier.push_back(pred);
  };
  for (const Atom& goal : query.goals) visit(goal.pred);
  while (!frontier.empty()) {
    PredId pred = frontier.back();
    frontier.pop_back();
    for (const Rule* rule : program.RulesFor(pred)) {
      for (const Atom& atom : rule->body) visit(atom.pred);
    }
  }
  std::vector<PredId> preds(seen.begin(), seen.end());
  std::sort(preds.begin(), preds.end());
  return preds;
}

}  // namespace chainsplit
