#include "ast/printer.h"

#include "ast/builtin_names.h"
#include "common/strings.h"

namespace chainsplit {
namespace {

bool IsComparisonName(const std::string& name) {
  return name == kPredLt || name == kPredLe || name == kPredGt ||
         name == kPredGe || name == kPredEq || name == kPredNe;
}

}  // namespace

std::string AtomToString(const Program& program, const Atom& atom) {
  const TermPool& pool = program.pool();
  const std::string& name = program.preds().name(atom.pred);
  if (atom.args.size() == 2 && IsComparisonName(name)) {
    return StrCat(pool.ToString(atom.args[0]), " ", name, " ",
                  pool.ToString(atom.args[1]));
  }
  if (atom.args.empty()) return name;
  std::vector<std::string> args;
  args.reserve(atom.args.size());
  for (TermId arg : atom.args) args.push_back(pool.ToString(arg));
  return StrCat(name, "(", StrJoin(args, ", "), ")");
}

std::string RuleToString(const Program& program, const Rule& rule) {
  std::string out = AtomToString(program, rule.head);
  if (!rule.body.empty()) {
    out += " :- ";
    std::vector<std::string> goals;
    goals.reserve(rule.body.size());
    for (const Atom& goal : rule.body) {
      goals.push_back(AtomToString(program, goal));
    }
    out += StrJoin(goals, ", ");
  }
  out += ".";
  return out;
}

std::string QueryToString(const Program& program, const Query& query) {
  std::vector<std::string> goals;
  goals.reserve(query.goals.size());
  for (const Atom& goal : query.goals) {
    goals.push_back(AtomToString(program, goal));
  }
  return StrCat("?- ", StrJoin(goals, ", "), ".");
}

std::string ProgramToString(const Program& program) {
  std::string out;
  program.ForEachStagedFact([&](PredId pred, std::span<const TermId> args) {
    out += AtomToString(program, Atom{pred, {args.begin(), args.end()}});
    out += ".\n";
  });
  for (const Rule& rule : program.rules()) {
    out += RuleToString(program, rule);
    out += "\n";
  }
  for (const Query& query : program.queries()) {
    out += QueryToString(program, query);
    out += "\n";
  }
  return out;
}

}  // namespace chainsplit
