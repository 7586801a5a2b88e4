#include "ast/ast.h"

namespace chainsplit {

bool Program::HasFiniteMode(PredId pred, const std::string& boundness) const {
  auto it = finite_modes_.find(pred);
  if (it == finite_modes_.end()) return false;
  for (const std::string& mode : it->second) {
    if (mode.size() != boundness.size()) continue;
    bool covered = true;
    for (size_t i = 0; i < mode.size(); ++i) {
      covered = covered && (mode[i] != 'b' || boundness[i] == 'b');
    }
    if (covered) return true;
  }
  return false;
}

std::vector<const Rule*> Program::RulesFor(PredId pred) const {
  std::vector<const Rule*> out;
  for (const Rule& rule : rules_) {
    if (rule.head.pred == pred) out.push_back(&rule);
  }
  return out;
}

bool Program::IsIdb(PredId pred) const {
  for (const Rule& rule : rules_) {
    if (rule.head.pred == pred) return true;
  }
  return false;
}

std::vector<TermId> Program::RuleVariables(const Rule& rule) const {
  std::vector<TermId> vars;
  for (TermId arg : rule.head.args) pool_->CollectVariables(arg, &vars);
  for (const Atom& atom : rule.body) {
    for (TermId arg : atom.args) pool_->CollectVariables(arg, &vars);
  }
  return vars;
}

void CollectAtomVariables(const TermPool& pool, const Atom& atom,
                          std::vector<TermId>* out) {
  for (TermId arg : atom.args) pool.CollectVariables(arg, out);
}

bool IsGroundAtom(const TermPool& pool, const Atom& atom) {
  for (TermId arg : atom.args) {
    if (!pool.IsGround(arg)) return false;
  }
  return true;
}

}  // namespace chainsplit
