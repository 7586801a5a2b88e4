#include "ast/ast.h"

#include <limits>

#include "common/logging.h"

namespace chainsplit {

void Program::AddFact(Atom fact) {
  CS_CHECK(fact.pred >= 0);
  CS_CHECK(facts_.size() < std::numeric_limits<uint32_t>::max());
  if (static_cast<size_t>(fact.pred) >= fact_positions_.size()) {
    fact_positions_.resize(fact.pred + 1);
  }
  fact_positions_[fact.pred].push_back(static_cast<uint32_t>(facts_.size()));
  facts_.push_back(std::move(fact));
}

const std::vector<uint32_t>& Program::FactPositions(PredId pred) const {
  static const std::vector<uint32_t> kNone;
  if (pred < 0 || static_cast<size_t>(pred) >= fact_positions_.size()) {
    return kNone;
  }
  return fact_positions_[pred];
}

void Program::RollbackTo(const Marker& marker) {
  rules_.resize(marker.rules);
  // Each predicate's positions ascend, so the dropped facts' positions
  // are at the back of their lists.
  while (facts_.size() > marker.facts) {
    fact_positions_[facts_.back().pred].pop_back();
    facts_.pop_back();
  }
  queries_.resize(marker.queries);
}

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
