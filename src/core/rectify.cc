#include "core/rectify.h"

#include <unordered_set>

#include "ast/builtin_names.h"
#include "engine/builtins.h"

namespace chainsplit {
namespace {

/// Replaces a non-ground compound `term` by a fresh variable, emitting
/// the functional-predicate goals that define it. Nested compounds
/// recurse, innermost first, so each emitted goal has flat arguments.
TermId FlattenTerm(Program* program, TermId term, std::vector<Atom>* goals) {
  TermPool& pool = program->pool();
  if (!pool.IsCompound(term) || pool.IsGround(term)) return term;

  std::vector<TermId> flat_args;
  for (TermId arg : pool.args(term)) {
    flat_args.push_back(FlattenTerm(program, arg, goals));
  }
  std::string functor = pool.functor(term);
  TermId value = pool.FreshVariable("V");

  Atom goal;
  if (functor == kConsFunctor) {
    goal.pred = program->InternPred(kPredCons, 3);
  } else {
    goal.pred = program->InternPred(
        MkCompoundPredName(functor), static_cast<int>(flat_args.size()) + 1);
  }
  goal.args = std::move(flat_args);
  goal.args.push_back(value);
  goals->push_back(std::move(goal));
  return value;
}

Atom FlattenAtom(Program* program, const Atom& atom,
                 std::vector<Atom>* goals) {
  Atom flat = atom;
  for (TermId& arg : flat.args) {
    arg = FlattenTerm(program, arg, goals);
  }
  return flat;
}

}  // namespace

bool IsFlatRule(const TermPool& pool, const Rule& rule) {
  auto flat_atom = [&](const Atom& atom) {
    for (TermId arg : atom.args) {
      if (pool.IsCompound(arg) && !pool.IsGround(arg)) return false;
    }
    return true;
  };
  if (!flat_atom(rule.head)) return false;
  for (const Atom& atom : rule.body) {
    if (!flat_atom(atom)) return false;
  }
  return true;
}

Rule RectifyRule(Program* program, const Rule& rule) {
  if (IsFlatRule(program->pool(), rule)) return rule;
  Rule flat;
  // Head decomposition goals go in front of the body: under a bound
  // head argument they *decompose* the input (cons^ffb), which is what
  // the forward portion of a chain consumes first.
  std::vector<Atom> head_goals;
  flat.head = FlattenAtom(program, rule.head, &head_goals);
  flat.body = std::move(head_goals);
  for (const Atom& atom : rule.body) {
    std::vector<Atom> goals;
    Atom flat_atom = FlattenAtom(program, atom, &goals);
    // Argument-definition goals precede the atom that uses them.
    for (Atom& g : goals) flat.body.push_back(std::move(g));
    flat.body.push_back(std::move(flat_atom));
  }
  return flat;
}

std::vector<Rule> RectifyRules(Program* program) {
  std::vector<Rule> rectified;
  rectified.reserve(program->rules().size());
  for (const Rule& rule : program->rules()) {
    rectified.push_back(RectifyRule(program, rule));
  }
  return rectified;
}

void AppendIdbFacts(const EvalDb& db, std::vector<Rule>* rules) {
  std::unordered_set<PredId> idb;
  for (size_t r = 0, num_rules = rules->size(); r < num_rules; ++r) {
    const PredId pred = (*rules)[r].head.pred;
    const Relation* rel =
        idb.insert(pred).second ? db.GetRelation(pred) : nullptr;
    for (int64_t i = 0; rel != nullptr && i < rel->num_rows(); ++i) {
      rules->push_back(Rule{Atom{pred, rel->row(i)}, {}});
    }
  }
}

Atom RectifyAtom(Program* program, const Atom& atom,
                 std::vector<Atom>* extra_goals) {
  return FlattenAtom(program, atom, extra_goals);
}

}  // namespace chainsplit
