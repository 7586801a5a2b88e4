#include "term/unify.h"

#include <algorithm>

namespace chainsplit {

TermId Substitution::Walk(TermId t, const TermPool& pool) const {
  while (pool.IsVariable(t)) {
    auto it = bindings_.find(t);
    if (it == bindings_.end()) return t;
    t = it->second;
  }
  return t;
}

void Substitution::Bind(TermId var, TermId term) {
  CS_DCHECK(bindings_.find(var) == bindings_.end())
      << "rebinding a bound variable";
  bindings_.emplace(var, term);
  log_.push_back(var);
}

void Substitution::RollbackTo(size_t mark) {
  CS_DCHECK(mark <= log_.size()) << "rollback mark from the future";
  while (log_.size() > mark) {
    bindings_.erase(log_.back());
    log_.pop_back();
  }
}

TermId Substitution::Lookup(TermId var) const {
  auto it = bindings_.find(var);
  return it == bindings_.end() ? kNullTerm : it->second;
}

TermId Substitution::Resolve(TermId t, TermPool& pool) const {
  // Loops down the last argument (a list's tail) and recurses only into
  // the others, so a long resolved list costs heap, not machine stack.
  // Terms are interned in the order a plain recursion would make them.
  std::vector<std::pair<TermId, std::vector<TermId>>> spine;
  for (t = Walk(t, pool); pool.IsCompound(t) && !pool.IsGround(t);
       t = Walk(pool.args(t).back(), pool)) {
    std::vector<TermId> resolved;
    for (TermId a : pool.args(t).first(pool.args(t).size() - 1)) {
      resolved.push_back(Resolve(a, pool));
    }
    spine.emplace_back(t, std::move(resolved));
  }
  for (size_t i = spine.size(); i-- > 0;) {
    auto& [term, resolved] = spine[i];
    resolved.push_back(t);
    auto args = pool.args(term);
    t = term;
    if (!std::equal(resolved.begin(), resolved.end(), args.begin())) {
      // functor() returns a reference into the pool's name table which
      // can be invalidated by interning; copy before MakeCompound.
      std::string functor = pool.functor(term);
      t = pool.MakeCompound(functor, resolved);
    }
  }
  return t;
}

bool OccursIn(const TermPool& pool, const Substitution& subst, TermId var,
              TermId t) {
  t = subst.Walk(t, pool);
  if (t == var) return true;
  if (!pool.IsCompound(t)) return false;
  for (TermId a : pool.args(t)) {
    if (OccursIn(pool, subst, var, a)) return true;
  }
  return false;
}

bool Unify(const TermPool& pool, TermId a, TermId b, Substitution* subst,
           bool occurs_check) {
  a = subst->Walk(a, pool);
  b = subst->Walk(b, pool);
  if (a == b) return true;
  if (pool.IsVariable(a)) {
    if (occurs_check && OccursIn(pool, *subst, a, b)) return false;
    subst->Bind(a, b);
    return true;
  }
  if (pool.IsVariable(b)) {
    if (occurs_check && OccursIn(pool, *subst, b, a)) return false;
    subst->Bind(b, a);
    return true;
  }
  if (!pool.IsCompound(a) || !pool.IsCompound(b)) {
    // Distinct ground atomic terms (hash-consing guarantees a != b means
    // structural difference).
    return false;
  }
  if (pool.functor(a) != pool.functor(b)) return false;
  auto args_a = pool.args(a);
  auto args_b = pool.args(b);
  if (args_a.size() != args_b.size()) return false;
  for (size_t i = 0; i < args_a.size(); ++i) {
    if (!Unify(pool, args_a[i], args_b[i], subst, occurs_check)) {
      return false;
    }
  }
  return true;
}

TermId RenameApart(TermPool& pool, TermId t,
                   std::unordered_map<TermId, TermId>* renaming) {
  switch (pool.kind(t)) {
    case TermKind::kInt:
    case TermKind::kSymbol:
      return t;
    case TermKind::kVariable: {
      auto it = renaming->find(t);
      if (it != renaming->end()) return it->second;
      TermId fresh = pool.FreshVariable(pool.name(t));
      renaming->emplace(t, fresh);
      return fresh;
    }
    case TermKind::kCompound: {
      if (pool.IsGround(t)) return t;
      std::vector<TermId> renamed;
      auto args = pool.args(t);
      renamed.reserve(args.size());
      for (TermId a : args) renamed.push_back(RenameApart(pool, a, renaming));
      std::string functor = pool.functor(t);
      return pool.MakeCompound(functor, renamed);
    }
  }
  return t;
}

}  // namespace chainsplit
