#include "core/bounded.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/strings.h"
#include "term/unify.h"

namespace chainsplit {
namespace {

/// Applies `perm` m times to position i.
int Iterate(const std::vector<int>& perm, int i, int m) {
  for (int step = 0; step < m; ++step) i = perm[i];
  return i;
}

/// Order of the permutation (smallest k > 0 with perm^k = id), or -1
/// when it exceeds `max_period`.
int PermutationOrder(const std::vector<int>& perm, int max_period) {
  std::vector<int> current(perm.size());
  std::iota(current.begin(), current.end(), 0);
  for (int k = 1; k <= max_period; ++k) {
    for (size_t i = 0; i < current.size(); ++i) {
      current[i] = perm[current[i]];
    }
    bool identity = true;
    for (size_t i = 0; i < current.size(); ++i) {
      identity = identity && current[i] == static_cast<int>(i);
    }
    if (identity) return k;
  }
  return -1;
}

}  // namespace

std::optional<BoundedUnfolding> DetectBoundedRecursion(
    Program* program, const std::vector<Rule>& rules, PredId pred,
    int max_period) {
  TermPool& pool = program->pool();

  const Rule* recursive = nullptr;
  std::vector<const Rule*> exits;
  for (const Rule& rule : rules) {
    if (rule.head.pred != pred) continue;
    int rec_literals = 0;
    for (const Atom& atom : rule.body) {
      if (atom.pred == pred) ++rec_literals;
    }
    if (rec_literals == 0) {
      exits.push_back(&rule);
    } else if (rec_literals == 1 && recursive == nullptr) {
      recursive = &rule;
    } else {
      return std::nullopt;  // nonlinear or multiple recursive rules
    }
  }
  if (recursive == nullptr) return std::nullopt;

  // Head arguments must be distinct variables.
  const Atom& head = recursive->head;
  for (size_t i = 0; i < head.args.size(); ++i) {
    if (!pool.IsVariable(head.args[i])) return std::nullopt;
    for (size_t j = 0; j < i; ++j) {
      if (head.args[i] == head.args[j]) return std::nullopt;
    }
  }
  // The recursive call's arguments must be a permutation of them.
  const Atom* rec_call = nullptr;
  for (const Atom& atom : recursive->body) {
    if (atom.pred == pred) rec_call = &atom;
  }
  const int n = static_cast<int>(head.args.size());
  std::vector<int> perm(n, -1);  // value position i takes from
  std::vector<bool> used(n, false);
  for (int i = 0; i < n; ++i) {
    auto it = std::find(head.args.begin(), head.args.end(),
                        rec_call->args[i]);
    if (it == head.args.end()) return std::nullopt;
    int j = static_cast<int>(it - head.args.begin());
    if (used[j]) return std::nullopt;  // repeated variable: not a perm
    used[j] = true;
    perm[i] = j;
  }

  int period = PermutationOrder(perm, max_period);
  if (period < 0) return std::nullopt;

  BoundedUnfolding unfolding;
  unfolding.period = period;
  PredId exit_pred = program->InternPred(
      StrCat(program->preds().name(pred), "$exit"), n);

  // Renamed exit rules.
  for (const Rule* exit : exits) {
    Rule renamed = *exit;
    renamed.head.pred = exit_pred;
    unfolding.rules.push_back(std::move(renamed));
  }

  // Non-recursive body of the recursive rule.
  std::vector<Atom> conditions;
  for (const Atom& atom : recursive->body) {
    if (&atom != rec_call) conditions.push_back(atom);
  }

  // Unfoldings j = 0 .. period-1.
  for (int j = 0; j < period; ++j) {
    Rule rule;
    rule.head = head;
    for (int m = 0; m < j; ++m) {
      // Substitution for step m: head var at position i becomes the
      // head var at position perm^m(i); other variables are freshened.
      std::unordered_map<TermId, TermId> subst;
      for (int i = 0; i < n; ++i) {
        subst[head.args[i]] = head.args[Iterate(perm, i, m)];
      }
      std::unordered_map<TermId, TermId> fresh;
      for (const Atom& atom : conditions) {
        Atom stepped = atom;
        for (TermId& arg : stepped.args) {
          if (!pool.IsVariable(arg)) {
            if (!pool.IsGround(arg)) {
              return std::nullopt;  // non-flat condition: stay general
            }
            continue;
          }
          auto it = subst.find(arg);
          if (it != subst.end()) {
            arg = it->second;
          } else {
            auto [fit, inserted] = fresh.try_emplace(arg, kNullTerm);
            if (inserted) fit->second = pool.FreshVariable(pool.name(arg));
            arg = fit->second;
          }
        }
        rule.body.push_back(std::move(stepped));
      }
    }
    Atom exit_call;
    exit_call.pred = exit_pred;
    for (int i = 0; i < n; ++i) {
      exit_call.args.push_back(head.args[Iterate(perm, i, j)]);
    }
    rule.body.push_back(std::move(exit_call));
    unfolding.rules.push_back(std::move(rule));
  }
  return unfolding;
}

}  // namespace chainsplit
