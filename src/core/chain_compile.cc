#include "core/chain_compile.h"

#include <algorithm>
#include <numeric>

#include "ast/printer.h"
#include "common/strings.h"

namespace chainsplit {
namespace {

/// Union-find over literal indexes.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

StatusOr<CompiledChain> CompileChain(const Program& program,
                                     const std::vector<Rule>& rules,
                                     PredId pred) {
  const TermPool& pool = program.pool();
  CompiledChain chain;
  chain.pred = pred;

  int recursive_rules = 0;
  for (const Rule& rule : rules) {
    if (rule.head.pred != pred) continue;
    int rec_literals = 0;
    int rec_index = -1;
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].pred == pred) {
        ++rec_literals;
        rec_index = static_cast<int>(i);
      }
    }
    if (rec_literals == 0) {
      chain.exit_rules.push_back(rule);
    } else if (rec_literals == 1) {
      ++recursive_rules;
      chain.recursive_rule = rule;
      chain.recursive_literal = rec_index;
    } else {
      return UnimplementedError(
          StrCat("nonlinear rule for ", program.preds().Display(pred),
                 " cannot be compiled into a chain form"));
    }
  }
  if (recursive_rules == 0) {
    return InvalidArgumentError(StrCat(program.preds().Display(pred),
                                       " has no recursive rule"));
  }
  if (recursive_rules > 1) {
    return UnimplementedError(
        StrCat(program.preds().Display(pred),
               " has multiple recursive rules (multi-chain-form recursions"
               " are out of scope)"));
  }
  if (chain.exit_rules.empty()) {
    return InvalidArgumentError(StrCat(program.preds().Display(pred),
                                       " has no exit rule"));
  }

  // Partition the non-recursive literals into connected components by
  // shared variables.
  const Rule& rule = chain.recursive_rule;
  std::vector<int> path_literals;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (static_cast<int>(i) != chain.recursive_literal) {
      path_literals.push_back(static_cast<int>(i));
    }
  }
  std::vector<std::vector<TermId>> vars(path_literals.size());
  for (size_t i = 0; i < path_literals.size(); ++i) {
    CollectAtomVariables(pool, rule.body[path_literals[i]], &vars[i]);
  }
  UnionFind uf(static_cast<int>(path_literals.size()));
  for (size_t i = 0; i < path_literals.size(); ++i) {
    for (size_t j = i + 1; j < path_literals.size(); ++j) {
      bool shares = false;
      for (TermId v : vars[i]) {
        if (std::find(vars[j].begin(), vars[j].end(), v) != vars[j].end()) {
          shares = true;
          break;
        }
      }
      if (shares) uf.Union(static_cast<int>(i), static_cast<int>(j));
    }
  }

  std::vector<TermId> head_vars;
  for (TermId arg : chain.head().args) pool.CollectVariables(arg, &head_vars);
  std::vector<TermId> rec_vars;
  for (TermId arg : chain.recursive_call().args) {
    pool.CollectVariables(arg, &rec_vars);
  }

  std::vector<int> roots;
  for (size_t i = 0; i < path_literals.size(); ++i) {
    int root = uf.Find(static_cast<int>(i));
    if (std::find(roots.begin(), roots.end(), root) == roots.end()) {
      roots.push_back(root);
      chain.paths.emplace_back();
    }
    ChainPath& path =
        chain.paths[std::find(roots.begin(), roots.end(), root) -
                    roots.begin()];
    path.literals.push_back(path_literals[i]);
    for (TermId v : vars[i]) {
      if (std::find(head_vars.begin(), head_vars.end(), v) !=
              head_vars.end() &&
          std::find(path.head_vars.begin(), path.head_vars.end(), v) ==
              path.head_vars.end()) {
        path.head_vars.push_back(v);
      }
      if (std::find(rec_vars.begin(), rec_vars.end(), v) != rec_vars.end() &&
          std::find(path.rec_vars.begin(), path.rec_vars.end(), v) ==
              path.rec_vars.end()) {
        path.rec_vars.push_back(v);
      }
    }
  }
  return chain;
}

std::string CompiledChainToString(const Program& program,
                                  const CompiledChain& chain) {
  const TermPool& pool = program.pool();
  std::string out =
      StrCat("compiled chain for ", program.preds().Display(chain.pred),
             " (", chain.paths.size(), " chain generating path(s))\n");
  out += StrCat("  recursive rule: ",
                RuleToString(program, chain.recursive_rule), "\n");
  for (size_t p = 0; p < chain.paths.size(); ++p) {
    const ChainPath& path = chain.paths[p];
    out += StrCat("  path ", p, ": {");
    std::vector<std::string> lits;
    for (int i : path.literals) {
      lits.push_back(AtomToString(program, chain.recursive_rule.body[i]));
    }
    out += StrJoin(lits, ", ");
    out += "}  head-vars {";
    std::vector<std::string> names;
    for (TermId v : path.head_vars) names.push_back(pool.ToString(v));
    out += StrJoin(names, ", ");
    out += "}  rec-vars {";
    names.clear();
    for (TermId v : path.rec_vars) names.push_back(pool.ToString(v));
    out += StrJoin(names, ", ");
    out += "}\n";
  }
  for (const Rule& exit : chain.exit_rules) {
    out += StrCat("  exit: ", RuleToString(program, exit), "\n");
  }
  return out;
}

}  // namespace chainsplit
