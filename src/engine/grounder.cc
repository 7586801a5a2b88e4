#include "engine/grounder.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "term/unify.h"

namespace chainsplit {
namespace {

StatusOr<ArgPattern> CompileArg(const Program& program, TermId arg,
                                const std::vector<TermId>& slot_vars) {
  const TermPool& pool = program.pool();
  ArgPattern pattern;
  if (pool.IsVariable(arg)) {
    auto it = std::find(slot_vars.begin(), slot_vars.end(), arg);
    CS_CHECK(it != slot_vars.end()) << "variable missing from slot map";
    pattern.is_slot = true;
    pattern.slot = static_cast<int>(it - slot_vars.begin());
    return pattern;
  }
  if (!pool.IsGround(arg)) {
    return InvalidArgumentError(
        StrCat("rule is not flat (non-ground compound argument ",
               pool.ToString(arg), "); rectify it first"));
  }
  pattern.constant = arg;
  return pattern;
}

/// True when the builtin literal is evaluable given currently bound
/// slots. `=` needs one side bound to keep derived tuples ground.
bool LiteralEvaluable(const CompiledLiteral& lit,
                      const std::vector<bool>& slot_bound) {
  std::vector<bool> bound(lit.args.size());
  for (size_t i = 0; i < lit.args.size(); ++i) {
    bound[i] = !lit.args[i].is_slot || slot_bound[lit.args[i].slot];
  }
  if (lit.builtin == BuiltinKind::kEq) {
    return bound[0] || bound[1];
  }
  return BuiltinModeEvaluable(lit.builtin, bound);
}

int CountBoundArgs(const CompiledLiteral& lit,
                   const std::vector<bool>& slot_bound) {
  int n = 0;
  for (const ArgPattern& a : lit.args) {
    if (!a.is_slot || slot_bound[a.slot]) ++n;
  }
  return n;
}

void MarkBound(const CompiledLiteral& lit, std::vector<bool>* slot_bound) {
  for (const ArgPattern& a : lit.args) {
    if (a.is_slot) (*slot_bound)[a.slot] = true;
  }
}

}  // namespace

StatusOr<CompiledRule> CompileRule(const Program& program, const Rule& rule,
                                   int first_literal,
                                   const CardinalityEstimator& estimator) {
  CompiledRule compiled;
  compiled.source = rule;
  compiled.head_pred = rule.head.pred;
  compiled.slot_vars = program.RuleVariables(rule);

  for (TermId arg : rule.head.args) {
    CS_ASSIGN_OR_RETURN(ArgPattern p,
                        CompileArg(program, arg, compiled.slot_vars));
    compiled.head_args.push_back(p);
  }
  for (const Atom& atom : rule.body) {
    CompiledLiteral lit;
    lit.pred = atom.pred;
    lit.builtin = GetBuiltinKind(program.preds(), atom.pred);
    for (TermId arg : atom.args) {
      CS_ASSIGN_OR_RETURN(ArgPattern p,
                          CompileArg(program, arg, compiled.slot_vars));
      lit.args.push_back(p);
    }
    compiled.body.push_back(std::move(lit));
  }

  // Greedy schedule: builtins as soon as they become evaluable (cheap
  // deterministic filters), otherwise the cheapest relation literal.
  // A literal with a bound argument (an indexable probe) always beats
  // one with none (a scan); within a class the estimator's expansion
  // ratio decides, else the bound-argument count. Estimates are read
  // once, before the fixpoint, when magic and answer relations are
  // empty or tiny, so a ratio alone would rank their scans ahead of
  // bound probes. This is also the engine-level finite-evaluability
  // analysis: if it gets stuck, the rule cannot be evaluated bottom-up
  // and needs chain-split first.
  std::vector<bool> chosen(compiled.body.size(), false);
  std::vector<bool> slot_bound(compiled.slot_vars.size(), false);

  if (first_literal >= 0) {
    CS_CHECK(first_literal < static_cast<int>(compiled.body.size()))
        << "first_literal out of range";
    const CompiledLiteral& lit = compiled.body[first_literal];
    if (lit.builtin != BuiltinKind::kNone) {
      return InvalidArgumentError(
          "semi-naive delta literal must be a relation literal");
    }
    compiled.order.push_back(first_literal);
    chosen[first_literal] = true;
    MarkBound(lit, &slot_bound);
  }

  while (compiled.order.size() < compiled.body.size()) {
    int pick = -1;
    // Pass 1: evaluable builtins, in source order.
    for (size_t i = 0; i < compiled.body.size(); ++i) {
      if (chosen[i] || compiled.body[i].builtin == BuiltinKind::kNone) {
        continue;
      }
      if (LiteralEvaluable(compiled.body[i], slot_bound)) {
        pick = static_cast<int>(i);
        break;
      }
    }
    // Pass 2: the relation literal with the smallest key (unbound,
    // cost), where cost is the estimated join expansion when statistics
    // are available (access-path selection), else minus the bound
    // arguments. Ties keep source order.
    if (pick < 0) {
      std::pair<bool, double> best_key;
      for (size_t i = 0; i < compiled.body.size(); ++i) {
        if (chosen[i] || compiled.body[i].builtin != BuiltinKind::kNone) {
          continue;
        }
        const CompiledLiteral& lit = compiled.body[i];
        const int bound_args = CountBoundArgs(lit, slot_bound);
        double cost;
        if (estimator != nullptr) {
          std::string adornment;
          for (const ArgPattern& a : lit.args) {
            adornment.push_back(!a.is_slot || slot_bound[a.slot] ? 'b'
                                                                 : 'f');
          }
          cost = estimator(lit.pred, adornment);
        } else {
          cost = -static_cast<double>(bound_args);
        }
        const std::pair<bool, double> key(bound_args == 0, cost);
        if (pick < 0 || key < best_key) {
          best_key = key;
          pick = static_cast<int>(i);
        }
      }
    }
    if (pick < 0) {
      // Only unevaluable builtins remain.
      for (size_t i = 0; i < compiled.body.size(); ++i) {
        if (!chosen[i]) {
          return NotFinitelyEvaluableError(StrCat(
              "literal ", program.preds().Display(compiled.body[i].pred),
              " in rule for ", program.preds().Display(rule.head.pred),
              " is never evaluable bottom-up; chain-split required"));
        }
      }
    }
    compiled.order.push_back(pick);
    chosen[pick] = true;
    MarkBound(compiled.body[pick], &slot_bound);
  }

  for (const ArgPattern& p : compiled.head_args) {
    if (p.is_slot && !slot_bound[p.slot]) {
      return NotFinitelyEvaluableError(
          StrCat("rule for ", program.preds().Display(rule.head.pred),
                 " is not range-restricted: head variable ",
                 program.pool().ToString(compiled.slot_vars[p.slot]),
                 " is never bound"));
    }
  }
  return compiled;
}

namespace {

/// One bottom-up evaluation of a compiled rule: backtracking join over
/// the scheduled literal order, carrying slot values. The join steps
/// return false to unwind after an error, which is kept in `error_`, so
/// the per-tuple path carries no Status.
class RuleRun {
 public:
  RuleRun(EvalDb* db, const CompiledRule& rule, int delta_literal,
          RowRange delta, std::vector<TermId>* out, EvalCounters* counters)
      : pool_(db->pool()),
        preds_(db->program().preds()),
        rule_(rule),
        delta_literal_(delta_literal),
        delta_(delta),
        out_(out),
        counters_(counters),
        slots_(rule.slot_vars.size(), kNullTerm),
        probe_scratch_(rule.order.size()) {
    for (const CompiledLiteral& lit : rule.body) {
      rels_.push_back(db->GetRelation(lit.pred));
    }
  }

  Status Run() {
    Recurse(0);
    return std::move(error_);
  }

 private:
  TermId ArgValue(const ArgPattern& p) const {
    return p.is_slot ? slots_[p.slot] : p.constant;
  }

  bool Recurse(size_t pos) {
    if (pos == rule_.order.size()) return EmitHead();
    const int lit_index = rule_.order[pos];
    const CompiledLiteral& lit = rule_.body[lit_index];
    if (lit.builtin != BuiltinKind::kNone) {
      return EvalBuiltinLiteral(pos, lit);
    }
    return EvalRelationLiteral(pos, lit_index, lit);
  }

  bool EmitHead() {
    for (const ArgPattern& p : rule_.head_args) {
      TermId v = ArgValue(p);
      CS_DCHECK(v != kNullTerm) << "unbound head slot at emission";
      out_->push_back(v);
    }
    ++counters_->derivations;
    return true;
  }

  bool EvalBuiltinLiteral(size_t pos, const CompiledLiteral& lit) {
    ++counters_->builtin_calls;
    // Bound arguments are passed as their ground values; unbound ones as
    // the rule's variable terms, whose bindings we read back.
    std::vector<TermId> args;
    args.reserve(lit.args.size());
    std::vector<int> unbound_slots;
    for (const ArgPattern& p : lit.args) {
      TermId v = ArgValue(p);
      if (v != kNullTerm) {
        args.push_back(v);
      } else {
        args.push_back(rule_.slot_vars[p.slot]);
        unbound_slots.push_back(p.slot);
      }
    }
    Substitution subst;
    bool ok = false;
    error_ = EvalBuiltin(pool_, preds_, lit.pred, args, &subst, &ok);
    if (!error_.ok()) return false;
    if (!ok) return true;
    std::vector<int> bound_here;
    for (int slot : unbound_slots) {
      if (slots_[slot] != kNullTerm) continue;  // repeated variable
      TermId value = subst.Resolve(rule_.slot_vars[slot], pool_);
      if (!pool_.IsGround(value)) {
        error_ = NotFinitelyEvaluableError(
            StrCat("builtin ", preds_.Display(lit.pred),
                   " produced a non-ground value bottom-up"));
        return false;
      }
      slots_[slot] = value;
      bound_here.push_back(slot);
    }
    const bool more = Recurse(pos + 1);
    for (int slot : bound_here) slots_[slot] = kNullTerm;
    return more;
  }

  bool EvalRelationLiteral(size_t pos, int lit_index,
                           const CompiledLiteral& lit) {
    const Relation* rel = rels_[lit_index];
    if (rel == nullptr) return true;
    const bool is_delta = lit_index == delta_literal_;
    const RowRange range = is_delta ? delta_ : RowRange{0, rel->num_rows()};
    CS_DCHECK(range.end <= rel->num_rows()) << "delta beyond relation";
    if (range.empty()) return true;

    // Probe on the bound columns when there are any. The scratch
    // buffers are per recursion depth, so nested literals reuse their
    // own without allocating on every binding.
    ProbeScratch& scratch = probe_scratch_[pos];
    scratch.columns.clear();
    scratch.key.clear();
    for (size_t c = 0; c < lit.args.size(); ++c) {
      TermId v = ArgValue(lit.args[c]);
      if (v != kNullTerm) {
        scratch.columns.push_back(static_cast<int>(c));
        scratch.key.push_back(v);
      }
    }

    auto try_row = [&](Relation::Row row) -> bool {
      ++counters_->tuples_considered;
      std::vector<int>& bound_here = probe_scratch_[pos].bound_slots;
      bound_here.clear();
      bool match = true;
      for (size_t c = 0; c < lit.args.size(); ++c) {
        const ArgPattern& p = lit.args[c];
        TermId v = ArgValue(p);
        if (v != kNullTerm) {
          if (v != row[c]) {
            match = false;
            break;
          }
        } else {
          slots_[p.slot] = row[c];
          bound_here.push_back(p.slot);
        }
      }
      const bool more = !match || Recurse(pos + 1);
      for (int slot : probe_scratch_[pos].bound_slots) {
        slots_[slot] = kNullTerm;
      }
      return more;
    };

    // A delta range has no index of its own: it is scanned, and
    // try_row filters on whatever is bound.
    if (scratch.columns.empty() || is_delta) {
      for (int64_t i = range.begin; i < range.end; ++i) {
        if (!try_row(rel->row(i))) return false;
      }
      return true;
    }
    bool more = true;
    rel->ProbeEach(scratch.columns, scratch.key.data(), [&](int64_t i) {
      if (more) more = try_row(rel->row(i));
    });
    return more;
  }

  /// Reusable probe buffers, one set per scheduled literal position so
  /// the nested join never allocates per binding.
  struct ProbeScratch {
    std::vector<int> columns;
    Tuple key;
    std::vector<int> bound_slots;
  };

  TermPool& pool_;
  const PredicateTable& preds_;
  const CompiledRule& rule_;
  int delta_literal_;
  RowRange delta_;
  std::vector<TermId>* out_;
  EvalCounters* counters_;
  std::vector<const Relation*> rels_;  // per body literal; null = none
  std::vector<TermId> slots_;
  std::vector<ProbeScratch> probe_scratch_;
  Status error_;
};

}  // namespace

Status EvaluateRule(EvalDb* db, const CompiledRule& rule, int delta_literal,
                    RowRange delta, std::vector<TermId>* out,
                    EvalCounters* counters) {
  return RuleRun(db, rule, delta_literal, delta, out, counters).Run();
}

}  // namespace chainsplit
