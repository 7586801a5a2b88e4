#include "engine/topdown.h"

#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "engine/builtins.h"
#include "rel/relation.h"

namespace chainsplit {

/// One Solve() call: an iterative SLD machine. The resolvent is a list
/// of arena goals linked to their continuations. A goal's choice point
/// holds trail and arena marks and a cursor over its fact rows, then
/// its rules; taking the last alternative pops it. So a unit of depth
/// adds at most a choice point, a goal per body literal and a unifier.
class TopDownEvaluator::Impl {
 public:
  Impl(EvalDb* db, const TopDownOptions& options, TopDownStats* stats,
       const std::function<void(const Substitution&)>& on_solution)
      : db_(db),
        pool_(db->pool()),
        preds_(db->program().preds()),
        options_(options),
        stats_(stats),
        on_solution_(on_solution) {}

  Status Run(const std::vector<Atom>& goals) {
    int32_t resolvent = kNoGoal;
    for (size_t i = goals.size(); i-- > 0;) {
      resolvent = PushGoal(goals[i].pred, goals[i].args, resolvent);
    }
    int64_t depth = 0;  // resolution steps on the current branch
    bool live = true;
    while (stats_->solutions < options_.max_solutions &&
           (live || Backtrack(&resolvent, &depth))) {
      live = false;
      if (resolvent == kNoGoal) {
        ++stats_->solutions;
        on_solution_(subst_);
        continue;
      }
      if (++stats_->steps > options_.max_steps) {
        return ResourceExhaustedError(StrCat(
            "top-down evaluation exceeded ", options_.max_steps,
            " goal expansions"));
      }
      if ((stats_->steps & 1023) == 0) {
        CS_RETURN_IF_ERROR(CheckCancel(options_.cancel));
      }
      if (depth >= options_.max_depth) {
        return ResourceExhaustedError(
            StrCat("top-down derivation exceeded depth ", options_.max_depth,
                   " (non-terminating recursion?)"));
      }
      stats_->deepest = std::max(stats_->deepest, ++depth);
      const Goal goal = goals_[resolvent];
      if (IsBuiltinPred(preds_, goal.pred)) {
        CS_RETURN_IF_ERROR(EvalBuiltin(
            pool_, preds_, goal.pred,
            std::span<const TermId>(args_.data() + goal.args, goal.arity),
            &subst_, &live));
        resolvent = goal.next;
        continue;
      }
      // Open the goal's alternatives for Backtrack to try, probing its
      // fact rows on the columns its resolved arguments bind.
      Choice choice{.goal = resolvent, .depth = depth,
                    .trail = subst_.LogSize(), .goal_mark = goals_.size(),
                    .arg_mark = args_.size()};
      const Relation* rel = db_->GetRelation(goal.pred);
      if (rel != nullptr && !rel->empty()) {
        choice.rel = rel;
        columns_.clear();
        key_.clear();
        for (uint32_t c = 0; c < goal.arity; ++c) {
          TermId arg = subst_.Resolve(args_[goal.args + c], pool_);
          if (pool_.IsGround(arg)) {
            columns_.push_back(static_cast<int>(c));
            key_.push_back(arg);
          }
        }
        if (columns_.empty()) {
          choice.end = rel->num_rows();
        } else {
          choice.postings = rel->Probe(columns_, key_);
          choice.posting = choice.postings.begin();
        }
      }
      auto [rules, fresh] = rules_.try_emplace(goal.pred);
      if (fresh) rules->second = db_->program().RulesFor(goal.pred);
      choice.rules = &rules->second;
      if (!choice.Exhausted()) choices_.push_back(choice);
    }
    return Status::Ok();
  }

 private:
  static constexpr int32_t kNoGoal = -1;

  struct Goal {
    PredId pred;
    int32_t next;   // continuation: the goal proved after this one
    uint32_t args;  // offset of the arguments in args_
    uint32_t arity;
  };

  /// A selected goal's untried alternatives: the rows of `rel` (a scan
  /// of [row, end) or a probe's postings), then its rules.
  struct Choice {
    int32_t goal = kNoGoal;
    int64_t depth = 0;
    size_t trail = 0, goal_mark = 0, arg_mark = 0;
    const Relation* rel = nullptr;
    int64_t row = 0, end = 0;
    Relation::Postings postings{};
    Relation::Postings::const_iterator posting{};
    const std::vector<const Rule*>* rules = nullptr;
    size_t next_rule = 0;

    bool RowsLeft() const { return row < end || posting != postings.end(); }
    bool Exhausted() const { return !RowsLeft() && next_rule == rules->size(); }
  };

  int32_t PushGoal(PredId pred, std::span<const TermId> args, int32_t next) {
    goals_.push_back(Goal{pred, next, static_cast<uint32_t>(args_.size()),
                          static_cast<uint32_t>(args.size())});
    args_.insert(args_.end(), args.begin(), args.end());
    return static_cast<int32_t>(goals_.size() - 1);
  }

  /// Tries the untried alternatives of the latest choice points in
  /// order (each has one). True once one unifies, with `*resolvent` the
  /// new goal list; false when no choice point is left.
  bool Backtrack(int32_t* resolvent, int64_t* depth) {
    while (!choices_.empty()) {
      Choice& choice = choices_.back();
      subst_.RollbackTo(choice.trail);
      goals_.resize(choice.goal_mark);
      args_.resize(choice.arg_mark);
      *depth = choice.depth;
      const Goal goal = goals_[choice.goal];
      const Relation* rel = choice.RowsLeft() ? choice.rel : nullptr;
      const Rule* rule =
          rel != nullptr ? nullptr : (*choice.rules)[choice.next_rule++];
      const int64_t row = rel == nullptr          ? 0
                          : choice.row < choice.end ? choice.row++
                                                    : *choice.posting++;
      if (choice.Exhausted()) choices_.pop_back();
      bool ok = true;
      *resolvent = goal.next;
      if (rel != nullptr) {
        Relation::Row values = rel->row(row);
        for (size_t c = 0; c < values.size() && ok; ++c) {
          ok = Unify(pool_, args_[goal.args + c], values[c], &subst_);
        }
      } else {
        // Resolve with a copy of the rule standardized apart: the
        // resolvent becomes its renamed body followed by goal.next.
        renaming_.clear();
        for (size_t a = 0; a < rule->head.args.size() && ok; ++a) {
          TermId head_arg = RenameApart(pool_, rule->head.args[a], &renaming_);
          ok = Unify(pool_, args_[goal.args + a], head_arg, &subst_);
        }
        for (size_t b = rule->body.size(); ok && b-- > 0;) {
          renamed_.clear();
          for (TermId arg : rule->body[b].args) {
            renamed_.push_back(RenameApart(pool_, arg, &renaming_));
          }
          *resolvent = PushGoal(rule->body[b].pred, renamed_, *resolvent);
        }
      }
      if (ok) return true;
    }
    return false;
  }

  EvalDb* db_;
  TermPool& pool_;
  const PredicateTable& preds_;
  const TopDownOptions& options_;
  TopDownStats* stats_;
  const std::function<void(const Substitution&)>& on_solution_;
  std::vector<Goal> goals_;
  std::vector<TermId> args_;
  std::vector<Choice> choices_;
  Substitution subst_;
  std::unordered_map<PredId, std::vector<const Rule*>> rules_;
  std::unordered_map<TermId, TermId> renaming_;
  std::vector<int> columns_;
  Tuple key_;
  std::vector<TermId> renamed_;
};

TopDownEvaluator::TopDownEvaluator(EvalDb* db, TopDownOptions options)
    : db_(db), options_(options) {}

Status TopDownEvaluator::Solve(
    const std::vector<Atom>& goals,
    const std::function<void(const Substitution&)>& on_solution) {
  return Impl(db_, options_, &stats_, on_solution).Run(goals);
}

StatusOr<std::vector<std::vector<TermId>>> TopDownEvaluator::Answers(
    const std::vector<Atom>& goals, const std::vector<TermId>& vars) {
  std::vector<std::vector<TermId>> answers;
  std::unordered_set<Tuple, TupleHash> seen;
  TermPool& pool = db_->pool();
  Status status = Solve(goals, [&](const Substitution& subst) {
    std::vector<TermId> row;
    row.reserve(vars.size());
    for (TermId v : vars) row.push_back(subst.Resolve(v, pool));
    if (seen.insert(row).second) answers.push_back(std::move(row));
  });
  CS_RETURN_IF_ERROR(status);
  return answers;
}

}  // namespace chainsplit
