#ifndef CHAINSPLIT_AST_AST_H_
#define CHAINSPLIT_AST_AST_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "ast/symbols.h"
#include "term/term.h"

namespace chainsplit {

/// A positive literal `p(t1, ..., tn)`. Builtins (comparisons,
/// arithmetic, `cons`) are ordinary atoms over reserved predicate names
/// (see engine/builtins.h); the AST does not distinguish them.
struct Atom {
  PredId pred = kNullPred;
  std::vector<TermId> args;

  friend bool operator==(const Atom&, const Atom&) = default;
};

/// A Horn clause `head :- body.` (a fact when `body` is empty).
struct Rule {
  Atom head;
  std::vector<Atom> body;

  friend bool operator==(const Rule&, const Rule&) = default;
};

/// A query `?- g1, ..., gk.`
struct Query {
  std::vector<Atom> goals;

  friend bool operator==(const Query&, const Query&) = default;
};

/// A logic program: IDB rules and queries over a shared TermPool /
/// PredicateTable, plus the ground facts parsed but not yet stored. The
/// pool is owned by the caller (usually a Database) so terms can be
/// shared with relations.
///
/// Facts do not stay here: the parser and the CSV loader stage them in
/// one flat buffer (per fact its predicate, then its arguments, with no
/// allocation per fact), and Database::LoadProgramFacts drains that
/// buffer into the relations and releases it. A loaded fact is held
/// once, in its relation.
class Program {
 public:
  explicit Program(TermPool* pool) : pool_(pool) {}
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  TermPool& pool() const { return *pool_; }
  PredicateTable& preds() { return preds_; }
  const PredicateTable& preds() const { return preds_; }

  /// Interns `name/arity` in this program's predicate table.
  PredId InternPred(std::string_view name, int arity) {
    return preds_.Intern(name, arity);
  }

  void AddRule(Rule rule) { rules_.push_back(std::move(rule)); }
  void AddQuery(Query query) { queries_.push_back(std::move(query)); }

  const std::vector<Rule>& rules() const { return rules_; }
  std::vector<Rule>& mutable_rules() { return rules_; }
  const std::vector<Query>& queries() const { return queries_; }

  /// Stages one ground fact of `pred` (args.size() == its arity) until
  /// the next Database::LoadProgramFacts.
  void StageFact(PredId pred, std::span<const TermId> args) {
    staged_.push_back(pred);
    staged_.insert(staged_.end(), args.begin(), args.end());
    ++num_staged_;
  }

  /// Facts staged and not yet loaded.
  int64_t num_staged_facts() const { return num_staged_; }

  /// Calls `fn(PredId, std::span<const TermId> args)` for every staged
  /// fact, in staging order.
  template <typename Fn>
  void ForEachStagedFact(Fn&& fn) const {
    for (size_t at = 0; at < staged_.size();) {
      const PredId pred = staged_[at++];
      const size_t arity = static_cast<size_t>(preds_.arity(pred));
      fn(pred, std::span<const TermId>(staged_.data() + at, arity));
      at += arity;
    }
  }

  /// Drops every staged fact and returns the buffer's memory.
  void ReleaseStagedFacts() {
    std::vector<int32_t>().swap(staged_);
    num_staged_ = 0;
  }

  /// Rollback support for transactional parsing: the parser appends
  /// clauses as it goes, so a parse error mid-text leaves a half-applied
  /// prefix behind. Callers that need all-or-nothing semantics (the
  /// query service's Update, which must keep the program consistent
  /// with its WAL) take a Marker first and RollbackTo it on failure.
  /// Interned terms and predicates are not rolled back — interning is
  /// idempotent and semantically inert.
  struct Marker {
    size_t rules = 0;
    size_t staged_cells = 0;
    int64_t staged_facts = 0;
    size_t queries = 0;
  };
  Marker Mark() const {
    return Marker{rules_.size(), staged_.size(), num_staged_,
                  queries_.size()};
  }
  void RollbackTo(const Marker& marker) {
    rules_.resize(marker.rules);
    staged_.resize(marker.staged_cells);
    num_staged_ = marker.staged_facts;
    queries_.resize(marker.queries);
  }

  /// All declared finiteness constraints (snapshot serialization).
  const std::unordered_map<PredId, std::vector<std::string>>& finite_modes()
      const {
    return finite_modes_;
  }

  /// Declares a finiteness constraint (§2.2 of the paper) for an IDB
  /// predicate: a call with (at least) the 'b' arguments of `adornment`
  /// bound has finitely many answers. EDB relations satisfy every mode
  /// trivially; builtins carry their modes intrinsically
  /// (BuiltinModeEvaluable). A declared mode lets the chain-split
  /// analysis place an IDB literal in the immediately evaluable portion
  /// instead of delaying it.
  void DeclareFiniteMode(PredId pred, std::string adornment) {
    finite_modes_[pred].push_back(std::move(adornment));
  }

  /// True when some declared mode of `pred` is covered by `boundness`
  /// (every 'b' of the mode is bound in `boundness`).
  bool HasFiniteMode(PredId pred, const std::string& boundness) const;

  /// Rules whose head predicate is `pred`.
  std::vector<const Rule*> RulesFor(PredId pred) const;

  /// True if some rule defines `pred` (it is an IDB predicate).
  bool IsIdb(PredId pred) const;

  /// Distinct variables of `rule` in first-occurrence order
  /// (head first, then body).
  std::vector<TermId> RuleVariables(const Rule& rule) const;

 private:
  TermPool* pool_;
  PredicateTable preds_;
  std::vector<Rule> rules_;
  // Staged facts, back to back: a PredId, then its arity many TermIds.
  static_assert(std::is_same_v<PredId, int32_t> &&
                std::is_same_v<TermId, int32_t>);
  std::vector<int32_t> staged_;
  int64_t num_staged_ = 0;
  std::vector<Query> queries_;
  std::unordered_map<PredId, std::vector<std::string>> finite_modes_;
};

/// Collects the distinct variables of `atom` in order into `*out`.
void CollectAtomVariables(const TermPool& pool, const Atom& atom,
                          std::vector<TermId>* out);

/// True when every argument of `atom` is ground.
bool IsGroundAtom(const TermPool& pool, const Atom& atom);

}  // namespace chainsplit

#endif  // CHAINSPLIT_AST_AST_H_
