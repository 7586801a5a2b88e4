#ifndef CHAINSPLIT_CORE_PLAN_SIGNATURE_H_
#define CHAINSPLIT_CORE_PLAN_SIGNATURE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ast/ast.h"

namespace chainsplit {

/// Result-cache keys and dependencies for the query service
/// (src/service/): two queries share a key iff they are the same query
/// up to variable renaming and whitespace, and a cached result depends
/// on the relations its query can read.

/// Purely lexical canonical form of one query statement. Variables are
/// renamed V0, V1, ... by first occurrence; whitespace and comments
/// are dropped; everything else (constants included) is kept verbatim.
/// Crucially this never touches a TermPool or Program, so the service
/// can compute result-cache keys under a shared (read) lock without
/// parsing — parsing interns terms, which is a write.
struct CanonicalQueryText {
  std::string key;                 // e.g. "?-tc(a,V0),V0\\=b."
  std::vector<std::string> vars;   // original names, first-occurrence order
};

/// Canonicalizes `text` when it is a single query statement (starts
/// with `?-`, ends with `.`); nullopt otherwise (facts, rules,
/// commands, or trailing garbage after the terminating dot).
std::optional<CanonicalQueryText> CanonicalizeQueryText(
    std::string_view text);

/// Every non-builtin predicate whose relation the evaluation of
/// `query` may read: the query's own goal predicates plus the body
/// predicates of all transitively reachable rules (IDB predicates
/// included — they can carry EDB facts). Sorted ascending, so the
/// service can snapshot relation versions in a deterministic order.
std::vector<PredId> ReachablePreds(const Program& program,
                                   const Query& query);

}  // namespace chainsplit

#endif  // CHAINSPLIT_CORE_PLAN_SIGNATURE_H_
