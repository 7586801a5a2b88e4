#ifndef CHAINSPLIT_REL_OPS_H_
#define CHAINSPLIT_REL_OPS_H_

#include <functional>
#include <vector>

#include "rel/relation.h"

namespace chainsplit {

/// Column-pair equality condition for a join: left column == right
/// column.
struct JoinKey {
  int left_column;
  int right_column;
};

/// A prepared hash-join condition: the keys sorted by right column (the
/// order Relation::Probe requires) plus the derived probe-column list.
/// Compute it once per compiled rule / reused join and pass it to
/// HashJoin to avoid re-sorting on every call.
struct JoinSpec {
  std::vector<JoinKey> keys;       // sorted by right_column
  std::vector<int> right_columns;  // keys[i].right_column, ascending

  // Explicit and no default constructor: brace-initialized HashJoin
  // key lists keep resolving to the std::vector<JoinKey> overload.
  explicit JoinSpec(std::vector<JoinKey> join_keys);
};

/// Hash join of `left` and `right` on `spec`: one pass over `left`,
/// probing `right`'s index on the key columns (built on first use) per
/// row. The output tuple is the concatenation of the left tuple and the
/// right tuple, projected to `output_columns` (indexes into that
/// concatenation), inserted in (left row, right posting) order. With
/// empty keys this is a cross product — the degenerate plan the paper
/// warns about when merging unshared chains (§1.1). `out` must be
/// distinct from `left` and `right`.
void HashJoin(const Relation& left, const Relation& right,
              const JoinSpec& spec, const std::vector<int>& output_columns,
              Relation* out);

/// Convenience overload preparing the JoinSpec on the fly.
void HashJoin(const Relation& left, const Relation& right,
              const std::vector<JoinKey>& keys,
              const std::vector<int>& output_columns, Relation* out);

/// Copies the tuples of `in` satisfying `predicate` into `*out`.
void Select(const Relation& in, const std::function<bool(const Tuple&)>& predicate,
            Relation* out);

/// Projects `in` onto `columns` (duplicates removed by Relation).
void Project(const Relation& in, const std::vector<int>& columns,
             Relation* out);

/// Inserts into `*out` the tuples of `a` that are not in `b` (the
/// semi-naive delta step). `a` and `b` must have equal arity.
void Difference(const Relation& a, const Relation& b, Relation* out);

/// True when `a` and `b` contain exactly the same tuples.
bool SameTuples(const Relation& a, const Relation& b);

}  // namespace chainsplit

#endif  // CHAINSPLIT_REL_OPS_H_
