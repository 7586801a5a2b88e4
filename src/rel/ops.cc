#include "rel/ops.h"

#include <algorithm>

#include "common/logging.h"

namespace chainsplit {
namespace {

/// Builds one output row of the join and inserts it. `combined` and
/// `result` are caller-provided scratch to keep this allocation-free.
inline void EmitJoined(Relation::Row l, Relation::Row r, int left_arity,
                       const std::vector<int>& output_columns,
                       Tuple* combined, Tuple* result, Relation* out) {
  std::copy(l.begin(), l.end(), combined->begin());
  std::copy(r.begin(), r.end(), combined->begin() + left_arity);
  for (size_t i = 0; i < output_columns.size(); ++i) {
    (*result)[i] = (*combined)[output_columns[i]];
  }
  out->Insert(*result);
}

/// The keyed join: probe the build side's index once per left row, in
/// left-row order.
void SerialJoin(const Relation& left, const Relation& right,
                const JoinSpec& spec, const std::vector<int>& output_columns,
                Relation* out) {
  const int left_arity = left.arity();
  Tuple combined(left_arity + right.arity());
  Tuple result(output_columns.size());
  Tuple key(spec.keys.size());
  for (int64_t i = 0; i < left.num_rows(); ++i) {
    Relation::Row l = left.row(i);
    for (size_t k = 0; k < spec.keys.size(); ++k) {
      key[k] = l[spec.keys[k].left_column];
    }
    right.ProbeEach(spec.right_columns, key.data(), [&](int64_t j) {
      EmitJoined(l, right.row(j), left_arity, output_columns, &combined,
                 &result, out);
    });
  }
}

}  // namespace

JoinSpec::JoinSpec(std::vector<JoinKey> join_keys)
    : keys(std::move(join_keys)) {
  std::sort(keys.begin(), keys.end(), [](const JoinKey& a, const JoinKey& b) {
    return a.right_column < b.right_column;
  });
  right_columns.reserve(keys.size());
  for (const JoinKey& k : keys) right_columns.push_back(k.right_column);
}

void HashJoin(const Relation& left, const Relation& right,
              const JoinSpec& spec, const std::vector<int>& output_columns,
              Relation* out) {
  CS_DCHECK(out != &left && out != &right)
      << "HashJoin output must be a distinct relation";
  if (spec.keys.empty()) {
    // Cross product.
    const int left_arity = left.arity();
    Tuple combined(left_arity + right.arity());
    Tuple result(output_columns.size());
    for (int64_t i = 0; i < left.num_rows(); ++i) {
      for (int64_t j = 0; j < right.num_rows(); ++j) {
        EmitJoined(left.row(i), right.row(j), left_arity, output_columns,
                   &combined, &result, out);
      }
    }
    return;
  }
  SerialJoin(left, right, spec, output_columns, out);
}

void HashJoin(const Relation& left, const Relation& right,
              const std::vector<JoinKey>& keys,
              const std::vector<int>& output_columns, Relation* out) {
  HashJoin(left, right, JoinSpec(keys), output_columns, out);
}

void Select(const Relation& in,
            const std::function<bool(const Tuple&)>& predicate,
            Relation* out) {
  Tuple scratch(in.arity());
  for (int64_t i = 0; i < in.num_rows(); ++i) {
    Relation::Row row = in.row(i);
    scratch.assign(row.begin(), row.end());
    if (predicate(scratch)) out->Insert(row);
  }
}

void Project(const Relation& in, const std::vector<int>& columns,
             Relation* out) {
  Tuple result(columns.size());
  for (int64_t i = 0; i < in.num_rows(); ++i) {
    Relation::Row t = in.row(i);
    for (size_t c = 0; c < columns.size(); ++c) result[c] = t[columns[c]];
    out->Insert(result);
  }
}

void Difference(const Relation& a, const Relation& b, Relation* out) {
  CS_DCHECK(a.arity() == b.arity()) << "Difference arity mismatch";
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    if (!b.Contains(a.row(i))) out->Insert(a.row(i));
  }
}

bool SameTuples(const Relation& a, const Relation& b) {
  if (a.size() != b.size() || a.arity() != b.arity()) return false;
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    if (!b.Contains(a.row(i))) return false;
  }
  return true;
}

}  // namespace chainsplit
