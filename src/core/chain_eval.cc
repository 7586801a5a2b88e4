#include "core/chain_eval.h"

#include "common/strings.h"

namespace chainsplit {
namespace {

/// Semi-naive closure kernel: repeatedly extends `delta` by one `edge`
/// step, accumulating into `*result` (arity 2: (origin, reached)).
///
/// The Insert return value drives the delta directly: a successful
/// insert into `result` is by definition a new tuple for the next
/// round, so no separate Contains pass (and no second hash walk) is
/// needed.
Status Closure(const Relation& edge, Relation* result, Relation&& delta0,
               int64_t max_iterations, TcStats* stats,
               const CancelToken* cancel) {
  const std::vector<int> from_col = {0};
  edge.EnsureIndex(from_col);
  Relation delta = std::move(delta0);
  while (!delta.empty()) {
    CS_RETURN_IF_ERROR(CheckCancel(cancel));
    if (++stats->iterations > max_iterations) {
      return ResourceExhaustedError(
          StrCat("transitive closure exceeded ", max_iterations,
                 " iterations"));
    }
    Relation next(2);
    TermId key;
    Tuple out(2);
    for (int64_t i = 0; i < delta.num_rows(); ++i) {
      Relation::Row t = delta.row(i);
      key = t[1];
      out[0] = t[0];
      edge.ProbeEach(from_col, &key, [&](int64_t j) {
        out[1] = edge.row(j)[1];
        if (result->Insert(out)) next.Insert(out);
      });
    }
    stats->delta_tuples += next.size();
    stats->hash_collisions += delta.telemetry().hash_collisions;
    delta = std::move(next);
  }
  stats->tuples = result->size();
  return Status::Ok();
}

/// Folds the storage-layer counters of one closure run into `stats`.
/// `edge_before` is the edge telemetry snapshot taken at entry, so
/// repeated runs over the same relation do not double-count.
void FinishTelemetry(const Relation& edge, const Relation& result,
                     const Relation::Telemetry& edge_before,
                     TcStats* stats) {
  Relation::Telemetry edge_now = edge.telemetry();
  Relation::Telemetry res = result.telemetry();
  stats->probes += edge_now.probes - edge_before.probes;
  stats->hash_collisions +=
      (edge_now.hash_collisions - edge_before.hash_collisions) +
      res.hash_collisions;
  stats->arena_bytes = res.arena_bytes;
}

}  // namespace

StatusOr<Relation> TransitiveClosure(const Relation& edge,
                                     int64_t max_iterations, TcStats* stats,
                                     const CancelToken* cancel) {
  *stats = TcStats{};
  Relation::Telemetry edge_before = edge.telemetry();
  Relation result(2);
  Relation delta(2);
  result.Reserve(edge.num_rows());
  for (int64_t i = 0; i < edge.num_rows(); ++i) {
    if (result.Insert(edge.row(i))) delta.Insert(edge.row(i));
  }
  stats->delta_tuples += delta.size();
  CS_RETURN_IF_ERROR(Closure(edge, &result, std::move(delta), max_iterations,
                             stats, cancel));
  FinishTelemetry(edge, result, edge_before, stats);
  return result;
}

}  // namespace chainsplit
