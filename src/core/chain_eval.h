#ifndef CHAINSPLIT_CORE_CHAIN_EVAL_H_
#define CHAINSPLIT_CORE_CHAIN_EVAL_H_

#include "common/deadline.h"
#include "common/status.h"
#include "rel/relation.h"

namespace chainsplit {

/// Work measures of a transitive-closure run.
struct TcStats {
  int64_t iterations = 0;
  int64_t tuples = 0;        // result size
  int64_t delta_tuples = 0;  // total delta work
  // Storage-layer telemetry (see Relation::Telemetry): edge probes
  // issued, open-addressing collision steps across edge/result/deltas,
  // and the result relation's arena footprint.
  int64_t probes = 0;
  int64_t hash_collisions = 0;
  int64_t arena_bytes = 0;
};

/// Full semi-naive transitive closure of `edge`. Used by the
/// merged-chain experiment (E8) as the per-chain evaluation whose cost
/// is compared against iterating the merged cross-product chain.
StatusOr<Relation> TransitiveClosure(const Relation& edge,
                                     int64_t max_iterations, TcStats* stats,
                                     const CancelToken* cancel = nullptr);

}  // namespace chainsplit

#endif  // CHAINSPLIT_CORE_CHAIN_EVAL_H_
