#ifndef CHAINSPLIT_REL_OPS_H_
#define CHAINSPLIT_REL_OPS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "rel/relation.h"

namespace chainsplit {

class ThreadPool;

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

/// Hash join of `left` and `right` on `spec`. The output tuple is the
/// concatenation of the left tuple and the right tuple, projected to
/// `output_columns` (indexes into that concatenation). With empty
/// keys this is a cross product — the degenerate plan the paper warns
/// about when merging unshared chains (§1.1); benchmark E8 measures it.
///
/// Above a probe-side row threshold (see SetParallelJoinMinRows), and
/// when the build side has at least kMinPartitionedBuildRows rows, the
/// join runs in parallel on the shared ThreadPool: it radix-partitions
/// both sides by join-key hash, each worker builds and probes one
/// partition's private hash table (stable worker<->partition affinity,
/// NUMA first-touch when available — see docs/perf_notes.md), and the
/// per-partition outputs are merged back in probe-row order. Either
/// way the result's contents *and row order* are byte-identical to the
/// single-threaded path. `out` must be distinct from `left` and
/// `right`.
void HashJoin(const Relation& left, const Relation& right,
              const JoinSpec& spec, const std::vector<int>& output_columns,
              Relation* out);

/// Convenience overload preparing the JoinSpec on the fly.
void HashJoin(const Relation& left, const Relation& right,
              const std::vector<JoinKey>& keys,
              const std::vector<int>& output_columns, Relation* out);

/// Pool-explicit variant: runs the partitioned path on `pool` instead
/// of the process-wide shared pool. Used by tests to exercise the
/// parallel path with a controlled thread count on any hardware; a
/// 1-thread pool always takes the serial loop (the test oracle).
void HashJoin(const Relation& left, const Relation& right,
              const JoinSpec& spec, const std::vector<int>& output_columns,
              Relation* out, ThreadPool* pool);

/// Minimum probe-side rows before HashJoin goes parallel. Returns the
/// previous threshold; tests use this to force either path.
int64_t SetParallelJoinMinRows(int64_t min_rows);

/// Build-side rows below which HashJoin stays serial even above the
/// probe threshold: the per-partition tables are too small to pay for
/// partitioning (docs/perf_notes.md has the measurement).
constexpr int64_t kMinPartitionedBuildRows = 2048;

/// Cumulative telemetry of the partitioned join path (process-wide,
/// monotonic; report deltas). `max_partition_rows` accumulates the
/// largest build partition of each batch, so
/// max_partition_rows * partitions / build_rows ~ average skew (1.0 =
/// perfectly balanced partitions).
struct PartitionedJoinTelemetry {
  int64_t batches = 0;             // joins through the partitioned path
  int64_t views_built = 0;         // build-side partitioned views built
  int64_t view_hits = 0;           // cached view reused (fresh, same key)
  int64_t view_misses = 0;         // no cached view, or cached but stale
  int64_t partitions = 0;          // sum of partition counts over batches
  int64_t build_rows = 0;          // build-side rows across batches
  int64_t max_partition_rows = 0;  // sum over batches of largest partition
  int64_t probe_rows = 0;          // probe-side rows across batches
};
PartitionedJoinTelemetry GetPartitionedJoinTelemetry();

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
