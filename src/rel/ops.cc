#include "rel/ops.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace chainsplit {
namespace {

/// Probe-side rows required before HashJoin goes parallel. Below it
/// the join runs single-threaded, so small inputs (and unit tests)
/// never touch the pool.
std::atomic<int64_t> g_parallel_join_min_rows{16384};

/// Partitioned-path telemetry (see GetPartitionedJoinTelemetry).
std::atomic<int64_t> g_partitioned_batches{0};
std::atomic<int64_t> g_views_built{0};
std::atomic<int64_t> g_pview_hits{0};
std::atomic<int64_t> g_pview_misses{0};
std::atomic<int64_t> g_partitions{0};
std::atomic<int64_t> g_build_rows{0};
std::atomic<int64_t> g_max_partition_rows{0};
std::atomic<int64_t> g_probe_rows{0};

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

/// The single-threaded join: probe the build side's global index once
/// per left row, in left-row order.
void SerialJoin(const Relation& left, const Relation& right,
                const JoinSpec& spec, const std::vector<int>& output_columns,
                Relation* out) {
  right.EnsureIndex(spec.right_columns);
  Relation::ProbeCounters counters;
  const int left_arity = left.arity();
  Tuple combined(left_arity + right.arity());
  Tuple result(output_columns.size());
  Tuple key(spec.keys.size());
  for (int64_t i = 0; i < left.num_rows(); ++i) {
    Relation::Row l = left.row(i);
    for (size_t k = 0; k < spec.keys.size(); ++k) {
      key[k] = l[spec.keys[k].left_column];
    }
    right.ProbeEachShared(spec.right_columns, key.data(), &counters,
                          [&](int64_t j) {
                            EmitJoined(l, right.row(j), left_arity,
                                       output_columns, &combined, &result,
                                       out);
                          });
  }
  right.MergeProbeCounters(counters);
}

/// Power-of-two partition count: at least the worker count (so every
/// worker owns a partition), doubled once to smooth key skew, halved
/// while partitions would fall under ~256 build rows.
int ChoosePartitionCount(int workers, int64_t build_rows) {
  int p = 1;
  while (p < workers) p <<= 1;
  p = std::min(p * 2, PartitionedView::kMaxPartitions);
  while (p > 2 && build_rows > 0 && build_rows / p < 256) p >>= 1;
  return p;
}

/// The topology-aware path: radix-partition both sides on the join-key
/// hash, build one private hash table per partition (on the worker
/// that probes it — stable hint p, NUMA first-touch), probe each
/// partition independently, then replay the buffered matches in
/// probe-row order so the output is byte-identical to the serial loop.
void PartitionedParallelJoin(const Relation& left, const Relation& right,
                             const JoinSpec& spec,
                             const std::vector<int>& output_columns,
                             Relation* out, ThreadPool* pool) {
  const int workers = pool->size();
  const int P = ChoosePartitionCount(workers, right.num_rows());

  // Build side: reuse the cached view when the relation hasn't moved
  // (the fixpoint evaluators join against the same stable EDB relation
  // every iteration); rebuild otherwise. The shared_ptr is held across
  // the whole join, so a concurrent eviction or same-key replacement
  // in the relation's view LRU cannot destroy the view under us.
  std::shared_ptr<PartitionedView> view =
      right.FindPartitionedView(spec.right_columns, P);
  if (view == nullptr || view->stale(right)) {
    g_pview_misses.fetch_add(1, std::memory_order_relaxed);
    auto fresh =
        std::make_unique<PartitionedView>(spec.right_columns, P);
    fresh->AssignRows(right);
    {
      ThreadPool::WorkGroup build_group(pool);
      for (int p = 0; p < P; ++p) {
        PartitionedView* raw = fresh.get();
        build_group.Submit([raw, &right, p] { raw->BuildPartition(right, p); },
                           p);
      }
      build_group.Wait();
    }
    fresh->Finish(right);
    view = right.CachePartitionedView(std::move(fresh));
    g_views_built.fetch_add(1, std::memory_order_relaxed);
  } else {
    g_pview_hits.fetch_add(1, std::memory_order_relaxed);
  }

  // Probe side: hash every left row's key once (parallel, contiguous
  // ranges), then scatter row ids into per-partition lists (ascending
  // row order — the merge depends on it).
  const int64_t n = left.num_rows();
  const size_t key_width = spec.keys.size();
  std::vector<uint8_t> part_of(static_cast<size_t>(n));
  std::vector<size_t> hash_of(static_cast<size_t>(n));
  pool->ParallelFor(0, n, 4096, [&](int64_t b, int64_t e) {
    TermId key[16];
    for (int64_t i = b; i < e; ++i) {
      Relation::Row l = left.row(i);
      for (size_t k = 0; k < key_width; ++k) {
        key[k] = l[spec.keys[k].left_column];
      }
      const size_t h = PartitionedView::KeyHash(key, key_width);
      hash_of[static_cast<size_t>(i)] = h;
      part_of[static_cast<size_t>(i)] =
          static_cast<uint8_t>(view->PartitionOfHash(h));
    }
  });
  std::vector<std::vector<uint32_t>> rows_by_part(static_cast<size_t>(P));
  {
    std::vector<int64_t> counts(static_cast<size_t>(P), 0);
    for (int64_t i = 0; i < n; ++i) ++counts[part_of[static_cast<size_t>(i)]];
    for (int p = 0; p < P; ++p) {
      rows_by_part[static_cast<size_t>(p)].reserve(
          static_cast<size_t>(counts[static_cast<size_t>(p)]));
    }
    for (int64_t i = 0; i < n; ++i) {
      rows_by_part[part_of[static_cast<size_t>(i)]].push_back(
          static_cast<uint32_t>(i));
    }
  }

  // Per-partition probe into private match buffers. Worker w keeps
  // getting the partitions hinted at it, so a partition's build table
  // stays hot in one core's cache across joins.
  struct PartProbe {
    std::vector<TermId> buf;            // projected tuples, back to back
    std::vector<uint32_t> match_counts;  // matches per probed left row
    Relation::ProbeCounters counters;
  };
  std::vector<PartProbe> probes(static_cast<size_t>(P));
  const int left_arity = left.arity();
  const size_t out_width = output_columns.size();
  {
    ThreadPool::WorkGroup probe_group(pool);
    for (int p = 0; p < P; ++p) {
      probe_group.Submit(
          [&, p] {
            PartProbe& mine = probes[static_cast<size_t>(p)];
            const std::vector<uint32_t>& rows =
                rows_by_part[static_cast<size_t>(p)];
            mine.match_counts.reserve(rows.size());
            Tuple key(key_width);
            for (uint32_t r : rows) {
              Relation::Row l = left.row(static_cast<int64_t>(r));
              for (size_t k = 0; k < key_width; ++k) {
                key[k] = l[spec.keys[k].left_column];
              }
              uint32_t matches = 0;
              view->ProbeEachHashed(
                  right, p, key.data(), hash_of[r], &mine.counters,
                  [&](int64_t j) {
                    Relation::Row rr = right.row(j);
                    for (size_t c = 0; c < out_width; ++c) {
                      const int col = output_columns[c];
                      mine.buf.push_back(col < left_arity
                                             ? l[col]
                                             : rr[col - left_arity]);
                    }
                    ++matches;
                  });
              mine.match_counts.push_back(matches);
            }
          },
          p);
    }
    probe_group.Wait();
  }

  // Deterministic merge: replay matches in left-row order. Each
  // partition's buffers are already in ascending left-row order, so
  // one cursor per partition suffices and every tuple is inserted in
  // exactly the order the serial loop would have produced it.
  std::vector<size_t> row_cursor(static_cast<size_t>(P), 0);
  std::vector<size_t> buf_cursor(static_cast<size_t>(P), 0);
  for (int64_t i = 0; i < n; ++i) {
    const size_t p = part_of[static_cast<size_t>(i)];
    PartProbe& mine = probes[p];
    const uint32_t matches = mine.match_counts[row_cursor[p]++];
    for (uint32_t m = 0; m < matches; ++m) {
      out->Insert(Relation::Row(mine.buf.data() + buf_cursor[p],
                                static_cast<int>(out_width)));
      buf_cursor[p] += out_width;
    }
  }

  for (int p = 0; p < P; ++p) {
    right.MergeProbeCounters(probes[static_cast<size_t>(p)].counters);
  }
  const PartitionedView::SkewStats skew = view->skew();
  g_partitioned_batches.fetch_add(1, std::memory_order_relaxed);
  g_partitions.fetch_add(P, std::memory_order_relaxed);
  g_build_rows.fetch_add(skew.total_rows, std::memory_order_relaxed);
  g_max_partition_rows.fetch_add(skew.max_rows, std::memory_order_relaxed);
  g_probe_rows.fetch_add(n, std::memory_order_relaxed);
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

int64_t SetParallelJoinMinRows(int64_t min_rows) {
  return g_parallel_join_min_rows.exchange(min_rows);
}

PartitionedJoinTelemetry GetPartitionedJoinTelemetry() {
  PartitionedJoinTelemetry t;
  t.batches = g_partitioned_batches.load(std::memory_order_relaxed);
  t.views_built = g_views_built.load(std::memory_order_relaxed);
  t.view_hits = g_pview_hits.load(std::memory_order_relaxed);
  t.view_misses = g_pview_misses.load(std::memory_order_relaxed);
  t.partitions = g_partitions.load(std::memory_order_relaxed);
  t.build_rows = g_build_rows.load(std::memory_order_relaxed);
  t.max_partition_rows =
      g_max_partition_rows.load(std::memory_order_relaxed);
  t.probe_rows = g_probe_rows.load(std::memory_order_relaxed);
  return t;
}

void HashJoin(const Relation& left, const Relation& right,
              const JoinSpec& spec, const std::vector<int>& output_columns,
              Relation* out) {
  HashJoin(left, right, spec, output_columns, out, &ThreadPool::Shared());
}

void HashJoin(const Relation& left, const Relation& right,
              const JoinSpec& spec, const std::vector<int>& output_columns,
              Relation* out, ThreadPool* pool) {
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

  if (pool->size() > 1 &&
      left.num_rows() >=
          g_parallel_join_min_rows.load(std::memory_order_relaxed) &&
      right.num_rows() >= kMinPartitionedBuildRows) {
    PartitionedParallelJoin(left, right, spec, output_columns, out, pool);
  } else {
    SerialJoin(left, right, spec, output_columns, out);
  }
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
