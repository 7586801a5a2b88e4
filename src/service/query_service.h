#ifndef CHAINSPLIT_SERVICE_QUERY_SERVICE_H_
#define CHAINSPLIT_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/plan_signature.h"
#include "core/planner.h"
#include "obs/metrics.h"
#include "obs/slow_log.h"
#include "obs/trace.h"
#include "rel/catalog.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace chainsplit {

/// Per-request knobs.
struct RequestOptions {
  /// Zero = no deadline.
  std::chrono::milliseconds deadline{0};
  /// Optional caller-owned cancellation token (e.g. the server's
  /// shutdown token); chained under the per-request deadline token.
  const CancelToken* cancel = nullptr;
  /// Skip the result cache and do not populate it — the uncached
  /// reference path used by differential tests and baselines.
  bool bypass_cache = false;
  /// Optional caller-owned trace sink. When null the service makes its
  /// own Trace if tracing is on (`:trace on`) or the slow-query log is
  /// armed; otherwise the request runs untraced.
  Trace* trace = nullptr;
};

/// One answered query. Rows are pre-formatted strings: a cache hit
/// must not touch the term pool (formatting TermIds outside the lock
/// could race a concurrent intern), so the service renders values
/// while it still holds the lock and the response is self-contained.
struct QueryResponse {
  Status status;

  /// Variable names in first-occurrence order, as written in *this*
  /// request's text (cache hits remap the cached row values onto the
  /// caller's own names).
  std::vector<std::string> vars;
  /// One row per answer: formatted values of `vars`.
  std::vector<std::vector<std::string>> rows;

  Technique technique = Technique::kTopDown;
  std::string plan;
  bool result_cache_hit = false;

  /// Evaluator work measures. On kDeadlineExceeded/kCancelled these
  /// hold the partial work done before the cutoff.
  SemiNaiveStats seminaive_stats;
  BufferedStats buffered_stats;
  TopDownStats topdown_stats;

  /// Strata of the bottom-up fixpoint's SCC schedule (see
  /// QueryResult); zero when no fixpoint ran.
  int64_t scc_strata = 0;
};

/// Outcome of one Update (facts and/or rules, possibly with embedded
/// queries, as in a program file).
struct UpdateResponse {
  Status status;
  int64_t new_facts = 0;
  int64_t new_rules = 0;
  /// Responses to queries embedded in the update text, in order.
  std::vector<QueryResponse> query_responses;
};

/// Durability configuration (EnableDurability). With an empty data_dir
/// the service is purely in-memory, exactly as before.
struct DurabilityOptions {
  /// Directory for WAL segments and snapshots; created if missing.
  std::string data_dir;
  /// WAL fsync policy + interval (docs/service.md §Durability).
  WalOptions wal;
  /// Auto-checkpoint after this many logged records since the last
  /// snapshot (0 = only explicit Checkpoint()/`:snapshot` calls).
  int64_t snapshot_every_records = 0;
};

/// Point-in-time durability telemetry (`:wal` in the session protocol).
struct DurabilityStats {
  bool enabled = false;
  WalSyncPolicy sync = WalSyncPolicy::kInterval;
  std::string data_dir;
  /// Highest LSN appended (0 = nothing logged yet).
  uint64_t last_lsn = 0;
  /// LSN of the newest durable snapshot (0 = none).
  uint64_t snapshot_lsn = 0;
  int64_t wal_records = 0;
  int64_t wal_bytes = 0;
  int64_t wal_syncs = 0;
  int64_t wal_segments_created = 0;
  int64_t snapshots_written = 0;
  int64_t checkpoint_failures = 0;
  std::string last_checkpoint_error;
  /// Recovery summary, fixed at EnableDurability time.
  bool recovery_cold_start = true;
  bool recovery_torn_tail = false;
  int64_t replayed_records = 0;
  int64_t skipped_records = 0;
};

/// Service-wide counters (monotone; read with stats()). Since the
/// observability layer landed these are a *view* over the metrics
/// registry — every field is backed by a registry counter (metric
/// names in docs/observability.md) and stats() reads the live values.
struct ServiceStats {
  int64_t queries = 0;
  int64_t updates = 0;
  int64_t result_cache_hits = 0;
  int64_t result_cache_misses = 0;
  /// Result entries found but dropped because a dependency's version
  /// moved (fact update) — counted on top of the miss.
  int64_t result_cache_invalidations = 0;
  /// Result-cache inserts skipped because the rules epoch moved between
  /// evaluation and the insert: the entry would have been born stale
  /// (see the epoch revalidation at the Put in QueryImpl).
  int64_t result_cache_stale_skips = 0;
  /// SCC-schedule usage: uncached queries that ran a bottom-up
  /// fixpoint, and the strata those fixpoints evaluated.
  int64_t scc_schedules = 0;
  int64_t scc_strata = 0;
  int64_t deadline_exceeded = 0;
  int64_t cancelled = 0;
  /// Lock-acquisition split of uncached evaluations: shared_evals ran
  /// concurrently under the shared lock (overlay path), exclusive_evals
  /// serialized under the exclusive lock (updates' embedded queries).
  int64_t shared_evals = 0;
  int64_t exclusive_evals = 0;
  /// Query-local scratch footprint of overlay evaluations: relations
  /// materialized and their arena bytes, summed over all queries.
  int64_t overlay_relations = 0;
  int64_t overlay_bytes = 0;
};

/// QueryService — a concurrent front-end over one shared Database
/// (docs/service.md).
///
/// Concurrency model: a reader/writer lock over the database, where
/// *all query evaluation* — cache hits and uncached queries alike —
/// runs under the shared (read) side. An uncached query parses with
/// ParseQueryOnly (interning is internally synchronized and the
/// program is otherwise untouched) and evaluates through a
/// DatabaseOverlay: magic seeds, adorned/magic relations, deltas and
/// answer relations land in query-local scratch, lazy index builds on
/// base relations are publication-safe, and the base Database stays
/// frozen. Only genuine mutation takes the exclusive side: fact and
/// rule updates and CSV loads; a read-only request never does.
/// Relation version() snapshots taken under the shared lock are
/// consistent by construction — no writer can hold the exclusive lock
/// while the snapshot is taken.
///
/// Every uncached query is planned from the database as it is now:
/// the planner classifies the query and runs Alg. 3.1's gate on live
/// statistics. What queries share is one rectification of the rules
/// per rules epoch, and the result cache, which maps the lexically
/// canonicalized query text to fully formatted answers, validated
/// against per-relation version counters (epochs) of every relation
/// the query can read.
///
/// Invalidation: fact inserts bump the owning relation's version, so a
/// cached result is revalidated by comparing its dependency snapshot;
/// rule changes bump the service-wide rules epoch, which drops the
/// result cache wholesale and the rectified rules with it. The result
/// cache is a bounded LRU (query_service.cc).
class QueryService {
 public:
  QueryService();
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;
  ~QueryService();

  /// Turns on write-ahead logging + snapshot recovery over
  /// `options.data_dir`: recovers the database from the newest valid
  /// snapshot plus the WAL tail, then opens a fresh WAL segment so
  /// every later mutation is logged before it is applied. Must be
  /// called before the service starts serving concurrently (like db(),
  /// this is a single-threaded setup call); calling it twice is an
  /// error. Returns the recovery summary.
  StatusOr<RecoveryResult> EnableDurability(const DurabilityOptions& options);

  /// Writes a snapshot at the current WAL horizon, rotates the log and
  /// deletes segments the snapshot covers. Runs under the *shared*
  /// database lock (queries keep flowing; mutations wait). Safe to call
  /// concurrently — checkpoints serialize among themselves.
  Status Checkpoint(SnapshotWriteStats* stats = nullptr);

  /// Fsyncs the WAL (graceful-shutdown path). No-op when durability is
  /// off.
  Status FlushWal();

  DurabilityStats durability_stats() const;

  /// The underlying database. Unsynchronized — only for single-threaded
  /// setup (seeding facts before serving) and tests.
  Database& db() { return db_; }

  /// Test-only: runs `hook` inside QueryImpl after evaluation releases
  /// the db lock but before the result-cache insert — the window where
  /// a concurrent rule update can bump the rules epoch. Regression
  /// tests for the stale-skip revalidation at the Put use it to force
  /// that interleaving deterministically. Not synchronized: set during
  /// single-threaded test setup only.
  void TestOnlySetBeforeResultPutHook(std::function<void()> hook) {
    test_before_put_hook_ = std::move(hook);
  }

  /// Evaluates one query statement (`?- goal, ... .`). Any other text
  /// shape is an InvalidArgument.
  QueryResponse Query(std::string_view text,
                      const RequestOptions& request = {});

  /// Parses `text` (facts, rules, queries — e.g. a whole program
  /// file), inserts the new facts, and runs any embedded queries.
  /// Rule additions bump the rules epoch and drop the result cache.
  UpdateResponse Update(std::string_view text,
                        const RequestOptions& request = {});

  /// Reads and Update()s the file at `path`.
  UpdateResponse LoadFile(const std::string& path,
                          const RequestOptions& request = {});

  /// Bulk-loads delimited facts into `name/arity`; returns the number
  /// of new tuples.
  StatusOr<int64_t> LoadCsv(const std::string& name, int arity,
                            const std::string& path);

  /// Stored predicates visible to users (derived evaluation relations
  /// are hidden): display name and tuple count.
  std::vector<std::pair<std::string, int64_t>> ListPredicates();

  ServiceStats stats() const;
  uint64_t rules_epoch() const;

  /// The service-owned metrics registry: every service counter lives
  /// here, the TCP server registers its net counters here, and
  /// `:metrics` renders it (Prometheus text exposition). Registration
  /// and reads are thread-safe.
  MetricsRegistry* metrics() { return &registry_; }
  const MetricsRegistry* metrics() const { return &registry_; }

  /// Per-query tracing toggle (`:trace on|off`). While on, every
  /// Query() records a span tree (parse, cache lookups, planner
  /// phases, per-iteration fixpoint spans) and the most recent one is
  /// kept for `:trace last`.
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }

  /// Chrome trace_event JSON of the most recently completed traced
  /// query; empty string until one finishes with tracing on.
  std::string last_trace_json() const;

  /// Arms the slow-query log: every Query() at or above `threshold`
  /// writes its trace JSON to `dir` (one file per slow query). Like
  /// EnableDurability, a single-threaded setup call made before the
  /// service serves concurrently. A zero/negative threshold disables.
  void EnableSlowQueryLog(std::string dir,
                          std::chrono::milliseconds threshold);
  int64_t slow_queries_logged() const;

 private:
  struct ResultEntry {
    /// (pred, relation version) snapshot of every relation the query
    /// can read, taken at evaluation time under the db lock.
    std::vector<std::pair<PredId, uint64_t>> deps;
    uint64_t rules_epoch = 0;
    /// Formatted row values in canonical variable order.
    std::vector<std::vector<std::string>> rows;
    size_t num_vars = 0;
    Technique technique = Technique::kTopDown;
    std::string plan;
    SemiNaiveStats seminaive_stats;
    BufferedStats buffered_stats;
    TopDownStats topdown_stats;
  };
  /// An LRU string-keyed map: O(1) lookup, recency bump and eviction.
  struct LruCache {
    struct Node {
      std::string key;
      std::shared_ptr<ResultEntry> value;
    };
    std::list<Node> order;  // front = most recent
    std::unordered_map<std::string_view, std::list<Node>::iterator>
        index;

    std::shared_ptr<ResultEntry> Get(std::string_view key) {
      auto it = index.find(key);
      if (it == index.end()) return nullptr;
      order.splice(order.begin(), order, it->second);
      return it->second->value;
    }
    void Put(std::string key, std::shared_ptr<ResultEntry> value,
             size_t capacity);
    void Erase(std::string_view key);
    void Clear() {
      index.clear();
      order.clear();
    }
  };

  /// Query() minus the observability epilogue: the public Query()
  /// wraps this with latency/outcome recording, trace finishing and
  /// the slow-query log.
  QueryResponse QueryImpl(std::string_view text,
                          const RequestOptions& request);
  /// Plans and evaluates `query` against `eval_db`, a query-local
  /// overlay over the base (the caller holds db_mu_, shared for a read
  /// and exclusive for an update's embedded query), and formats the
  /// answers. (The AST type is written qualified — the Query() method
  /// shadows it in class scope.)
  QueryResponse EvaluateOn(EvalDb* eval_db, const ::chainsplit::Query& query,
                           const RequestOptions& request);
  /// Parse + evaluate + dependency snapshot for an uncached query;
  /// the caller holds db_mu_ shared for the whole call, which freezes
  /// relation versions and the rules epoch.
  QueryResponse EvaluateUncached(
      EvalDb* eval_db, std::string_view text, const RequestOptions& request,
      bool want_deps, std::vector<std::pair<PredId, uint64_t>>* deps);
  /// Rectified rules of the current epoch, computed on first use.
  /// Mutex-guarded so concurrent shared-lock evaluations can share the
  /// one rectification per epoch.
  const std::vector<Rule>* RectifiedRules();
  /// Snapshot of the current versions of the relations `preds` read.
  /// Caller holds db_mu_ (either mode).
  std::vector<std::pair<PredId, uint64_t>> SnapshotDeps(
      const std::vector<PredId>& preds);
  void CountStatus(const Status& status);
  /// Registers every service-owned series on registry_ and fills c_.
  void InitMetrics();
  /// The csdd_requests_total{outcome=...} counter for `code`.
  Counter* OutcomeCounter(StatusCode code);
  /// Accumulates one finished request's evaluator work measures onto
  /// the registry (skipped for result-cache hits — the cached stats
  /// describe work done at fill time, not now).
  void AccumulateEvalStats(const QueryResponse& response);

  /// The one mutation path behind Update() and WAL replay. Discipline:
  /// validate (parse with rollback) → log → apply, so the applied
  /// prefix and the logged prefix are identical by construction. `log`
  /// is false only on replay (the record is already in the log);
  /// replay also skips embedded queries (`run_queries`) and the
  /// user-facing stats counters.
  UpdateResponse UpdateInternal(std::string_view text,
                                const RequestOptions& request, bool log,
                                bool run_queries);
  /// Same for CSV loads: stage-parse the whole content, log it, then
  /// insert. `content` is the file's bytes (the WAL stores content, not
  /// paths).
  StatusOr<int64_t> LoadCsvContent(std::string_view name, int arity,
                                   std::string_view content, char delimiter,
                                   bool log);
  /// Replays one recovered WAL record through the paths above.
  Status ApplyWalRecord(const WalRecord& record);
  /// Bumps the auto-checkpoint trigger after a record was logged.
  /// Caller holds db_mu_ exclusive.
  void NoteLoggedRecord(uint64_t lsn);
  void CheckpointerLoop();

  Database db_;

  /// Guards db_: shared = anything that only reads the base (cache
  /// hits, uncached evaluation through an overlay), exclusive =
  /// mutation (fact/rule updates, CSV loads) and the queries embedded
  /// in an update. Lock order when both are needed: db_mu_ before
  /// cache_mu_.
  mutable std::shared_mutex db_mu_;
  /// Guards the result cache and rules_epoch_; never held across
  /// evaluation.
  mutable std::mutex cache_mu_;

  LruCache result_cache_;
  uint64_t rules_epoch_ = 0;
  /// Guards rectified_/rectified_valid_ — concurrent shared-lock
  /// evaluations race to rectify first; the mutex makes it once.
  mutable std::mutex rectified_mu_;
  /// RectifyRules(db rules) for the current epoch; reused by every
  /// evaluation of that epoch.
  std::vector<Rule> rectified_;
  bool rectified_valid_ = false;

  /// Handles into registry_ for every service-owned series; the
  /// registry owns the instruments, so raw pointers stay valid for the
  /// service's lifetime. Counter/Gauge/Histogram updates are wait-free
  /// — none of these need cache_mu_.
  struct Counters {
    Counter* queries = nullptr;
    Counter* updates = nullptr;
    Counter* result_cache_hits = nullptr;
    Counter* result_cache_misses = nullptr;
    Counter* result_cache_invalidations = nullptr;
    Counter* result_cache_stale_skips = nullptr;
    Counter* scc_schedules = nullptr;
    Counter* scc_strata = nullptr;
    Counter* deadline_exceeded = nullptr;
    Counter* cancelled = nullptr;
    Counter* shared_evals = nullptr;
    Counter* exclusive_evals = nullptr;
    Counter* overlay_relations = nullptr;
    Counter* overlay_bytes = nullptr;
    /// csdd_requests_total{outcome=...}: one bump per top-level
    /// Query()/Update(); the TCP server adds rejected_overload /
    /// rejected_oversize series to the same family.
    Counter* outcome_ok = nullptr;
    Counter* outcome_error = nullptr;
    Counter* outcome_deadline_exceeded = nullptr;
    Counter* outcome_cancelled = nullptr;
    /// Evaluator work aggregated over non-cache-hit queries.
    Counter* fixpoint_iterations = nullptr;
    Counter* derived_tuples = nullptr;
    Counter* chain_levels = nullptr;
    Counter* sld_steps = nullptr;
    Counter* slow_queries = nullptr;
    Histogram* query_latency = nullptr;
  };
  MetricsRegistry registry_;
  Counters c_;

  /// See TestOnlySetBeforeResultPutHook.
  std::function<void()> test_before_put_hook_;

  std::atomic<bool> tracing_{false};
  std::unique_ptr<SlowQueryLog> slow_log_;
  /// Guards last_trace_ only. The finished Trace is stored as-is and
  /// rendered to JSON on demand — serializing inline would tax every
  /// traced query for output only `:trace last` reads.
  mutable std::mutex trace_mu_;
  std::optional<Trace> last_trace_;

  // Durability (all null/zero until EnableDurability).
  //
  // wal_ is set once during single-threaded setup and never reset, so
  // the null-check on the mutation paths is race-free; Append calls
  // additionally run under db_mu_ exclusive, which is what makes LSN
  // order equal apply order. Lock order: db_mu_ → checkpoint_mu_;
  // Checkpoint() therefore never holds checkpoint_mu_ while waiting
  // for db_mu_.
  DurabilityOptions durability_;
  std::unique_ptr<Wal> wal_;
  RecoveryResult recovery_;
  /// Serializes whole checkpoints against each other (never held while
  /// waiting for db_mu_... it is taken first, and the shared db lock is
  /// acquired inside).
  std::mutex snapshot_run_mu_;
  /// Guards the checkpoint trigger state + durability counters below.
  mutable std::mutex checkpoint_mu_;
  std::condition_variable checkpoint_cv_;
  std::thread checkpointer_;
  bool stop_checkpointer_ = false;
  uint64_t logged_lsn_ = 0;            // newest appended LSN
  uint64_t durable_snapshot_lsn_ = 0;  // newest snapshot's LSN
  int64_t snapshots_written_ = 0;
  int64_t checkpoint_failures_ = 0;
  std::string last_checkpoint_error_;
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_SERVICE_QUERY_SERVICE_H_
