#include "service/query_service.h"

#include <algorithm>
#include <optional>

#include "ast/parser.h"
#include "common/strings.h"
#include "core/rectify.h"
#include "rel/csv.h"

namespace chainsplit {
namespace {

/// LRU capacity (entries) of the result cache.
constexpr size_t kResultCacheCapacity = 1024;

}  // namespace

void QueryService::LruCache::Put(std::string key,
                                std::shared_ptr<ResultEntry> value,
                                size_t capacity) {
  auto it = index.find(key);
  if (it != index.end()) {
    it->second->value = std::move(value);
    order.splice(order.begin(), order, it->second);
    return;
  }
  order.push_front(Node{std::move(key), std::move(value)});
  index.emplace(std::string_view(order.front().key), order.begin());
  while (order.size() > capacity) {
    index.erase(std::string_view(order.back().key));
    order.pop_back();
  }
}

void QueryService::LruCache::Erase(std::string_view key) {
  auto it = index.find(key);
  if (it == index.end()) return;
  order.erase(it->second);
  index.erase(it);
}

QueryService::QueryService() { InitMetrics(); }

void QueryService::InitMetrics() {
  c_.queries = registry_.AddCounter(
      "csdd_queries_total", "Query statements evaluated (incl. embedded)");
  c_.updates = registry_.AddCounter("csdd_updates_total",
                                    "Update statements applied");
  c_.result_cache_hits = registry_.AddCounter(
      "csdd_result_cache_lookups_total", "Result cache lookups by result",
      {{"result", "hit"}});
  c_.result_cache_misses = registry_.AddCounter(
      "csdd_result_cache_lookups_total", "Result cache lookups by result",
      {{"result", "miss"}});
  c_.result_cache_invalidations = registry_.AddCounter(
      "csdd_result_cache_invalidations_total",
      "Cached results dropped because a dependency's version moved");
  c_.result_cache_stale_skips = registry_.AddCounter(
      "csdd_result_cache_stale_skips_total",
      "Result-cache inserts skipped because the rules epoch moved "
      "between evaluation and the insert");
  c_.scc_schedules = registry_.AddCounter(
      "csdd_scc_schedules_total",
      "Queries evaluated through the stratified SCC scheduler");
  c_.scc_strata = registry_.AddCounter(
      "csdd_scc_strata_total",
      "SCC strata evaluated by the stratified scheduler");
  c_.deadline_exceeded = registry_.AddCounter(
      "csdd_evals_cut_total", "Evaluations cut short, by cause",
      {{"cause", "deadline_exceeded"}});
  c_.cancelled = registry_.AddCounter(
      "csdd_evals_cut_total", "Evaluations cut short, by cause",
      {{"cause", "cancelled"}});
  c_.shared_evals = registry_.AddCounter(
      "csdd_evals_total", "Uncached evaluations by lock mode",
      {{"lock", "shared"}});
  c_.exclusive_evals = registry_.AddCounter(
      "csdd_evals_total", "Uncached evaluations by lock mode",
      {{"lock", "exclusive"}});
  c_.overlay_relations = registry_.AddCounter(
      "csdd_overlay_relations_total",
      "Query-local overlay relations materialized");
  c_.overlay_bytes = registry_.AddCounter(
      "csdd_overlay_bytes_total",
      "Arena bytes of query-local overlay scratch");
  const char* outcome_help =
      "Service requests by outcome (the TCP server adds "
      "rejected_overload/rejected_oversize series to this family)";
  c_.outcome_ok = registry_.AddCounter("csdd_requests_total", outcome_help,
                                       {{"outcome", "ok"}});
  c_.outcome_error = registry_.AddCounter("csdd_requests_total", outcome_help,
                                          {{"outcome", "error"}});
  c_.outcome_deadline_exceeded = registry_.AddCounter(
      "csdd_requests_total", outcome_help, {{"outcome", "deadline_exceeded"}});
  c_.outcome_cancelled = registry_.AddCounter(
      "csdd_requests_total", outcome_help, {{"outcome", "cancelled"}});
  c_.fixpoint_iterations = registry_.AddCounter(
      "csdd_fixpoint_iterations_total",
      "Semi-naive fixpoint iterations over all uncached queries");
  c_.derived_tuples = registry_.AddCounter(
      "csdd_derived_tuples_total",
      "Tuples derived by the semi-naive evaluator");
  c_.chain_levels = registry_.AddCounter(
      "csdd_chain_levels_total",
      "Forward levels walked by the buffered chain-split evaluator");
  c_.sld_steps = registry_.AddCounter("csdd_sld_steps_total",
                                      "Top-down SLD resolution steps");
  c_.slow_queries = registry_.AddCounter(
      "csdd_slow_queries_total", "Queries written to the slow-query log");
  c_.query_latency = registry_.AddHistogram(
      "csdd_query_latency_us", "End-to-end Query() latency in microseconds");
  // Storage-layer view of the base database: relation count and total
  // rows, read under the shared db lock at scrape time.
  registry_.AddCallback("csdd_storage_relations",
                        "Stored relations in the base database",
                        MetricType::kGauge, {}, [this] {
                          std::shared_lock<std::shared_mutex> lock(db_mu_);
                          return static_cast<double>(
                              db_.StoredPredicates().size());
                        });
  registry_.AddCallback("csdd_storage_rows",
                        "Total stored tuples in the base database",
                        MetricType::kGauge, {}, [this] {
                          std::shared_lock<std::shared_mutex> lock(db_mu_);
                          double rows = 0;
                          for (PredId pred : db_.StoredPredicates()) {
                            const Relation* rel = db_.GetRelation(pred);
                            if (rel != nullptr) rows += rel->num_rows();
                          }
                          return rows;
                        });
}

Counter* QueryService::OutcomeCounter(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return c_.outcome_ok;
    case StatusCode::kDeadlineExceeded:
      return c_.outcome_deadline_exceeded;
    case StatusCode::kCancelled:
      return c_.outcome_cancelled;
    default:
      return c_.outcome_error;
  }
}

void QueryService::AccumulateEvalStats(const QueryResponse& response) {
  if (response.result_cache_hit) return;
  c_.fixpoint_iterations->Inc(response.seminaive_stats.iterations);
  c_.derived_tuples->Inc(response.seminaive_stats.total_derived);
  c_.chain_levels->Inc(response.buffered_stats.levels);
  c_.sld_steps->Inc(response.topdown_stats.steps);
  if (response.scc_strata > 0) {
    c_.scc_schedules->Inc();
    c_.scc_strata->Inc(response.scc_strata);
  }
}

QueryService::~QueryService() {
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    stop_checkpointer_ = true;
  }
  checkpoint_cv_.notify_all();
  if (checkpointer_.joinable()) checkpointer_.join();
  // wal_'s destructor does a final best-effort fsync.
}

StatusOr<RecoveryResult> QueryService::EnableDurability(
    const DurabilityOptions& options) {
  if (wal_ != nullptr) {
    return FailedPreconditionError("durability already enabled");
  }
  if (options.data_dir.empty()) {
    return InvalidArgumentError("durability needs a data_dir");
  }
  durability_ = options;
  CS_ASSIGN_OR_RETURN(
      RecoveryResult recovered,
      RecoverDatabase(options.data_dir, &db_,
                      [this](const WalRecord& record) {
                        return ApplyWalRecord(record);
                      }));
  recovery_ = recovered;
  CS_ASSIGN_OR_RETURN(
      wal_, Wal::Open(options.data_dir, recovered.last_lsn + 1, options.wal));
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    logged_lsn_ = recovered.last_lsn;
    durable_snapshot_lsn_ = recovered.snapshot_lsn;
  }
  if (options.snapshot_every_records > 0) {
    checkpointer_ = std::thread([this] { CheckpointerLoop(); });
  }
  // Expose the durability counters as registry callbacks: `:wal` and
  // `:metrics` read the same live state. wal_ is never reset, so the
  // captured `this` accesses are safe for the service's lifetime.
  registry_.AddCallback("csdd_wal_records_total", "WAL records appended",
                        MetricType::kCounter, {}, [this] {
                          return static_cast<double>(wal_->stats().records);
                        });
  registry_.AddCallback("csdd_wal_bytes_total", "WAL bytes appended",
                        MetricType::kCounter, {}, [this] {
                          return static_cast<double>(wal_->stats().bytes);
                        });
  registry_.AddCallback("csdd_wal_syncs_total", "WAL fsync calls",
                        MetricType::kCounter, {}, [this] {
                          return static_cast<double>(wal_->stats().syncs);
                        });
  registry_.AddCallback(
      "csdd_wal_segments_total", "WAL segments created", MetricType::kCounter,
      {}, [this] {
        return static_cast<double>(wal_->stats().segments_created);
      });
  registry_.AddCallback("csdd_wal_last_lsn", "Highest LSN appended",
                        MetricType::kGauge, {}, [this] {
                          return static_cast<double>(wal_->stats().last_lsn);
                        });
  registry_.AddCallback("csdd_snapshot_lsn",
                        "LSN of the newest durable snapshot",
                        MetricType::kGauge, {}, [this] {
                          std::lock_guard<std::mutex> lock(checkpoint_mu_);
                          return static_cast<double>(durable_snapshot_lsn_);
                        });
  registry_.AddCallback("csdd_snapshots_total", "Snapshots written",
                        MetricType::kCounter, {}, [this] {
                          std::lock_guard<std::mutex> lock(checkpoint_mu_);
                          return static_cast<double>(snapshots_written_);
                        });
  registry_.AddCallback("csdd_checkpoint_failures_total",
                        "Failed checkpoint attempts", MetricType::kCounter,
                        {}, [this] {
                          std::lock_guard<std::mutex> lock(checkpoint_mu_);
                          return static_cast<double>(checkpoint_failures_);
                        });
  return recovered;
}

Status QueryService::ApplyWalRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kUpdate: {
      // Replay the exact deterministic apply path, minus the embedded
      // queries (they mutate nothing and their answers went to a
      // client long gone) and minus re-logging.
      UpdateResponse response = UpdateInternal(
          record.text, RequestOptions{}, /*log=*/false, /*run_queries=*/false);
      return response.status;
    }
    case WalRecordType::kCsvLoad: {
      StatusOr<int64_t> inserted =
          LoadCsvContent(record.pred_name, record.arity, record.text,
                         record.delimiter, /*log=*/false);
      if (!inserted.ok()) return inserted.status();
      return Status::Ok();
    }
  }
  return InternalError(StrCat("unknown wal record type ",
                              static_cast<int>(record.type)));
}

void QueryService::NoteLoggedRecord(uint64_t lsn) {
  bool trigger = false;
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    logged_lsn_ = lsn;
    trigger = durability_.snapshot_every_records > 0 &&
              lsn >= durable_snapshot_lsn_ +
                         static_cast<uint64_t>(
                             durability_.snapshot_every_records);
  }
  if (trigger) checkpoint_cv_.notify_all();
}

void QueryService::CheckpointerLoop() {
  std::unique_lock<std::mutex> lock(checkpoint_mu_);
  const uint64_t every =
      static_cast<uint64_t>(durability_.snapshot_every_records);
  while (true) {
    checkpoint_cv_.wait(lock, [&] {
      return stop_checkpointer_ ||
             logged_lsn_ >= durable_snapshot_lsn_ + every;
    });
    if (stop_checkpointer_) return;
    lock.unlock();
    Status status = Checkpoint(nullptr);  // failure recorded in stats
    lock.lock();
    if (!status.ok() && !stop_checkpointer_) {
      // Do not spin on a persistently failing disk: wait for the next
      // logged record (or shutdown) before retrying.
      checkpoint_cv_.wait(lock);
    }
  }
}

Status QueryService::Checkpoint(SnapshotWriteStats* stats) {
  if (wal_ == nullptr) {
    return FailedPreconditionError("durability not enabled");
  }
  // Serialize checkpoints against each other; db_mu_ is acquired
  // *inside* (never hold checkpoint_mu_ while waiting for db_mu_ —
  // mutators take them in that order).
  std::lock_guard<std::mutex> run_lock(snapshot_run_mu_);
  SnapshotWriteStats local;
  Status written;
  uint64_t lsn = 0;
  {
    // Shared lock: queries keep flowing, mutation waits. No mutator
    // can append to the WAL while we hold it, so last_lsn() is the
    // exact horizon of the database state being serialized.
    std::shared_lock<std::shared_mutex> db_lock(db_mu_);
    lsn = wal_->last_lsn();
    written = WriteSnapshot(db_, lsn, durability_.data_dir, &local);
  }
  if (!written.ok()) {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    ++checkpoint_failures_;
    last_checkpoint_error_ = written.message();
    return written;
  }
  // The snapshot is durable: seal the current segment and drop the
  // ones it fully covers. Failures here are cleanup failures, not
  // durability failures — recovery handles leftover segments (their
  // records are skipped as <= snapshot LSN), so report but don't
  // unwind.
  Status rotated = wal_->Rotate();
  if (rotated.ok()) {
    StatusOr<int> removed = wal_->DeleteSegmentsBelow(lsn + 1);
    if (!removed.ok()) rotated = removed.status();
  }
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    durable_snapshot_lsn_ = lsn;
    ++snapshots_written_;
    if (!rotated.ok()) {
      ++checkpoint_failures_;
      last_checkpoint_error_ = rotated.message();
    }
  }
  if (stats != nullptr) *stats = local;
  return rotated;
}

Status QueryService::FlushWal() {
  if (wal_ == nullptr) return Status::Ok();
  return wal_->Sync();
}

DurabilityStats QueryService::durability_stats() const {
  DurabilityStats out;
  if (wal_ == nullptr) return out;
  out.enabled = true;
  out.sync = durability_.wal.sync;
  out.data_dir = durability_.data_dir;
  WalStats wal = wal_->stats();
  out.last_lsn = wal.last_lsn;
  out.wal_records = wal.records;
  out.wal_bytes = wal.bytes;
  out.wal_syncs = wal.syncs;
  out.wal_segments_created = wal.segments_created;
  {
    std::lock_guard<std::mutex> lock(checkpoint_mu_);
    out.snapshot_lsn = durable_snapshot_lsn_;
    out.snapshots_written = snapshots_written_;
    out.checkpoint_failures = checkpoint_failures_;
    out.last_checkpoint_error = last_checkpoint_error_;
  }
  out.recovery_cold_start = recovery_.cold_start;
  out.recovery_torn_tail = recovery_.torn_tail;
  out.replayed_records = recovery_.replayed_records;
  out.skipped_records = recovery_.skipped_records;
  return out;
}

uint64_t QueryService::rules_epoch() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return rules_epoch_;
}

ServiceStats QueryService::stats() const {
  // A thin view over the registry: each field reads its backing
  // counter. No lock — counter reads are wait-free shard sums.
  ServiceStats out;
  out.queries = c_.queries->Value();
  out.updates = c_.updates->Value();
  out.result_cache_hits = c_.result_cache_hits->Value();
  out.result_cache_misses = c_.result_cache_misses->Value();
  out.result_cache_invalidations = c_.result_cache_invalidations->Value();
  out.result_cache_stale_skips = c_.result_cache_stale_skips->Value();
  out.scc_schedules = c_.scc_schedules->Value();
  out.scc_strata = c_.scc_strata->Value();
  out.deadline_exceeded = c_.deadline_exceeded->Value();
  out.cancelled = c_.cancelled->Value();
  out.shared_evals = c_.shared_evals->Value();
  out.exclusive_evals = c_.exclusive_evals->Value();
  out.overlay_relations = c_.overlay_relations->Value();
  out.overlay_bytes = c_.overlay_bytes->Value();
  return out;
}

void QueryService::CountStatus(const Status& status) {
  if (status.code() == StatusCode::kDeadlineExceeded) {
    c_.deadline_exceeded->Inc();
  } else if (status.code() == StatusCode::kCancelled) {
    c_.cancelled->Inc();
  }
}

std::string QueryService::last_trace_json() const {
  std::lock_guard<std::mutex> lock(trace_mu_);
  return last_trace_.has_value() ? last_trace_->ToChromeJson() : std::string();
}

void QueryService::EnableSlowQueryLog(std::string dir,
                                      std::chrono::milliseconds threshold) {
  if (threshold.count() <= 0) {
    slow_log_.reset();
    return;
  }
  slow_log_ = std::make_unique<SlowQueryLog>(std::move(dir), threshold);
}

int64_t QueryService::slow_queries_logged() const {
  return slow_log_ == nullptr ? 0 : slow_log_->queries_logged();
}

const std::vector<Rule>* QueryService::RectifiedRules() {
  // Concurrent shared-lock evaluations race here; the mutex makes the
  // rectification happen once per epoch. The returned pointer stays
  // valid for the caller's whole evaluation: invalidation only happens
  // under the exclusive db lock, which excludes every evaluator.
  std::lock_guard<std::mutex> lock(rectified_mu_);
  if (!rectified_valid_) {
    rectified_ = RectifyRules(&db_.program());
    rectified_valid_ = true;
  }
  return &rectified_;
}

std::vector<std::pair<PredId, uint64_t>> QueryService::SnapshotDeps(
    const std::vector<PredId>& preds) {
  std::vector<std::pair<PredId, uint64_t>> deps;
  deps.reserve(preds.size());
  for (PredId pred : preds) {
    const Relation* rel = db_.GetRelation(pred);
    deps.emplace_back(pred, rel == nullptr ? 0 : rel->version());
  }
  return deps;
}

QueryResponse QueryService::EvaluateOn(EvalDb* eval_db,
                                       const ::chainsplit::Query& query,
                                       const RequestOptions& request) {
  QueryResponse response;

  CancelToken token;
  const bool has_deadline = request.deadline.count() > 0;
  if (has_deadline) token.SetTimeout(request.deadline);
  token.set_parent(request.cancel);
  PlannerOptions planner;
  planner.cancel =
      (has_deadline || request.cancel != nullptr) ? &token : nullptr;
  planner.trace = request.trace;
  planner.rectified = RectifiedRules();

  QueryResult result;
  response.status = EvaluateQueryInto(eval_db, query, planner, &result);
  response.technique = result.technique;
  response.plan = std::move(result.plan);
  response.seminaive_stats = result.seminaive_stats;
  response.buffered_stats = result.buffered_stats;
  response.topdown_stats = result.topdown_stats;
  response.scc_strata = result.scc_strata;
  if (!response.status.ok()) return response;

  const TermPool& pool =
      static_cast<const EvalDb*>(eval_db)->pool();
  response.vars.reserve(result.vars.size());
  for (TermId var : result.vars) response.vars.push_back(pool.ToString(var));
  response.rows.reserve(result.answers.size());
  for (const Tuple& row : result.answers) {
    std::vector<std::string> formatted;
    formatted.reserve(row.size());
    for (TermId value : row) formatted.push_back(pool.ToString(value));
    response.rows.push_back(std::move(formatted));
  }
  return response;
}

QueryResponse QueryService::EvaluateUncached(
    EvalDb* eval_db, std::string_view text, const RequestOptions& request,
    bool want_deps, std::vector<std::pair<PredId, uint64_t>>* deps) {
  QueryResponse response;
  Program& program = eval_db->program();
  // ParseQueryOnly leaves the program untouched apart from interning
  // (internally synchronized), so this is safe under the shared lock.
  TraceSpan parse_span(request.trace, "parse");
  StatusOr<::chainsplit::Query> parsed = ParseQueryOnly(text, &program);
  parse_span.End();
  if (!parsed.ok()) {
    response.status = parsed.status();
    return response;
  }
  response = EvaluateOn(eval_db, *parsed, request);
  if (want_deps) *deps = SnapshotDeps(ReachablePreds(program, *parsed));
  return response;
}

QueryResponse QueryService::Query(std::string_view text,
                                  const RequestOptions& request) {
  const auto start = std::chrono::steady_clock::now();
  // Trace when the caller supplied a sink, when tracing is toggled on,
  // or when the slow-query log is armed (its trace is only written if
  // the query turns out slow). The common untraced path pays two
  // relaxed loads and nothing else.
  std::optional<Trace> owned;
  RequestOptions req = request;
  if (req.trace == nullptr &&
      (tracing_.load(std::memory_order_relaxed) ||
       (slow_log_ != nullptr && slow_log_->enabled()))) {
    owned.emplace(std::string(text));
    req.trace = &*owned;
  }

  QueryResponse response = QueryImpl(text, req);

  const auto duration = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  c_.query_latency->Record(duration.count());
  OutcomeCounter(response.status.code())->Inc();
  AccumulateEvalStats(response);
  if (req.trace != nullptr) req.trace->Finish();
  if (owned.has_value()) {
    if (slow_log_ != nullptr) {
      StatusOr<std::string> logged = slow_log_->Record(*owned, duration);
      if (logged.ok() && !logged->empty()) c_.slow_queries->Inc();
    }
    if (tracing_.load(std::memory_order_relaxed)) {
      // Keep the span tree itself; `:trace last` renders it on demand.
      std::lock_guard<std::mutex> lock(trace_mu_);
      last_trace_.emplace(std::move(*owned));
    }
  }
  return response;
}

QueryResponse QueryService::QueryImpl(std::string_view text,
                                      const RequestOptions& request) {
  QueryResponse response;
  std::optional<CanonicalQueryText> canonical = CanonicalizeQueryText(text);
  if (!canonical.has_value()) {
    response.status = InvalidArgumentError(
        "Query() expects a single `?- goal, ... .` statement");
    return response;
  }
  c_.queries->Inc();

  const bool use_result_cache = !request.bypass_cache;
  const std::string& key = canonical->key;
  if (use_result_cache) {
    TraceSpan lookup_span(request.trace, "result_cache_lookup");
    std::shared_ptr<ResultEntry> entry;
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      entry = result_cache_.Get(key);
    }
    if (entry != nullptr) {
      bool valid = entry->num_vars == canonical->vars.size();
      bool stale_deps = false;
      if (valid) {
        // Validate the dependency snapshot under the shared lock: any
        // concurrent fact writer holds the exclusive side while it
        // bumps relation versions.
        std::shared_lock<std::shared_mutex> db_lock(db_mu_);
        for (const auto& [pred, version] : entry->deps) {
          const Relation* rel = db_.GetRelation(pred);
          if ((rel == nullptr ? 0 : rel->version()) != version) {
            stale_deps = true;
            break;
          }
        }
        std::lock_guard<std::mutex> lock(cache_mu_);
        if (stale_deps || entry->rules_epoch != rules_epoch_) valid = false;
      }
      if (valid) {
        response.vars = canonical->vars;
        response.rows = entry->rows;
        response.technique = entry->technique;
        response.plan = entry->plan + "plan: answers from result cache\n";
        response.result_cache_hit = true;
        response.seminaive_stats = entry->seminaive_stats;
        response.buffered_stats = entry->buffered_stats;
        response.topdown_stats = entry->topdown_stats;
        c_.result_cache_hits->Inc();
        lookup_span.Attr("hit", int64_t{1});
        return response;
      }
      {
        std::lock_guard<std::mutex> lock(cache_mu_);
        result_cache_.Erase(key);
      }
      if (stale_deps) c_.result_cache_invalidations->Inc();
      lookup_span.Attr("invalidated", stale_deps ? int64_t{1} : int64_t{0});
    }
    c_.result_cache_misses->Inc();
    lookup_span.Attr("hit", int64_t{0});
  }

  // Miss (or bypass): parse and evaluate under the *shared* lock only
  // — ParseQueryOnly leaves the program untouched and evaluation writes
  // into a query-local DatabaseOverlay — so concurrent uncached
  // queries run in parallel against the frozen base.
  std::vector<std::pair<PredId, uint64_t>> deps;
  const bool want_deps = use_result_cache;
  uint64_t epoch_at_eval = 0;
  {
    TraceSpan eval_span(request.trace, "evaluate");
    eval_span.Attr("lock", "shared");
    std::shared_lock<std::shared_mutex> db_lock(db_mu_);
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      epoch_at_eval = rules_epoch_;
    }
    c_.shared_evals->Inc();
    DatabaseOverlay overlay(&db_);
    response = EvaluateUncached(&overlay, text, request, want_deps, &deps);
    DatabaseOverlay::Telemetry scratch = overlay.telemetry();
    c_.overlay_relations->Inc(scratch.relations);
    c_.overlay_bytes->Inc(scratch.arena_bytes);
    eval_span.Attr("overlay_relations", scratch.relations);
    eval_span.Attr("overlay_bytes", scratch.arena_bytes);
  }
  CountStatus(response.status);
  if (!response.status.ok() || !use_result_cache) return response;

  TraceSpan store_span(request.trace, "result_cache_store");
  auto entry = std::make_shared<ResultEntry>();
  entry->deps = std::move(deps);
  // Stamp the epoch observed *during* evaluation (captured under the
  // db lock), not the current one: a rule update interleaved between
  // lock release and this Put must leave the entry detectably stale.
  entry->rules_epoch = epoch_at_eval;
  entry->rows = response.rows;
  entry->num_vars = response.vars.size();
  entry->technique = response.technique;
  entry->plan = response.plan;
  entry->seminaive_stats = response.seminaive_stats;
  entry->buffered_stats = response.buffered_stats;
  entry->topdown_stats = response.topdown_stats;
  store_span.Attr("rows", static_cast<int64_t>(entry->rows.size()));
  store_span.Attr("deps", static_cast<int64_t>(entry->deps.size()));
  if (test_before_put_hook_) test_before_put_hook_();
  std::lock_guard<std::mutex> lock(cache_mu_);
  // Revalidate the epoch under the same lock as the insert: a rule
  // update between releasing the db lock and here has already cleared
  // the cache, and inserting this entry would resurrect pre-update
  // answers into the post-update cache. The entry is stamped with
  // epoch_at_eval, so a lookup would reject it anyway (defense in
  // depth) — but skipping the insert also keeps a born-stale entry
  // from evicting a live one.
  if (rules_epoch_ != epoch_at_eval) {
    c_.result_cache_stale_skips->Inc();
    store_span.Attr("skipped_stale", int64_t{1});
    return response;
  }
  result_cache_.Put(key, std::move(entry), kResultCacheCapacity);
  return response;
}

UpdateResponse QueryService::Update(std::string_view text,
                                    const RequestOptions& request) {
  UpdateResponse response =
      UpdateInternal(text, request, /*log=*/true, /*run_queries=*/true);
  OutcomeCounter(response.status.code())->Inc();
  return response;
}

UpdateResponse QueryService::UpdateInternal(std::string_view text,
                                            const RequestOptions& request,
                                            bool log, bool run_queries) {
  UpdateResponse response;
  std::unique_lock<std::shared_mutex> db_lock(db_mu_);
  Program& program = db_.program();
  const Program::Marker marker = program.Mark();
  const size_t rules_before = marker.rules;
  const size_t queries_before = marker.queries;

  response.status = ParseProgram(text, &program);
  if (log) c_.updates->Inc();
  if (!response.status.ok()) {
    // The parser appends clauses as it goes: without this rollback a
    // mid-text error would leave the valid prefix applied (rules
    // visible without an epoch bump, facts never inserted) and — with
    // durability on — applied-but-not-logged. All-or-nothing instead.
    program.RollbackTo(marker);
    return response;
  }

  if (log && wal_ != nullptr) {
    // Validate → log → apply: the record hits the log only after the
    // whole text parsed, and the mutation is applied only after the
    // record is in the log. A WAL failure aborts the statement.
    WalRecord record;
    record.type = WalRecordType::kUpdate;
    record.text = text;
    StatusOr<uint64_t> lsn = wal_->Append(std::move(record));
    if (!lsn.ok()) {
      program.RollbackTo(marker);
      response.status = lsn.status();
      return response;
    }
    NoteLoggedRecord(*lsn);
  }

  // The staged facts go to their relations, and the staging buffer is
  // released: a fact is held once, in its relation.
  response.status = db_.LoadProgramFacts(&response.new_facts);
  if (program.rules().size() != rules_before) {
    response.new_rules =
        static_cast<int64_t>(program.rules().size() - rules_before);
    {
      std::lock_guard<std::mutex> lock(rectified_mu_);
      rectified_valid_ = false;
    }
    std::lock_guard<std::mutex> lock(cache_mu_);
    ++rules_epoch_;
    // New rules can change any derivable answer.
    result_cache_.Clear();
  }
  for (size_t i = queries_before; run_queries && i < program.queries().size();
       ++i) {
    const ::chainsplit::Query& query = program.queries()[i];
    // Embedded queries run through an overlay too (still under the
    // exclusive lock we already hold): the base never accumulates
    // derived evaluation relations.
    DatabaseOverlay overlay(&db_);
    QueryResponse qr = EvaluateOn(&overlay, query, request);
    DatabaseOverlay::Telemetry scratch = overlay.telemetry();
    c_.queries->Inc();
    c_.exclusive_evals->Inc();
    c_.overlay_relations->Inc(scratch.relations);
    c_.overlay_bytes->Inc(scratch.arena_bytes);
    CountStatus(qr.status);
    response.query_responses.push_back(std::move(qr));
  }
  return response;
}

UpdateResponse QueryService::LoadFile(const std::string& path,
                                      const RequestOptions& request) {
  StatusOr<std::string> text = ReadFileToString(path);
  if (!text.ok()) {
    UpdateResponse response;
    response.status = text.status();
    return response;
  }
  return Update(*text, request);
}

StatusOr<int64_t> QueryService::LoadCsv(const std::string& name, int arity,
                                        const std::string& path) {
  // Read the file outside the lock; the WAL stores the *content* (a
  // path may have moved or vanished by recovery time).
  CS_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return LoadCsvContent(name, arity, content, /*delimiter=*/',',
                        /*log=*/true);
}

StatusOr<int64_t> QueryService::LoadCsvContent(std::string_view name,
                                               int arity,
                                               std::string_view content,
                                               char delimiter, bool log) {
  if (arity < 1) {
    return InvalidArgumentError(
        StrCat("csv load into ", name, "/", arity, ": arity must be >= 1"));
  }
  std::unique_lock<std::shared_mutex> db_lock(db_mu_);
  if (log) c_.updates->Inc();
  PredId pred = db_.program().InternPred(name, arity);
  CsvOptions options;
  options.delimiter = delimiter;
  // Stage the whole file before touching the relation: a malformed
  // line 10,000 leaves the database exactly as it was (failure-atomic),
  // and the WAL record — one per load, appended only after staging
  // succeeded — is all-or-nothing with it.
  Program& program = db_.program();
  const Program::Marker marker = program.Mark();
  CS_RETURN_IF_ERROR(StageCsvFacts(&program, pred, content, options).status());
  if (log && wal_ != nullptr) {
    WalRecord record;
    record.type = WalRecordType::kCsvLoad;
    record.text = content;
    record.pred_name = name;
    record.arity = arity;
    record.delimiter = delimiter;
    StatusOr<uint64_t> lsn = wal_->Append(std::move(record));
    if (!lsn.ok()) {
      program.RollbackTo(marker);
      return lsn.status();
    }
    NoteLoggedRecord(*lsn);
  }
  int64_t inserted = 0;
  CS_RETURN_IF_ERROR(db_.LoadProgramFacts(&inserted));
  return inserted;
}

std::vector<std::pair<std::string, int64_t>> QueryService::ListPredicates() {
  std::shared_lock<std::shared_mutex> db_lock(db_mu_);
  std::vector<std::pair<std::string, int64_t>> preds;
  for (PredId pred : db_.StoredPredicates()) {
    const std::string& name = db_.program().preds().name(pred);
    // Hide derived evaluation relations (adorned/magic predicates).
    if (StartsWith(name, "m_") || name.find("__") != std::string::npos ||
        StartsWith(name, "$")) {
      continue;
    }
    const Relation* rel = db_.GetRelation(pred);
    preds.emplace_back(db_.program().preds().Display(pred), rel->size());
  }
  std::sort(preds.begin(), preds.end());
  return preds;
}

}  // namespace chainsplit
