#include "core/scc_schedule.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "common/deadline.h"
#include "core/classify.h"
#include "core/cost_model.h"

namespace chainsplit {
namespace {

/// Running sum of Relation storage counters (mirror of the seminaive
/// accounting, taken at schedule scope so concurrent strata are not
/// double-counted).
struct TelemetrySum {
  int64_t probes = 0;
  int64_t collisions = 0;
  int64_t arena = 0;
};

TelemetrySum DatabaseTelemetry(const EvalDb& db) {
  TelemetrySum sum;
  for (PredId pred : db.StoredPredicates()) {
    const Relation* rel = db.GetRelation(pred);
    if (rel == nullptr) continue;
    Relation::Telemetry t = rel->telemetry();
    sum.probes += t.probes;
    sum.collisions += t.hash_collisions;
    sum.arena += t.arena_bytes;
  }
  return sum;
}

/// State of one stratum (one SCC of the condensation).
struct Stratum {
  std::vector<Rule> rules;  // rules headed in this SCC, program order
  std::vector<int> succs;   // condensation successors
  int unmet_deps = 0;
  std::unique_ptr<StratumOverlay> overlay;  // parallel mode only
  CancelToken cancel;       // child of the schedule token
  SemiNaiveStats stats;
  Status status;
  int64_t duration_us = 0;
  bool done = false;       // set by the worker, read under the mutex
  bool processed = false;  // coordinator consumed the completion
};

/// Per-stratum evaluator options: child cancel token, optional
/// per-stratum estimator, caller's caps.
SemiNaiveOptions StratumOptions(const SccScheduleOptions& options,
                                EvalDb* eval_db, const CancelToken* cancel,
                                Trace* trace) {
  SemiNaiveOptions sn = options.seminaive;
  sn.cancel = cancel;
  sn.trace = trace;
  if (options.use_stats_ordering && sn.estimator == nullptr) {
    sn.estimator = StatsEstimator(eval_db);
  }
  return sn;
}

void MergeStats(const SemiNaiveStats& from, SemiNaiveStats* into) {
  into->iterations += from.iterations;
  into->total_derived += from.total_derived;
  into->counters.Add(from.counters);
}

}  // namespace

Status EvaluateSccSchedule(EvalDb* db, const std::vector<Rule>& rules,
                           const SccScheduleOptions& options,
                           SemiNaiveStats* stats,
                           SccScheduleStats* schedule_stats) {
  using Clock = std::chrono::steady_clock;
  *stats = SemiNaiveStats{};
  SccScheduleStats sched;

  // Storage-telemetry baseline at schedule scope (concurrent strata
  // share the base relations' counters, so per-run storage numbers are
  // computed once, here).
  const TelemetrySum db_before = DatabaseTelemetry(*db);

  ProgramAnalysis analysis = ProgramAnalysis::Analyze(db->program(), rules);
  const int n = analysis.num_sccs();
  sched.num_sccs = n;

  std::vector<Stratum> strata(n);
  for (const Rule& rule : rules) {
    const int s = analysis.Get(rule.head.pred).scc;
    strata[s].rules.push_back(rule);
  }
  for (int s = 0; s < n; ++s) {
    strata[s].unmet_deps = static_cast<int>(analysis.scc_deps()[s].size());
    for (int dep : analysis.scc_deps()[s]) strata[dep].succs.push_back(s);
    strata[s].cancel.set_parent(options.seminaive.cancel);
  }

  Status status;
  Trace* trace = options.seminaive.trace;
  const bool parallel = options.max_parallel > 1 && n > 1;

  if (!parallel) {
    // Serial stratified schedule: ascending SCC id is topological, so
    // every stratum evaluates in place over its completed callees.
    for (int s = 0; s < n && status.ok(); ++s) {
      TraceSpan span(trace, "scc");
      span.Attr("scc", static_cast<int64_t>(s));
      span.Attr("preds",
                static_cast<int64_t>(analysis.sccs()[s].size()));
      const Clock::time_point t0 = Clock::now();
      SemiNaiveOptions sn =
          StratumOptions(options, db, &strata[s].cancel, trace);
      status = SemiNaiveEvaluate(db, strata[s].rules, sn, &strata[s].stats);
      strata[s].duration_us =
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                t0)
              .count();
      MergeStats(strata[s].stats, stats);
      span.Attr("iterations", strata[s].stats.iterations);
      span.Attr("derived", strata[s].stats.total_derived);
    }
  } else {
    ThreadPool* pool =
        options.pool != nullptr ? options.pool : &ThreadPool::Shared();
    std::mutex mu;
    std::condition_variable done_cv;
    int inflight = 0;
    int completed = 0;
    bool failed = false;
    std::deque<int> ready;
    for (int s = 0; s < n; ++s) {
      if (strata[s].unmet_deps == 0) ready.push_back(s);
    }

    // Resolves the import snapshot of stratum `s`: every predicate its
    // rules mention, from the completed predecessor stratum that owns
    // it, else from the parent database. Runs on the coordinating
    // thread — in-flight strata never touch these structures.
    auto build_overlay = [&](int s) {
      auto overlay = std::make_unique<StratumOverlay>(db);
      std::set<PredId> mentioned;
      for (const Rule& rule : strata[s].rules) {
        mentioned.insert(rule.head.pred);
        for (const Atom& atom : rule.body) mentioned.insert(atom.pred);
      }
      for (PredId pred : mentioned) {
        const Relation* rel = nullptr;
        const int owner = analysis.Get(pred).scc;
        if (owner >= 0 && owner != s && strata[owner].overlay != nullptr) {
          rel = strata[owner].overlay->GetRelation(pred);
        }
        if (rel == nullptr) rel = db->GetRelation(pred);
        overlay->AddImport(pred, rel);
      }
      strata[s].overlay = std::move(overlay);
    };

    ThreadPool::WorkGroup group(pool);
    {
      std::unique_lock<std::mutex> lock(mu);
      for (;;) {
        while (!failed && !ready.empty() && inflight < options.max_parallel) {
          const int s = ready.front();
          ready.pop_front();
          lock.unlock();
          build_overlay(s);
          lock.lock();
          ++inflight;
          ++sched.parallel_sccs;
          sched.max_ready_width = std::max(
              sched.max_ready_width,
              inflight + static_cast<int>(ready.size()));
          Stratum* st = &strata[s];
          group.Submit([st, &options, &mu, &done_cv] {
            const Clock::time_point t0 = Clock::now();
            SemiNaiveOptions sn = StratumOptions(
                options, st->overlay.get(), &st->cancel, nullptr);
            st->status = SemiNaiveEvaluate(st->overlay.get(), st->rules, sn,
                                           &st->stats);
            st->duration_us =
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - t0)
                    .count();
            {
              std::lock_guard<std::mutex> guard(mu);
              st->done = true;
            }
            done_cv.notify_all();
          });
        }
        if (completed == n || (failed && inflight == 0)) break;
        done_cv.wait(lock, [&] {
          for (int s = 0; s < n; ++s) {
            if (strata[s].done && !strata[s].processed) return true;
          }
          return false;
        });
        for (int s = 0; s < n; ++s) {
          if (!strata[s].done || strata[s].processed) continue;
          strata[s].processed = true;
          --inflight;
          ++completed;
          MergeStats(strata[s].stats, stats);
          if (!strata[s].status.ok() && !failed) {
            failed = true;
            status = strata[s].status;
            // Cut the siblings: their child tokens fail at the next
            // iteration check; the ready queue is simply abandoned.
            for (int t = 0; t < n; ++t) {
              if (!strata[t].done) strata[t].cancel.Cancel();
            }
          }
          if (!failed) {
            for (int succ : strata[s].succs) {
              if (--strata[succ].unmet_deps == 0) ready.push_back(succ);
            }
          }
        }
      }
    }
    group.Wait();  // no-op: every submitted stratum was processed

    if (status.ok()) {
      // Deterministic merge: topological stratum order; each relation
      // keeps its stratum's derivation order. This is the only point
      // where `*db` is written.
      for (int s = 0; s < n; ++s) {
        if (strata[s].overlay != nullptr) strata[s].overlay->PublishTo(db);
      }
    }
    if (trace != nullptr) {
      // Summary spans from the coordinating thread (a Trace is
      // thread-confined); wall time rides as an attribute.
      for (int s = 0; s < n; ++s) {
        if (strata[s].overlay == nullptr) continue;
        TraceSpan span(trace, "scc");
        span.Attr("scc", static_cast<int64_t>(s));
        span.Attr("preds", static_cast<int64_t>(analysis.sccs()[s].size()));
        span.Attr("iterations", strata[s].stats.iterations);
        span.Attr("derived", strata[s].stats.total_derived);
        span.Attr("eval_us", strata[s].duration_us);
      }
    }
  }

  const TelemetrySum db_after = DatabaseTelemetry(*db);
  stats->storage.probes = db_after.probes - db_before.probes;
  stats->storage.hash_collisions = db_after.collisions - db_before.collisions;
  stats->storage.arena_bytes = db_after.arena;

  if (schedule_stats != nullptr) *schedule_stats = sched;
  return status;
}

}  // namespace chainsplit
