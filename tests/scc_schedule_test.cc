#include "core/scc_schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ast/parser.h"
#include "common/thread_pool.h"
#include "core/planner.h"
#include "core/rectify.h"
#include "rel/catalog.h"

namespace chainsplit {
namespace {

void Load(Database* db, const std::string& text) {
  ASSERT_TRUE(ParseProgram(text, &db->program()).ok()) << text;
  ASSERT_TRUE(db->LoadProgramFacts().ok());
}

/// Generates a random multi-SCC program: several disjoint linear
/// recursions (tc0..tcN over their own edge relations), one
/// same-generation component, one split-chain same-generation
/// component, and a top rule joining a chain's closure with the sg
/// component through a bridge relation. The condensation has
/// independent middle strata (each recursion is its own SCC) feeding
/// one final stratum — the shape the parallel scheduler exists for.
/// Sizes are drawn from `rng`, so repeated calls vary the stratum
/// count, chain lengths and tree fan-out while staying deterministic
/// per seed.
std::string MultiSccProgram(std::mt19937* rng) {
  std::ostringstream out;
  const int chains = 2 + static_cast<int>((*rng)() % 3);  // 2..4
  int last_len = 0;
  for (int c = 0; c < chains; ++c) {
    const int len = 4 + static_cast<int>((*rng)() % 12);  // 4..15
    if (c == 0) last_len = len;
    for (int j = 0; j < len; ++j) {
      out << "e" << c << "(m" << c << "x" << j << ", m" << c << "x" << j + 1
          << ").\n";
    }
    out << "tc" << c << "(X, Y) :- e" << c << "(X, Y).\n";
    out << "tc" << c << "(X, Y) :- e" << c << "(X, Z), tc" << c
        << "(Z, Y).\n";
  }

  // Same-generation over a random tree: children cK hang off parent
  // p0, grandchildren gK off random children. sibling seeds the
  // recursion at the child generation.
  const int kids = 2 + static_cast<int>((*rng)() % 3);  // 2..4
  for (int k = 0; k < kids; ++k) out << "par(c" << k << ", p0).\n";
  const int grand = 2 + static_cast<int>((*rng)() % 4);  // 2..5
  for (int g = 0; g < grand; ++g) {
    out << "par(g" << g << ", c" << (*rng)() % kids << ").\n";
  }
  out << "sib(c0, c1). sib(c1, c0).\n";
  out << "sg(X, Y) :- sib(X, Y).\n";
  out << "sg(X, Y) :- par(X, X1), sg(X1, Y1), par(Y, Y1).\n";

  // Split-chain same generation: up chain x0..xk, flat(xk, yk), down
  // facts mirroring the up chain, so scsg(xi, yi) holds for all i.
  const int k = 3 + static_cast<int>((*rng)() % 8);  // 3..10
  for (int i = 0; i < k; ++i) {
    out << "up(x" << i << ", x" << i + 1 << ").\n";
    out << "down(y" << i + 1 << ", y" << i << ").\n";
  }
  out << "flat(x" << k << ", y" << k << ").\n";
  out << "scsg(X, Y) :- flat(X, Y).\n";
  out << "scsg(X, Y) :- up(X, Z), scsg(Z, W), down(W, Y).\n";

  // Top stratum: depends on tc0, sg and scsg — it can only run after
  // all three complete, so it exercises the multi-dependency join of
  // published strata.
  out << "link(m0x" << last_len << ", g0).\n";
  out << "top(X, Y) :- tc0(X, Z), link(Z, W), sg(W, Y).\n";
  out << "top(X, Y) :- scsg(X, Y).\n";
  return out.str();
}

/// Byte-identity over every stored predicate: same predicates, same
/// row counts, same tuples in the same row order. Both databases must
/// have loaded the identical program text (so PredIds coincide).
void ExpectIdenticalStoredRelations(const Database& a, const Database& b,
                                    const std::string& label) {
  std::vector<PredId> pa = a.StoredPredicates();
  std::vector<PredId> pb = b.StoredPredicates();
  std::sort(pa.begin(), pa.end());
  std::sort(pb.begin(), pb.end());
  ASSERT_EQ(pa, pb) << label;
  for (PredId pred : pa) {
    const Relation* ra = a.GetRelation(pred);
    const Relation* rb = b.GetRelation(pred);
    ASSERT_NE(ra, nullptr) << label;
    ASSERT_NE(rb, nullptr) << label;
    ASSERT_EQ(ra->num_rows(), rb->num_rows())
        << label << " pred " << pred;
    for (int64_t i = 0; i < ra->num_rows(); ++i) {
      ASSERT_EQ(ra->row(i), rb->row(i))
          << label << " pred " << pred << " row " << i;
    }
  }
}

const Relation* Rel(Database* db, std::string_view name, int arity) {
  auto pred = db->program().preds().Find(name, arity);
  return pred.has_value() ? db->GetRelation(*pred) : nullptr;
}

/// The tentpole acceptance bar: the parallel schedule is byte-identical
/// to the serial stratified schedule at 1, 2, 4 and 8 workers, over
/// randomized multi-SCC programs.
TEST(SccScheduleTest, ByteIdenticalAcrossWorkerCounts) {
  std::mt19937 rng(0xC0FFEE);
  for (int round = 0; round < 4; ++round) {
    const std::string text = MultiSccProgram(&rng);
    Database serial;
    Load(&serial, text);
    ASSERT_TRUE(MaterializeAllScc(&serial, {}, /*parallel_scc=*/1).ok());
    const Relation* top = Rel(&serial, "top", 2);
    ASSERT_NE(top, nullptr);
    ASSERT_GT(top->num_rows(), 0) << "generator produced an empty top";
    for (int workers : {2, 4, 8}) {
      ThreadPool pool(workers);
      Database parallel;
      Load(&parallel, text);
      ASSERT_TRUE(
          MaterializeAllScc(&parallel, {}, workers, &pool).ok());
      ExpectIdenticalStoredRelations(
          serial, parallel,
          "round " + std::to_string(round) + " workers " +
              std::to_string(workers));
    }
  }
}

/// The stratified schedule computes the same *answers* as the
/// monolithic fixpoint (row order may differ — that is why
/// parallel_scc is opt-in).
TEST(SccScheduleTest, StratifiedAgreesWithMonolithicAsSets) {
  std::mt19937 rng(42);
  const std::string text = MultiSccProgram(&rng);
  Database mono;
  Load(&mono, text);
  ASSERT_TRUE(MaterializeAll(&mono).ok());
  Database strat;
  Load(&strat, text);
  ASSERT_TRUE(MaterializeAllScc(&strat, {}, 1).ok());
  std::vector<PredId> preds = mono.StoredPredicates();
  for (PredId pred : preds) {
    const Relation* rm = mono.GetRelation(pred);
    const Relation* rs = strat.GetRelation(pred);
    ASSERT_NE(rs, nullptr);
    ASSERT_EQ(rm->num_rows(), rs->num_rows()) << "pred " << pred;
    for (int64_t i = 0; i < rm->num_rows(); ++i) {
      ASSERT_TRUE(rs->Contains(rm->row(i)))
          << "pred " << pred << " row " << i;
    }
  }
}

/// Schedule telemetry: a multi-SCC program actually fans out — every
/// stratum is dispatched in parallel mode, and the condensation has
/// more strata than one.
TEST(SccScheduleTest, ScheduleStatsReportFanOut) {
  std::mt19937 rng(7);
  Database db;
  Load(&db, MultiSccProgram(&rng));
  std::vector<Rule> rectified = RectifyRules(&db.program());
  ThreadPool pool(4);
  SccScheduleOptions sched;
  sched.max_parallel = 4;
  sched.pool = &pool;
  SemiNaiveStats stats;
  SccScheduleStats schedule_stats;
  ASSERT_TRUE(EvaluateSccSchedule(&db, rectified, sched, &stats,
                                  &schedule_stats)
                  .ok());
  EXPECT_GE(schedule_stats.num_sccs, 4);  // >= 2 chains + sg + scsg + top
  EXPECT_EQ(schedule_stats.parallel_sccs, schedule_stats.num_sccs);
  EXPECT_GE(schedule_stats.max_ready_width, 2);
  EXPECT_GT(stats.iterations, 0);
  EXPECT_GT(stats.total_derived, 0);
}

/// A per-stratum resource cap tripping mid-schedule must surface the
/// stratum's error with well-formed partial stats, and in parallel
/// mode leave the target database untouched (publication only happens
/// on full success).
TEST(SccScheduleTest, MidScheduleFailureLeavesDbUntouchedInParallel) {
  std::ostringstream text;
  for (int j = 0; j < 40; ++j) {
    text << "e0(a" << j << ", a" << j + 1 << ").\n";
  }
  text << "tc0(X, Y) :- e0(X, Y).\n";
  text << "tc0(X, Y) :- e0(X, Z), tc0(Z, Y).\n";
  text << "p(b). q(X) :- p(X).\n";  // a second, trivially cheap SCC
  Database db;
  Load(&db, text.str());
  std::vector<Rule> rectified = RectifyRules(&db.program());

  ThreadPool pool(2);
  SccScheduleOptions sched;
  sched.max_parallel = 2;
  sched.pool = &pool;
  sched.seminaive.max_iterations = 3;  // the 40-hop chain needs ~40
  SemiNaiveStats stats;
  Status status = EvaluateSccSchedule(&db, rectified, sched, &stats);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(stats.iterations, 0);  // partial work is reported
  // Nothing was published: the IDB relations never materialize.
  EXPECT_EQ(Rel(&db, "tc0", 2), nullptr);
}

/// A schedule token cancelled before dispatch cuts every stratum
/// through its child token and reports kCancelled.
TEST(SccScheduleTest, PreCancelledTokenCutsWholeSchedule) {
  std::mt19937 rng(3);
  Database db;
  Load(&db, MultiSccProgram(&rng));
  std::vector<Rule> rectified = RectifyRules(&db.program());
  CancelToken cancel;
  cancel.Cancel();
  ThreadPool pool(4);
  SccScheduleOptions sched;
  sched.max_parallel = 4;
  sched.pool = &pool;
  sched.seminaive.cancel = &cancel;
  SemiNaiveStats stats;
  Status status = EvaluateSccSchedule(&db, rectified, sched, &stats);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(Rel(&db, "top", 2), nullptr);
}

/// Serial stratified mode evaluates in place: a failure there may
/// leave completed strata behind (documented), but the status and
/// partial stats must still be well-formed.
TEST(SccScheduleTest, SerialFailureReportsPartialStats) {
  std::ostringstream text;
  for (int j = 0; j < 40; ++j) {
    text << "e0(a" << j << ", a" << j + 1 << ").\n";
  }
  text << "tc0(X, Y) :- e0(X, Y).\n";
  text << "tc0(X, Y) :- e0(X, Z), tc0(Z, Y).\n";
  Database db;
  Load(&db, text.str());
  std::vector<Rule> rectified = RectifyRules(&db.program());
  SccScheduleOptions sched;  // max_parallel = 1: serial
  sched.seminaive.max_iterations = 3;
  SemiNaiveStats stats;
  Status status = EvaluateSccSchedule(&db, rectified, sched, &stats);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(stats.iterations, 0);
}

/// tsan stress: concurrent schedules over private databases sharing
/// one pool. Exercises the coordinator/worker handshake, per-caller
/// WorkGroup waits on a saturated pool, and import publication, all
/// under racing callers.
TEST(SccScheduleTest, ConcurrentSchedulesOnSharedPoolStress) {
  ThreadPool pool(4);
  std::mt19937 seed_rng(99);
  std::vector<std::string> texts;
  for (int i = 0; i < 3; ++i) {
    std::mt19937 rng(seed_rng());
    texts.push_back(MultiSccProgram(&rng));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&texts, &pool, &failures, t] {
      for (int round = 0; round < 3; ++round) {
        const std::string& text = texts[(t + round) % texts.size()];
        Database serial;
        Database parallel;
        {
          Database* dbs[] = {&serial, &parallel};
          for (Database* db : dbs) {
            if (!ParseProgram(text, &db->program()).ok() ||
                !db->LoadProgramFacts().ok()) {
              failures.fetch_add(1);
              return;
            }
          }
        }
        if (!MaterializeAllScc(&serial, {}, 1).ok() ||
            !MaterializeAllScc(&parallel, {}, 4, &pool).ok()) {
          failures.fetch_add(1);
          return;
        }
        for (PredId pred : serial.StoredPredicates()) {
          const Relation* rs = serial.GetRelation(pred);
          const Relation* rp = parallel.GetRelation(pred);
          if (rp == nullptr || rs->num_rows() != rp->num_rows()) {
            failures.fetch_add(1);
            return;
          }
          for (int64_t i = 0; i < rs->num_rows(); ++i) {
            if (!(rs->row(i) == rp->row(i))) {
              failures.fetch_add(1);
              return;
            }
          }
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(failures.load(), 0);
}

/// StratumOverlay unit behavior: imports resolve reads, locals COW
/// from imports on first write, and PublishTo appends the local rows
/// (not the COW'd import prefix twice) in sorted-predicate order.
TEST(SccScheduleTest, StratumOverlayImportsAndPublication) {
  Database db;
  Load(&db, "e(a, b). e(b, c).\n");
  auto e = db.program().preds().Find("e", 2);
  ASSERT_TRUE(e.has_value());
  PredId derived = db.program().InternPred("derived", 2);

  StratumOverlay overlay(&db);
  overlay.AddImport(*e, db.GetRelation(*e));
  // Reads resolve through the import without copying.
  ASSERT_EQ(overlay.GetRelation(*e), db.GetRelation(*e));
  // First write to an imported predicate COWs it into the overlay.
  TermId x = db.pool().MakeSymbol("x");
  Relation* local_e = overlay.GetOrCreateRelation(*e);
  ASSERT_NE(local_e, db.GetRelation(*e));
  EXPECT_EQ(local_e->num_rows(), 2);  // seeded with the import rows
  EXPECT_TRUE(local_e->Insert({x, x}));
  EXPECT_EQ(db.GetRelation(*e)->num_rows(), 2);  // parent untouched

  Relation* d = overlay.GetOrCreateRelation(derived);
  EXPECT_TRUE(d->Insert({x, x}));

  // Publication targets the database the schedule ran over (PredIds
  // are only meaningful within one program): it creates missing
  // relations, unions the overlay's locals, and skips rows the target
  // already holds. Import-only predicates are not republished.
  overlay.PublishTo(&db);
  const Relation* pub = db.GetRelation(derived);
  ASSERT_NE(pub, nullptr);
  EXPECT_EQ(pub->num_rows(), 1);
  const Relation* pub_e = db.GetRelation(*e);
  ASSERT_NE(pub_e, nullptr);
  EXPECT_EQ(pub_e->num_rows(), 3);  // the 2 base rows + the COW'd insert
}

}  // namespace
}  // namespace chainsplit
