#include "core/scc_schedule.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ast/parser.h"
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
/// one final stratum.
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
  // all three complete, so it joins the output of several strata.
  out << "link(m0x" << last_len << ", g0).\n";
  out << "top(X, Y) :- tc0(X, Z), link(Z, W), sg(W, Y).\n";
  out << "top(X, Y) :- scsg(X, Y).\n";
  return out.str();
}

const Relation* Rel(Database* db, std::string_view name, int arity) {
  auto pred = db->program().preds().Find(name, arity);
  return pred.has_value() ? db->GetRelation(*pred) : nullptr;
}

/// The stratified schedule computes the same *answers* as one
/// semi-naive fixpoint over all rules at once (row order differs: a
/// stratum sees its callees complete, not growing alongside it).
TEST(SccScheduleTest, StratifiedAgreesWithMonolithicAsSets) {
  std::mt19937 rng(42);
  const std::string text = MultiSccProgram(&rng);
  Database mono;
  Load(&mono, text);
  SemiNaiveStats mono_stats;
  ASSERT_TRUE(SemiNaiveEvaluate(&mono, RectifyRules(&mono.program()), {},
                                &mono_stats)
                  .ok());
  Database strat;
  Load(&strat, text);
  ASSERT_TRUE(MaterializeAll(&strat).ok());
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

/// Schedule telemetry: a multi-SCC program splits into more strata
/// than one, and the merged stats carry every stratum's work.
TEST(SccScheduleTest, ScheduleStatsReportFanOut) {
  std::mt19937 rng(7);
  Database db;
  Load(&db, MultiSccProgram(&rng));
  std::vector<Rule> rectified = RectifyRules(&db.program());
  SemiNaiveStats stats;
  int num_sccs = 0;
  ASSERT_TRUE(
      EvaluateSccSchedule(&db, rectified, {}, &stats, &num_sccs).ok());
  EXPECT_GE(num_sccs, 4);  // >= 2 chains + sg + scsg + top
  EXPECT_GT(stats.iterations, 0);
  EXPECT_GT(stats.total_derived, 0);
  EXPECT_GT(stats.counters.tuples_considered, 0);
}

/// A schedule token cancelled before the first stratum stops the
/// schedule there and reports kCancelled.
TEST(SccScheduleTest, PreCancelledTokenCutsWholeSchedule) {
  std::mt19937 rng(3);
  Database db;
  Load(&db, MultiSccProgram(&rng));
  std::vector<Rule> rectified = RectifyRules(&db.program());
  CancelToken cancel;
  cancel.Cancel();
  SccScheduleOptions sched;
  sched.seminaive.cancel = &cancel;
  SemiNaiveStats stats;
  Status status = EvaluateSccSchedule(&db, rectified, sched, &stats);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(Rel(&db, "top", 2), nullptr);
}

/// The schedule evaluates in place: a failure may leave completed
/// strata behind (documented), but the status and partial stats must
/// still be well-formed.
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
  SccScheduleOptions sched;
  sched.seminaive.max_iterations = 3;
  SemiNaiveStats stats;
  Status status = EvaluateSccSchedule(&db, rectified, sched, &stats);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(stats.iterations, 0);
}

/// Three disjoint 10-edge closures, one stratum each, 55 tc tuples
/// and 11 rounds apiece.
std::string ThreeChainClosures() {
  std::ostringstream text;
  for (int c = 0; c < 3; ++c) {
    for (int j = 0; j < 10; ++j) {
      text << "e" << c << "(c" << c << "n" << j << ", c" << c << "n"
           << j + 1 << ").\n";
    }
    text << "tc" << c << "(X, Y) :- e" << c << "(X, Y).\n";
    text << "tc" << c << "(X, Y) :- e" << c << "(X, Z), tc" << c
         << "(Z, Y).\n";
  }
  return text.str();
}

/// The resource caps bound the schedule, not each stratum: every
/// stratum stays under the cap on its own, but their sum goes over it.
TEST(SccScheduleTest, CapsBoundTheWholeSchedule) {
  for (bool cap_tuples : {true, false}) {
    Database db;
    Load(&db, ThreeChainClosures());
    std::vector<Rule> rectified = RectifyRules(&db.program());

    SccScheduleOptions uncapped;
    SemiNaiveStats full;
    ASSERT_TRUE(EvaluateSccSchedule(&db, rectified, uncapped, &full).ok());
    ASSERT_EQ(full.total_derived, 3 * 55);

    Database capped_db;
    Load(&capped_db, ThreeChainClosures());
    SccScheduleOptions capped;
    if (cap_tuples) {
      capped.seminaive.max_tuples = 100;  // > 55 per stratum, < 165
    } else {
      capped.seminaive.max_iterations = full.iterations - 1;
      ASSERT_GT(capped.seminaive.max_iterations, full.iterations / 3);
    }
    SemiNaiveStats stats;
    Status status = EvaluateSccSchedule(&capped_db, rectified, capped,
                                        &stats);
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
        << (cap_tuples ? "max_tuples" : "max_iterations");
  }
}

}  // namespace
}  // namespace chainsplit
