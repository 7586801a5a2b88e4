#include "rel/csv.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "core/planner.h"

namespace chainsplit {
namespace {

TEST(CsvTest, LoadsSymbolsAndIntegers) {
  Database db;
  PredId flight = db.program().InternPred("flight", 4);
  auto loaded = LoadFactsFromString(&db, flight, R"(# fno,dep,arr,fare
1,montreal,toronto,200
2,toronto,ottawa,150

3,montreal,ottawa,-700
)");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 3);
  const Relation* rel = db.GetRelation(flight);
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->size(), 3);
  EXPECT_TRUE(rel->Contains({db.pool().MakeInt(1),
                             db.pool().MakeSymbol("montreal"),
                             db.pool().MakeSymbol("toronto"),
                             db.pool().MakeInt(200)}));
  EXPECT_TRUE(rel->Contains({db.pool().MakeInt(3),
                             db.pool().MakeSymbol("montreal"),
                             db.pool().MakeSymbol("ottawa"),
                             db.pool().MakeInt(-700)}));
}

TEST(CsvTest, CountsOnlyNewTuples) {
  Database db;
  PredId e = db.program().InternPred("e", 2);
  ASSERT_TRUE(LoadFactsFromString(&db, e, "a,b\n").ok());
  auto loaded = LoadFactsFromString(&db, e, "a,b\nb,c\n");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, 1);
}

TEST(CsvTest, ArityMismatchReportsLine) {
  Database db;
  PredId e = db.program().InternPred("e", 2);
  auto loaded = LoadFactsFromString(&db, e, "a,b\na,b,c\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
}

TEST(CsvTest, FailedLoadIsAllOrNothing) {
  // The whole file is staged and validated before the first insert, so
  // an error on line 3 must not leave lines 1-2 behind — the durable
  // WAL records a load only after it fully succeeds, and replay
  // re-runs this same path (docs/service.md §Durability).
  Database db;
  PredId e = db.program().InternPred("e", 2);
  ASSERT_TRUE(LoadFactsFromString(&db, e, "x,y\n").ok());
  const Relation* rel = db.GetRelation(e);
  ASSERT_NE(rel, nullptr);
  const uint64_t version_before = rel->version();

  auto rejected = LoadFactsFromString(&db, e, "a,b\nc,d\nbad_line\n");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rel->num_rows(), 1);                // only x,y
  EXPECT_EQ(rel->version(), version_before);    // no partial insert

  // The rejected load staged nothing that a later load could pick up.
  EXPECT_EQ(db.program().num_staged_facts(), 0);

  // Staging alone never mutates the relation.
  auto staged = StageCsvFacts(&db.program(), e, "p,q\nr,s\n", CsvOptions());
  ASSERT_TRUE(staged.ok()) << staged.status();
  EXPECT_EQ(*staged, 2);
  EXPECT_EQ(db.program().num_staged_facts(), 2);
  EXPECT_EQ(rel->num_rows(), 1);
  // A failed staging drops only its own rows.
  EXPECT_FALSE(StageCsvFacts(&db.program(), e, "t,u\nv\n").ok());
  EXPECT_EQ(db.program().num_staged_facts(), 2);
  int64_t loaded = 0;
  ASSERT_TRUE(db.LoadProgramFacts(&loaded).ok());
  EXPECT_EQ(loaded, 2);
  EXPECT_EQ(rel->num_rows(), 3);
  EXPECT_EQ(db.program().num_staged_facts(), 0);
}

TEST(CsvTest, IntegerFieldOutOfRangeIsAnError) {
  Database db;
  PredId e = db.program().InternPred("e", 2);
  auto loaded = LoadFactsFromString(&db, e, "a,9223372036854775807\n"
                                            "b,-9223372036854775808\n"
                                            "c,9223372036854775808\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "line 3: integer field '9223372036854775808' out of range");
  EXPECT_EQ(db.GetRelation(e), nullptr);
  ASSERT_TRUE(LoadFactsFromString(&db, e, "a,9223372036854775807\n"
                                          "b,-9223372036854775808\n")
                  .ok());
  EXPECT_EQ(db.GetRelation(e)->num_rows(), 2);
}

TEST(CsvTest, CustomDelimiterAndCrlf) {
  Database db;
  PredId e = db.program().InternPred("e", 2);
  CsvOptions options;
  options.delimiter = '\t';
  auto loaded = LoadFactsFromString(&db, e, "a\tb\r\nc\td\r\n", options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 2);
}

TEST(CsvTest, RoundTripThroughDump) {
  Database db;
  PredId e = db.program().InternPred("e", 2);
  ASSERT_TRUE(LoadFactsFromString(&db, e, "a,1\nb,2\n").ok());
  auto dumped = DumpFactsToString(db, e);
  ASSERT_TRUE(dumped.ok());
  Database db2;
  PredId e2 = db2.program().InternPred("e", 2);
  auto reloaded = LoadFactsFromString(&db2, e2, *dumped);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*reloaded, 2);
}

TEST(CsvTest, DumpOfMissingRelationIsEmpty) {
  Database db;
  PredId e = db.program().InternPred("e", 2);
  auto dumped = DumpFactsToString(db, e);
  ASSERT_TRUE(dumped.ok());
  EXPECT_TRUE(dumped->empty());
}

TEST(CsvTest, FileLoadingAndMissingFile) {
  Database db;
  PredId e = db.program().InternPred("e", 2);
  const char* path = "/tmp/chainsplit_csv_test.csv";
  {
    std::ofstream out(path);
    out << "x,y\ny,z\n";
  }
  auto loaded = LoadFactsFromFile(&db, e, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 2);
  std::remove(path);
  auto missing = LoadFactsFromFile(&db, e, "/tmp/does_not_exist.csv");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(CsvTest, LoadedFactsAnswerQueries) {
  Database db;
  PredId edge = db.program().InternPred("edge", 2);
  ASSERT_TRUE(LoadFactsFromString(&db, edge, "a,b\nb,c\nc,d\n").ok());
  ASSERT_TRUE(ParseProgram(R"(
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
?- tc(a, Y).
)",
                           &db.program())
                  .ok());
  auto result = EvaluateQuery(&db, db.program().queries()[0]);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->answers.size(), 3u);
}

}  // namespace
}  // namespace chainsplit
