// Snapshot serialization: whole-database roundtrips (terms that do not
// survive text round-tripping included), corruption fallback to older
// snapshots, cold-start behavior.

#include "storage/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "common/strings.h"
#include "rel/csv.h"
#include "storage/recovery.h"

namespace chainsplit {
namespace {

namespace fs = std::filesystem;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            StrCat("cs_snap_test_", ::getpid(), "_",
                   ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

/// A database exercising every term kind and a CSV relation whose
/// symbols would NOT survive a text round-trip ("Alice" re-parses as a
/// variable) — the reason the snapshot format is binary.
void BuildDb(Database* db) {
  const char* program =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
      "edge(a, b). edge(b, c).\n"
      "len([], 0).\n"
      "num(-42). num(7).\n"
      "pair(point(1, 2), point(3, 4)).\n"
      "list3(l, [a, b, c]).\n";
  Status parsed = ParseProgram(program, &db->program());
  ASSERT_TRUE(parsed.ok()) << parsed;
  ASSERT_TRUE(db->LoadProgramFacts().ok());
  db->program().DeclareFiniteMode(
      db->program().InternPred("tc", 2), "bf");
  PredId person = db->program().InternPred("person", 2);
  StatusOr<int64_t> loaded = LoadFactsFromString(
      db, person, "Alice,30\nBob,-5\n_weird,0\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(*loaded, 3);
}

/// Structural equality of two databases, compared on the public
/// surface: predicates, rules, finite modes, and every relation's rows
/// rendered through the pool.
void ExpectSameDb(const Database& a, const Database& b) {
  ASSERT_EQ(a.program().preds().size(), b.program().preds().size());
  for (PredId p = 0; p < a.program().preds().size(); ++p) {
    EXPECT_EQ(a.program().preds().Display(p), b.program().preds().Display(p));
  }
  ASSERT_EQ(a.program().rules().size(), b.program().rules().size());
  ASSERT_EQ(a.program().facts().size(), b.program().facts().size());
  EXPECT_EQ(a.program().finite_modes().size(),
            b.program().finite_modes().size());

  std::vector<PredId> stored_a = a.StoredPredicates();
  std::vector<PredId> stored_b = b.StoredPredicates();
  std::sort(stored_a.begin(), stored_a.end());
  std::sort(stored_b.begin(), stored_b.end());
  ASSERT_EQ(stored_a, stored_b);
  for (PredId p : stored_a) {
    const Relation* ra = a.GetRelation(p);
    const Relation* rb = b.GetRelation(p);
    ASSERT_EQ(ra->num_rows(), rb->num_rows())
        << a.program().preds().Display(p);
    for (int64_t i = 0; i < ra->num_rows(); ++i) {
      Relation::Row row_a = ra->row(i);
      Relation::Row row_b = rb->row(i);
      ASSERT_EQ(row_a.size(), row_b.size());
      for (size_t c = 0; c < row_a.size(); ++c) {
        EXPECT_EQ(a.pool().ToString(row_a[c]), b.pool().ToString(row_b[c]))
            << a.program().preds().Display(p) << " row " << i;
      }
    }
  }
}

TEST_F(SnapshotTest, RoundtripPreservesEverything) {
  Database original;
  BuildDb(&original);

  SnapshotWriteStats stats;
  Status written = WriteSnapshot(original, 17, dir_, &stats);
  ASSERT_TRUE(written.ok()) << written;
  EXPECT_EQ(stats.lsn, 17u);
  EXPECT_GT(stats.bytes, 0);

  Database restored;
  StatusOr<uint64_t> lsn = LoadSnapshotFile(stats.path, &restored);
  ASSERT_TRUE(lsn.ok()) << lsn.status();
  EXPECT_EQ(*lsn, 17u);
  ExpectSameDb(original, restored);
}

TEST_F(SnapshotTest, ListSortsByLsn) {
  Database db;
  ASSERT_TRUE(WriteSnapshot(db, 300, dir_, nullptr).ok());
  ASSERT_TRUE(WriteSnapshot(db, 2, dir_, nullptr).ok());
  ASSERT_TRUE(WriteSnapshot(db, 45, dir_, nullptr).ok());
  std::vector<SnapshotFile> snapshots = ListSnapshots(dir_);
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_EQ(snapshots[0].lsn, 2u);
  EXPECT_EQ(snapshots[1].lsn, 45u);
  EXPECT_EQ(snapshots[2].lsn, 300u);
}

TEST_F(SnapshotTest, CorruptNewestFallsBackToOlder) {
  Database original;
  BuildDb(&original);
  ASSERT_TRUE(WriteSnapshot(original, 5, dir_, nullptr).ok());
  SnapshotWriteStats newest;
  ASSERT_TRUE(WriteSnapshot(original, 9, dir_, &newest).ok());

  // Flip a bit in the newest snapshot's payload.
  std::fstream f(newest.path,
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(40);
  char byte;
  f.seekg(40);
  f.get(byte);
  f.seekp(40);
  f.put(static_cast<char>(byte ^ 0x01));
  f.close();

  Database restored;
  StatusOr<SnapshotLoadResult> loaded = LoadNewestSnapshot(dir_, &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->loaded);
  EXPECT_EQ(loaded->lsn, 5u);  // fell back past the corrupt lsn-9 file
  ASSERT_EQ(loaded->notes.size(), 1u);
  EXPECT_NE(loaded->notes[0].find("crc mismatch"), std::string::npos)
      << loaded->notes[0];
  ExpectSameDb(original, restored);
}

TEST_F(SnapshotTest, AllSnapshotsCorruptMeansColdStart) {
  Database original;
  BuildDb(&original);
  SnapshotWriteStats only;
  ASSERT_TRUE(WriteSnapshot(original, 3, dir_, &only).ok());
  std::ofstream truncate(only.path, std::ios::binary | std::ios::trunc);
  truncate << "not a snapshot";
  truncate.close();

  Database restored;
  StatusOr<SnapshotLoadResult> loaded = LoadNewestSnapshot(dir_, &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->loaded);
  EXPECT_EQ(loaded->notes.size(), 1u);
}

TEST_F(SnapshotTest, EmptyDirIsCleanColdStart) {
  Database restored;
  StatusOr<SnapshotLoadResult> loaded = LoadNewestSnapshot(dir_, &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->loaded);
  EXPECT_TRUE(loaded->notes.empty());
  EXPECT_EQ(restored.StoredPredicates().size(), 0u);
}

TEST_F(SnapshotTest, TmpFilesAreIgnored) {
  Database original;
  BuildDb(&original);
  SnapshotWriteStats stats;
  ASSERT_TRUE(WriteSnapshot(original, 4, dir_, &stats).ok());
  // A crash between write and rename leaves a .tmp sibling.
  std::ofstream stray(stats.path + ".tmp", std::ios::binary);
  stray << "half-written";
  stray.close();

  std::vector<SnapshotFile> snapshots = ListSnapshots(dir_);
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].lsn, 4u);
}

TEST_F(SnapshotTest, RecoveryWithSnapshotOnly) {
  Database original;
  BuildDb(&original);
  ASSERT_TRUE(WriteSnapshot(original, 0, dir_, nullptr).ok());

  Database restored;
  int applied = 0;
  StatusOr<RecoveryResult> recovered = RecoverDatabase(
      dir_, &restored, [&](const WalRecord&) {
        ++applied;
        return Status::Ok();
      });
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(recovered->cold_start);
  EXPECT_EQ(recovered->last_lsn, 0u);
  EXPECT_EQ(applied, 0);
  ExpectSameDb(original, restored);
}

TEST_F(SnapshotTest, RecoveryCreatesMissingDir) {
  std::string fresh = dir_ + "/nested/data";
  fs::create_directories(dir_ + "/nested");
  Database restored;
  StatusOr<RecoveryResult> recovered = RecoverDatabase(
      fresh, &restored, [](const WalRecord&) { return Status::Ok(); });
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->cold_start);
  EXPECT_TRUE(fs::exists(fresh));
}

}  // namespace
}  // namespace chainsplit
