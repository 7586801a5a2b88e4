// Snapshot serialization: whole-database roundtrips (terms that do not
// survive text round-tripping included), corruption fallback to older
// snapshots, cold-start behavior, and CRC-valid payloads with hostile
// counts or mutated bytes (a Status, never a crash).

#include "storage/snapshot.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "common/strings.h"
#include "rel/csv.h"
#include "storage/crc32.h"
#include "storage/log_record.h"
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
  // Loaded facts live in relations only; none stays staged.
  EXPECT_EQ(a.program().num_staged_facts(), 0);
  EXPECT_EQ(b.program().num_staged_facts(), 0);
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

// File header: 8-byte magic | u64 payload length | u32 crc32(payload).
constexpr size_t kHeaderBytes = 8 + 8 + 4;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// The payload of a snapshot of `program` (header stripped); `*magic`
/// receives the file's magic bytes.
std::string SnapshotPayload(const std::string& dir, const char* program,
                            std::string* magic) {
  Database db;
  EXPECT_TRUE(ParseProgram(program, &db.program()).ok());
  EXPECT_TRUE(db.LoadProgramFacts().ok());
  SnapshotWriteStats stats;
  EXPECT_TRUE(WriteSnapshot(db, 1, dir, &stats).ok());
  std::string file = ReadFile(stats.path);
  std::filesystem::remove(stats.path);
  *magic = file.substr(0, 8);
  return file.substr(kHeaderBytes);
}

/// Writes `payload` under a fresh, matching header — the CRC is
/// resealed, so only the decoder stands between the bytes and the
/// database — and loads it into an empty database.
StatusOr<uint64_t> LoadResealed(const std::string& dir,
                                const std::string& magic,
                                const std::string& payload) {
  std::string file = magic;
  wire::PutU64(&file, payload.size());
  wire::PutU32(&file, Crc32(payload));
  file += payload;
  const std::string path = dir + "/resealed.css";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << file;
  Database db;
  return LoadSnapshotFile(path, &db);
}

uint64_t GetU64(const std::string& bytes, size_t at) {
  uint64_t v = 0;
  wire::Reader in{std::string_view(bytes).substr(at, 8)};
  EXPECT_TRUE(in.ReadU64(&v));
  return v;
}
uint32_t GetU32(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  wire::Reader in{std::string_view(bytes).substr(at, 4)};
  EXPECT_TRUE(in.ReadU32(&v));
  return v;
}
void SetU64(std::string* bytes, size_t at, uint64_t v) {
  std::string le;
  wire::PutU64(&le, v);
  bytes->replace(at, 8, le);
}
void SetU32(std::string* bytes, size_t at, uint32_t v) {
  std::string le;
  wire::PutU32(&le, v);
  bytes->replace(at, 4, le);
}

/// Peak virtual memory of this process in bytes (VmPeak), or -1 where
/// /proc/self/status is not available.
int64_t PeakVirtualBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmPeak:", 0) == 0) {
      return std::stoll(line.substr(7)) * 1024;  // reported in kB
    }
  }
  return -1;
}

// The relation section closes the payload: u32 pred, u32 arity, u64
// rows, then the rows. One p/2 row puts `rows` 16 bytes from the end.
TEST_F(SnapshotTest, HugeRelationRowCountIsAStatus) {
  std::string magic;
  const std::string payload = SnapshotPayload(dir_, "p(a, b).", &magic);
  const size_t rows_at = payload.size() - 8 - 8;
  ASSERT_EQ(GetU32(payload, rows_at - 4), 2u);  // arity
  ASSERT_EQ(GetU64(payload, rows_at), 1u);
  ASSERT_TRUE(LoadResealed(dir_, magic, payload).ok());

  // 2^62 rows would size a reserve that throws; 2^63 rows of 8 bytes
  // wrap to 0 bytes and would pass a byte-count check, reading past the
  // payload.
  for (uint64_t rows : {uint64_t{2}, uint64_t{1} << 62, uint64_t{1} << 63,
                        ~uint64_t{0}}) {
    std::string bad = payload;
    SetU64(&bad, rows_at, rows);
    EXPECT_FALSE(LoadResealed(dir_, magic, bad).ok()) << rows << " rows";
  }
}

TEST_F(SnapshotTest, ArityZeroRelationWithManyRowsIsAStatus) {
  std::string magic;
  const std::string payload = SnapshotPayload(dir_, "z.", &magic);
  const size_t rows_at = payload.size() - 8;  // no row bytes follow
  ASSERT_EQ(GetU32(payload, rows_at - 4), 0u);  // arity
  ASSERT_EQ(GetU64(payload, rows_at), 1u);
  ASSERT_TRUE(LoadResealed(dir_, magic, payload).ok());

  for (uint64_t rows : {uint64_t{2}, uint64_t{1} << 62}) {
    std::string bad = payload;
    SetU64(&bad, rows_at, rows);
    EXPECT_FALSE(LoadResealed(dir_, magic, bad).ok()) << rows << " rows";
  }
}

// A rule-only program ends in the rule: head atom (u32 pred, u32 argc,
// argc u32 terms), u32 body size, body atoms, then three empty u64
// counts (facts, finite modes, relations).
class SnapshotRuleCountTest : public SnapshotTest {
 protected:
  void SetUp() override {
    SnapshotTest::SetUp();
    payload_ = SnapshotPayload(dir_, "q(X) :- r(X).", &magic_);
    const size_t end = payload_.size() - 3 * 8;
    for (size_t at = end; at < payload_.size(); ++at) {
      ASSERT_EQ(payload_[at], 0) << "expected three empty trailing counts";
    }
    body_argc_at_ = end - 12 + 4;
    body_size_at_ = end - 12 - 4;
    head_argc_at_ = body_size_at_ - 12 + 4;
    ASSERT_EQ(GetU32(payload_, body_argc_at_), 1u);
    ASSERT_EQ(GetU32(payload_, body_size_at_), 1u);
    ASSERT_EQ(GetU32(payload_, head_argc_at_), 1u);
    ASSERT_TRUE(LoadResealed(dir_, magic_, payload_).ok());
  }

  std::string magic_;
  std::string payload_;
  size_t head_argc_at_ = 0;
  size_t body_size_at_ = 0;
  size_t body_argc_at_ = 0;
};

// An arg count of 2^32-1 must not reserve 16 GB before the first
// argument is read: nothing may be sized beyond the bytes left.
TEST_F(SnapshotRuleCountTest, HugeAtomArgCountIsAStatus) {
  for (size_t at : {head_argc_at_, body_argc_at_}) {
    std::string bad = payload_;
    SetU32(&bad, at, 0xFFFFFFFFu);
    const int64_t peak_before = PeakVirtualBytes();
    EXPECT_FALSE(LoadResealed(dir_, magic_, bad).ok()) << "argc at " << at;
    if (peak_before >= 0) {
      EXPECT_LT(PeakVirtualBytes() - peak_before, int64_t{1} << 30)
          << "argc at " << at << " sized an allocation";
    }
  }
}

// A body size of 2^32-1 must not value-initialize 2^32 atoms.
TEST_F(SnapshotRuleCountTest, HugeRuleBodySizeIsAStatus) {
  std::string bad = payload_;
  SetU32(&bad, body_size_at_, 0xFFFFFFFFu);
  EXPECT_FALSE(LoadResealed(dir_, magic_, bad).ok());
}

/// Offset in a snapshot payload of `db` of the fact-list count: the
/// finite-mode and relation sections that follow it are sized from
/// db's public surface, backwards from the payload's end.
size_t FactCountOffset(const Database& db, const std::string& payload) {
  size_t tail = 8;  // finite-mode count
  for (const auto& [pred, adornments] : db.program().finite_modes()) {
    tail += 4 + 4;
    for (const std::string& adornment : adornments) {
      tail += 4 + adornment.size();
    }
  }
  tail += 8;  // relation count
  for (PredId pred : db.StoredPredicates()) {
    const Relation* rel = db.GetRelation(pred);
    tail += 4 + 4 + 8 +
            static_cast<size_t>(rel->num_rows() * rel->arity()) *
                sizeof(TermId);
  }
  return payload.size() - tail - 8;
}

// Older builds wrote the program's fact list into the fact-list slot,
// rows that the relations section holds too. Such a snapshot, encoded
// here by hand, must recover to the same relations, rows and order; a
// fresh snapshot leaves the slot empty.
TEST_F(SnapshotTest, FileIsHeaderThenPayloadByteForByte) {
  Database db;
  BuildDb(&db);
  // Enough rows that the payload spans many pages.
  PredId big = db.program().InternPred("big", 2);
  for (int64_t i = 0; i < 50000; ++i) {
    db.InsertFact(big, {db.pool().MakeInt(i), db.pool().MakeInt(i % 97)});
  }
  SnapshotWriteStats stats;
  ASSERT_TRUE(WriteSnapshot(db, 23, dir_, &stats).ok());
  const std::string file = ReadFile(stats.path);
  EXPECT_EQ(stats.bytes, static_cast<int64_t>(file.size()));
  ASSERT_GT(file.size(), size_t{400000});

  // The layout: magic, u64 payload length, u32 CRC of the payload, then
  // the payload, with nothing between or after.
  const std::string payload = file.substr(kHeaderBytes);
  std::string expected("CSDSNAP1", 8);
  wire::PutU64(&expected, payload.size());
  wire::PutU32(&expected, Crc32(payload));
  expected += payload;
  EXPECT_TRUE(file == expected);

  // Writing the same database again yields the same bytes.
  const std::string again_dir = dir_ + "/again";
  fs::create_directories(again_dir);
  SnapshotWriteStats again;
  ASSERT_TRUE(WriteSnapshot(db, 23, again_dir, &again).ok());
  EXPECT_TRUE(ReadFile(again.path) == file);
  Database restored;
  ASSERT_TRUE(LoadSnapshotFile(stats.path, &restored).ok());
  ExpectSameDb(db, restored);
}

TEST_F(SnapshotTest, OlderFactListSectionIsValidatedAndSkipped) {
  Database original;
  BuildDb(&original);
  SnapshotWriteStats stats;
  ASSERT_TRUE(WriteSnapshot(original, 11, dir_, &stats).ok());
  const std::string file = ReadFile(stats.path);
  const std::string magic = file.substr(0, 8);
  const std::string payload = file.substr(kHeaderBytes);
  const size_t count_at = FactCountOffset(original, payload);
  EXPECT_EQ(GetU64(payload, count_at), 0u);  // fresh: empty slot

  // The parent layout's entries: u32 pred, u32 argc, argc u32 terms,
  // one per program fact (the CSV-loaded person/2 rows never were),
  // duplicates included.
  const PredId person = *original.program().preds().Find("person", 2);
  const PredId edge = *original.program().preds().Find("edge", 2);
  std::string entries;
  uint64_t num_entries = 0;
  auto put_entry = [&](PredId pred, Relation::Row row) {
    wire::PutU32(&entries, static_cast<uint32_t>(pred));
    wire::PutU32(&entries, static_cast<uint32_t>(row.size()));
    for (TermId term : row) wire::PutU32(&entries, static_cast<uint32_t>(term));
    ++num_entries;
  };
  std::vector<PredId> stored = original.StoredPredicates();
  std::sort(stored.begin(), stored.end());
  for (PredId pred : stored) {
    if (pred == person) continue;
    const Relation* rel = original.GetRelation(pred);
    for (int64_t i = 0; i < rel->num_rows(); ++i) put_entry(pred, rel->row(i));
  }
  put_entry(edge, original.GetRelation(edge)->row(0));
  ASSERT_GT(num_entries, 5u);

  auto with_facts = [&](uint64_t count, const std::string& body) {
    std::string old = payload.substr(0, count_at);
    wire::PutU64(&old, count);
    old += body;
    old += payload.substr(count_at + 8);
    return old;
  };
  auto load = [&](const std::string& body, Database* db) {
    std::string bytes = magic;
    wire::PutU64(&bytes, body.size());
    wire::PutU32(&bytes, Crc32(body));
    bytes += body;
    const std::string path = dir_ + "/older.css";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    return LoadSnapshotFile(path, db);
  };

  Database restored;
  StatusOr<uint64_t> lsn = load(with_facts(num_entries, entries), &restored);
  ASSERT_TRUE(lsn.ok()) << lsn.status();
  EXPECT_EQ(*lsn, 11u);
  ExpectSameDb(original, restored);

  // The skipped entries are still validated.
  Database truncated;
  EXPECT_FALSE(load(with_facts(num_entries + 1, entries), &truncated).ok());
  std::string bad_pred = entries;
  SetU32(&bad_pred, 0, 0xFFFFu);
  Database out_of_range;
  EXPECT_FALSE(load(with_facts(num_entries, bad_pred), &out_of_range).ok());
}

/// Seeded byte mutations of a small snapshot, each resealed so the
/// CRC gate passes: every load must come back as a Status (run under
/// the asan preset for memory errors).
TEST_F(SnapshotTest, ResealedByteMutationsReturnAStatus) {
  Database db;
  BuildDb(&db);
  SnapshotWriteStats stats;
  ASSERT_TRUE(WriteSnapshot(db, 7, dir_, &stats).ok());
  const std::string file = ReadFile(stats.path);
  const std::string magic = file.substr(0, 8);
  const std::string payload = file.substr(kHeaderBytes);
  ASSERT_TRUE(LoadResealed(dir_, magic, payload).ok());

  uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next = [&rng](uint64_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % bound;
  };
  constexpr int kMutants = 2000;
  int rejected = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string bad = payload;
    const int edits = 1 + static_cast<int>(next(3));
    for (int e = 0; e < edits; ++e) {
      const size_t at = next(bad.size());
      switch (next(4)) {
        case 0:  // one bit
          bad[at] = static_cast<char>(bad[at] ^ (1 << next(8)));
          break;
        case 1:  // one byte
          bad[at] = static_cast<char>(next(256));
          break;
        case 2:  // a huge little-endian count
          for (size_t i = at; i < bad.size() && i < at + 4; ++i) {
            bad[i] = static_cast<char>(0xFF);
          }
          break;
        default:  // truncation
          bad.resize(at);
          break;
      }
      if (bad.empty()) break;
    }
    StatusOr<uint64_t> loaded = LoadResealed(dir_, magic, bad);
    if (!loaded.ok()) ++rejected;
  }
  EXPECT_GT(rejected, kMutants / 2);
}

}  // namespace
}  // namespace chainsplit
