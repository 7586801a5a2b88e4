// WAL framing and scanning: CRC32 vectors, append/scan roundtrips,
// torn-tail tolerance vs. mid-log corruption errors, segment rotation
// and deletion, and CRC-resealed mutants recovered through the service.

#include "storage/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "service/query_service.h"
#include "storage/crc32.h"
#include "storage/log_record.h"

namespace chainsplit {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            StrCat("cs_wal_test_", ::getpid(), "_",
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

TEST(Crc32Test, KnownVectors) {
  // The canonical check value of CRC-32/ISO-HDLC.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

// The plain bytewise table loop: the reference the slice-by-8 Crc32
// must agree with on every length and alignment.
uint32_t BytewiseCrc32(const unsigned char* bytes, size_t size,
                       uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseLoopAtAnyLengthAndAlignment) {
  std::mt19937_64 rng(20261018);
  std::vector<unsigned char> buffer(4096 + 16);
  for (unsigned char& b : buffer) b = static_cast<unsigned char>(rng());
  for (int round = 0; round < 2000; ++round) {
    const size_t offset = rng() % 16;
    const size_t size = round < 64 ? static_cast<size_t>(round)
                                   : static_cast<size_t>(rng() % 4097);
    const uint32_t seed = round % 2 == 0 ? 0 : static_cast<uint32_t>(rng());
    const unsigned char* start = buffer.data() + offset;
    ASSERT_EQ(Crc32(start, size, seed), BytewiseCrc32(start, size, seed))
        << "size " << size << " offset " << offset << " seed " << seed;
  }
}

TEST(Crc32Test, SeedChainsPartialComputations) {
  const std::string text = "chain-split evaluation";
  for (size_t cut = 0; cut <= text.size(); ++cut) {
    EXPECT_EQ(Crc32(text.substr(cut), Crc32(text.substr(0, cut))),
              Crc32(text));
  }
}

TEST(WalRecordTest, UpdateRoundtrip) {
  WalRecord record;
  record.lsn = 42;
  record.type = WalRecordType::kUpdate;
  record.text = "p(a, b).\nq(X) :- p(X, _).\n";
  // The decoded record views the payload, which must outlive it.
  const std::string payload = EncodeWalRecord(record);
  StatusOr<WalRecord> decoded = DecodeWalRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->lsn, 42u);
  EXPECT_EQ(decoded->type, WalRecordType::kUpdate);
  EXPECT_EQ(decoded->text, record.text);
}

TEST(WalRecordTest, CsvRoundtrip) {
  WalRecord record;
  record.lsn = 7;
  record.type = WalRecordType::kCsvLoad;
  record.text = "a|b\nc|d\n";
  record.pred_name = "edge";
  record.arity = 2;
  record.delimiter = '|';
  // The decoded record views the payload, which must outlive it.
  const std::string payload = EncodeWalRecord(record);
  StatusOr<WalRecord> decoded = DecodeWalRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, WalRecordType::kCsvLoad);
  EXPECT_EQ(decoded->text, record.text);
  EXPECT_EQ(decoded->pred_name, "edge");
  EXPECT_EQ(decoded->arity, 2);
  EXPECT_EQ(decoded->delimiter, '|');
}

TEST(WalRecordTest, RejectsTrailingBytesAndBadType) {
  WalRecord record;
  record.type = WalRecordType::kUpdate;
  record.text = "p(a).";
  std::string payload = EncodeWalRecord(record);
  EXPECT_FALSE(DecodeWalRecord(payload + "x").ok());
  payload[8] = 99;  // type byte (after the u64 lsn)
  EXPECT_FALSE(DecodeWalRecord(payload).ok());
}

TEST(WalPolicyTest, ParsePolicy) {
  EXPECT_EQ(*ParseWalSyncPolicy("always"), WalSyncPolicy::kAlways);
  EXPECT_EQ(*ParseWalSyncPolicy("interval"), WalSyncPolicy::kInterval);
  EXPECT_EQ(*ParseWalSyncPolicy("none"), WalSyncPolicy::kNone);
  EXPECT_FALSE(ParseWalSyncPolicy("sometimes").ok());
}

TEST(WalPolicyTest, LsnHexIsSortable) {
  EXPECT_EQ(LsnToHex(0), "0000000000000000");
  EXPECT_EQ(LsnToHex(255), "00000000000000ff");
  EXPECT_LT(LsnToHex(9), LsnToHex(10));
  EXPECT_LT(LsnToHex(99), LsnToHex(256));
}

/// A scanned record with its text copied: the record's own view dies
/// with the scan.
struct ScannedRecord {
  uint64_t lsn = 0;
  std::string text;
};

std::vector<ScannedRecord> ScanAll(const std::string& dir,
                                   WalScanStats* stats, Status* status) {
  std::vector<ScannedRecord> records;
  *status = Status::Ok();
  for (const WalSegment& segment : ListWalSegments(dir)) {
    WalScanStats one;
    *status = ScanWalFile(
        segment.path,
        [&](WalRecord&& record) -> Status {
          records.push_back({record.lsn, std::string(record.text)});
          return Status::Ok();
        },
        &one);
    stats->records += one.records;
    if (one.torn_tail) {
      stats->torn_tail = true;
      stats->note = one.note;
    }
    if (!status->ok()) break;
  }
  return records;
}

TEST_F(WalTest, AppendScanRoundtrip) {
  {
    StatusOr<std::unique_ptr<Wal>> wal =
        Wal::Open(dir_, 1, {WalSyncPolicy::kNone, 0});
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (int i = 0; i < 5; ++i) {
      WalRecord record;
      record.type = WalRecordType::kUpdate;
      const std::string text = StrCat("p(a", i, ").");
      record.text = text;
      StatusOr<uint64_t> lsn = (*wal)->Append(std::move(record));
      ASSERT_TRUE(lsn.ok()) << lsn.status();
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
    }
    EXPECT_EQ((*wal)->last_lsn(), 5u);
    EXPECT_EQ((*wal)->stats().records, 5);
  }
  WalScanStats stats;
  Status status;
  std::vector<ScannedRecord> records = ScanAll(dir_, &stats, &status);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_FALSE(stats.torn_tail);
  ASSERT_EQ(records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(records[i].lsn, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(records[i].text, StrCat("p(a", i, ")."));
  }
}

TEST_F(WalTest, AppendedFramesAreTheEncodedPayloadFramed) {
  // Append gathers header, fixed fields and text into one writev; the
  // bytes on disk must be exactly u32 len | u32 crc | EncodeWalRecord,
  // the frame layout recovery reads (and older builds wrote).
  const std::string update_text = "edge(a, b).\ntc(X, Y) :- edge(X, Y).\n";
  std::string csv_text;
  for (int i = 0; i < 20000; ++i) csv_text += StrCat("n", i, "|n", i + 1, "\n");
  WalRecord update;
  update.type = WalRecordType::kUpdate;
  update.text = update_text;
  WalRecord csv;
  csv.type = WalRecordType::kCsvLoad;
  csv.text = csv_text;
  csv.pred_name = "edge";
  csv.arity = 2;
  csv.delimiter = '|';
  WalRecord empty;
  empty.type = WalRecordType::kUpdate;
  {
    StatusOr<std::unique_ptr<Wal>> wal =
        Wal::Open(dir_, 7, {WalSyncPolicy::kNone, 0});
    ASSERT_TRUE(wal.ok()) << wal.status();
    EXPECT_EQ(*(*wal)->Append(update), 7u);
    EXPECT_EQ(*(*wal)->Append(csv), 8u);
    EXPECT_EQ(*(*wal)->Append(empty), 9u);
  }
  update.lsn = 7;
  csv.lsn = 8;
  empty.lsn = 9;
  auto frame = [](const WalRecord& record) {
    const std::string payload = EncodeWalRecord(record);
    std::string out;
    wire::PutU32(&out, static_cast<uint32_t>(payload.size()));
    wire::PutU32(&out, Crc32(payload));
    return out + payload;
  };
  std::vector<WalSegment> segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  StatusOr<std::string> file = ReadFileToString(segments[0].path);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_TRUE(*file == frame(update) + frame(csv) + frame(empty));
}

TEST_F(WalTest, ReopenStartsFreshSegmentAndKeepsLsnSequence) {
  for (int run = 0; run < 3; ++run) {
    StatusOr<std::unique_ptr<Wal>> wal =
        Wal::Open(dir_, static_cast<uint64_t>(run * 2 + 1),
                  {WalSyncPolicy::kNone, 0});
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (int i = 0; i < 2; ++i) {
      WalRecord record;
      record.type = WalRecordType::kUpdate;
      const std::string text = StrCat("r", run, "i", i, ".");
      record.text = text;
      ASSERT_TRUE((*wal)->Append(std::move(record)).ok());
    }
  }
  EXPECT_EQ(ListWalSegments(dir_).size(), 3u);
  WalScanStats stats;
  Status status;
  std::vector<ScannedRecord> records = ScanAll(dir_, &stats, &status);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(records.size(), 6u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);  // consecutive across segments
  }
}

TEST_F(WalTest, TornTailIsToleratedAtEveryCut) {
  {
    StatusOr<std::unique_ptr<Wal>> wal =
        Wal::Open(dir_, 1, {WalSyncPolicy::kNone, 0});
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (int i = 0; i < 3; ++i) {
      WalRecord record;
      record.type = WalRecordType::kUpdate;
      const std::string text = StrCat("fact_number_", i, "(with_some_payload).");
      record.text = text;
      ASSERT_TRUE((*wal)->Append(std::move(record)).ok());
    }
  }
  std::vector<WalSegment> segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  std::ifstream in(segments[0].path, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  // Frame boundaries of the intact file: a cut exactly on one is a
  // clean (shorter) log, anywhere else is a torn tail.
  std::set<size_t> boundaries{0};
  {
    size_t at = 0;
    while (at < full.size()) {
      uint32_t length = 0;
      memcpy(&length, full.data() + at, 4);  // little-endian test host
      at += 8 + length;
      boundaries.insert(at);
    }
  }

  // Cut the file at every length shorter than full: the scan must
  // never error, and must only drop whole records from the tail.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::ofstream out(segments[0].path,
                      std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(cut));
    out.close();
    WalScanStats stats;
    Status status = ScanWalFile(
        segments[0].path, [](WalRecord&&) { return Status::Ok(); }, &stats);
    ASSERT_TRUE(status.ok()) << "cut=" << cut << ": " << status;
    EXPECT_EQ(stats.torn_tail, boundaries.count(cut) == 0) << "cut=" << cut;
    EXPECT_LE(stats.records, 3);
  }
}

TEST_F(WalTest, BitFlipMidLogIsAHardError) {
  {
    StatusOr<std::unique_ptr<Wal>> wal =
        Wal::Open(dir_, 1, {WalSyncPolicy::kNone, 0});
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (int i = 0; i < 3; ++i) {
      WalRecord record;
      record.type = WalRecordType::kUpdate;
      const std::string text = StrCat("stable_payload_", i, "(a, b, c).");
      record.text = text;
      ASSERT_TRUE((*wal)->Append(std::move(record)).ok());
    }
  }
  std::vector<WalSegment> segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  std::ifstream in(segments[0].path, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  // Flip one bit inside the *first* record's payload (offset 8 is just
  // past its frame header).
  std::string flipped = full;
  flipped[10] = static_cast<char>(flipped[10] ^ 0x40);
  std::ofstream out(segments[0].path, std::ios::binary | std::ios::trunc);
  out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
  out.close();

  WalScanStats stats;
  int applied = 0;
  Status status = ScanWalFile(
      segments[0].path,
      [&](WalRecord&&) {
        ++applied;
        return Status::Ok();
      },
      &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("crc mismatch"), std::string::npos)
      << status;
  // Nothing after the hole was applied.
  EXPECT_EQ(applied, 0);
}

TEST_F(WalTest, RotateAndDeleteSegmentsBelow) {
  StatusOr<std::unique_ptr<Wal>> wal =
      Wal::Open(dir_, 1, {WalSyncPolicy::kNone, 0});
  ASSERT_TRUE(wal.ok()) << wal.status();
  for (int i = 0; i < 4; ++i) {
    WalRecord record;
    record.type = WalRecordType::kUpdate;
    const std::string text = StrCat("p(", i, ").");
    record.text = text;
    ASSERT_TRUE((*wal)->Append(std::move(record)).ok());
  }
  ASSERT_TRUE((*wal)->Rotate().ok());  // seals lsns 1..4
  // Rotate with an empty current segment is a no-op.
  ASSERT_TRUE((*wal)->Rotate().ok());
  EXPECT_EQ(ListWalSegments(dir_).size(), 2u);

  WalRecord record;
  record.type = WalRecordType::kUpdate;
  record.text = "p(4).";
  ASSERT_TRUE((*wal)->Append(std::move(record)).ok());

  // A snapshot at lsn 4 keeps lsn 5+: the sealed segment (1..4) goes.
  StatusOr<int> removed = (*wal)->DeleteSegmentsBelow(5);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(*removed, 1);
  std::vector<WalSegment> segments = ListWalSegments(dir_);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].first_lsn, 5u);

  // The current segment is never deleted, whatever the horizon.
  removed = (*wal)->DeleteSegmentsBelow(100);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(*removed, 0);
  EXPECT_EQ(ListWalSegments(dir_).size(), 1u);
}

TEST_F(WalTest, SyncPoliciesCountFsyncs) {
  {
    StatusOr<std::unique_ptr<Wal>> wal =
        Wal::Open(dir_, 1, {WalSyncPolicy::kAlways, 0});
    ASSERT_TRUE(wal.ok()) << wal.status();
    for (int i = 0; i < 3; ++i) {
      WalRecord record;
      record.type = WalRecordType::kUpdate;
      record.text = "p(a).";
      ASSERT_TRUE((*wal)->Append(std::move(record)).ok());
    }
    EXPECT_GE((*wal)->stats().syncs, 3);
  }
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  {
    StatusOr<std::unique_ptr<Wal>> wal =
        Wal::Open(dir_, 1, {WalSyncPolicy::kNone, 0});
    ASSERT_TRUE(wal.ok()) << wal.status();
    WalRecord record;
    record.type = WalRecordType::kUpdate;
    record.text = "p(a).";
    ASSERT_TRUE((*wal)->Append(std::move(record)).ok());
    EXPECT_EQ((*wal)->stats().syncs, 0);
  }
}

/// The payloads of every frame of a segment file, in order.
std::vector<std::string> SplitFrames(const std::string& segment) {
  std::vector<std::string> payloads;
  for (size_t at = 0; at + 8 <= segment.size();) {
    wire::Reader header{std::string_view(segment).substr(at, 8)};
    uint32_t length = 0;
    uint32_t crc = 0;
    header.ReadU32(&length);
    header.ReadU32(&crc);
    payloads.push_back(segment.substr(at + 8, length));
    at += 8 + length;
  }
  return payloads;
}

/// Frames `payloads` again, each with its own length and a fresh CRC.
std::string Reseal(const std::vector<std::string>& payloads) {
  std::string segment;
  for (const std::string& payload : payloads) {
    wire::PutU32(&segment, static_cast<uint32_t>(payload.size()));
    wire::PutU32(&segment, Crc32(payload));
    segment += payload;
  }
  return segment;
}

/// Seeded byte mutations of a data dir's WAL segment (update and csv
/// records), each frame resealed so the CRC gate passes and the record
/// decoder and replay are reached: every recovery must come back as a
/// Status or a recovered service (run under the asan preset for memory
/// errors).
TEST_F(WalTest, ResealedMutationsRecoverOrReturnAStatus) {
  const std::string base = dir_ + "/base";
  const std::string csv = dir_ + "/person.csv";
  std::ofstream(csv) << "alice,30\nbob,40\n";
  DurabilityOptions options;
  options.wal.sync = WalSyncPolicy::kNone;
  options.data_dir = base;
  {
    QueryService service;
    ASSERT_TRUE(service.EnableDurability(options).ok());
    ASSERT_TRUE(service.Update("tc(X, Y) :- e(X, Y).\n"
                               "tc(X, Y) :- e(X, Z), tc(Z, Y).\n")
                    .status.ok());
    ASSERT_TRUE(service.Update("e(a, b). e(b, c).").status.ok());
    ASSERT_TRUE(service.LoadCsv("person", 2, csv).ok());
    ASSERT_TRUE(service.Update("e(c, d).").status.ok());
  }
  std::vector<WalSegment> segments = ListWalSegments(base);
  ASSERT_EQ(segments.size(), 1u);
  const std::string name = fs::path(segments[0].path).filename().string();
  std::string bytes;
  {
    std::ifstream in(segments[0].path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const std::vector<std::string> payloads = SplitFrames(bytes);
  ASSERT_EQ(payloads.size(), 4u);
  ASSERT_EQ(Reseal(payloads), bytes);

  // Recovers `payloads`, resealed, from a fresh data dir.
  auto recover = [&](const std::vector<std::string>& frames) {
    const std::string dir = dir_ + "/mutant";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::ofstream(dir + "/" + name, std::ios::binary) << Reseal(frames);
    DurabilityOptions mutant = options;
    mutant.data_dir = dir;
    QueryService service;
    return service.EnableDurability(mutant).status();
  };
  ASSERT_TRUE(recover(payloads).ok());

  // The csv record with its arity set to 0xFFFFFFFF.
  {
    std::vector<std::string> frames = payloads;
    StatusOr<WalRecord> record = DecodeWalRecord(frames[2]);
    ASSERT_TRUE(record.ok()) << record.status();
    ASSERT_EQ(record->type, WalRecordType::kCsvLoad);
    const size_t arity_at = 8 + 1 + 4 + record->pred_name.size();
    frames[2].replace(arity_at, 4, std::string(4, '\xFF'));
    Status status = recover(frames);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("arity must be >= 1"), std::string::npos)
        << status;
  }

  uint64_t rng = 0x2545f4914f6cdd1dULL;
  auto next = [&rng](uint64_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % bound;
  };
  constexpr int kMutants = 2000;
  int rejected = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::vector<std::string> frames = payloads;
    const int edits = 1 + static_cast<int>(next(3));
    for (int e = 0; e < edits; ++e) {
      std::string& bad = frames[next(frames.size())];
      if (bad.empty()) continue;
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
    }
    if (!recover(frames).ok()) ++rejected;
  }
  EXPECT_GT(rejected, kMutants / 2);
  EXPECT_LT(rejected, kMutants);  // some mutants still replay cleanly
}

}  // namespace
}  // namespace chainsplit
