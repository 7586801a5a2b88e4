#include "storage/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <string.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <map>

#include "common/strings.h"
#include "storage/crc32.h"
#include "storage/log_record.h"
#include "storage/wal.h"

namespace chainsplit {
namespace {

// File layout:
//   8-byte magic | u64 payload_length | u32 crc32(payload) | payload
// Payload sections (all wire:: little-endian):
//   u64 lsn
//   term pool:   u64 count, then per node a kind byte + kind payload
//   predicates:  u64 count, then (string name, u32 arity)
//   rules:       u64 count, then head atom + u32 body size + body atoms
//   facts:       u64 count, then atoms. Always 0 when written: facts
//                live in their relations only. Older builds wrote the
//                program's fact list here, rows their relations section
//                holds too; the decoder validates and skips them.
//   finite modes:u64 count, then (u32 pred, u32 n, n strings)
//   relations:   u64 count, then (u32 pred, u32 arity, u64 rows,
//                rows*arity raw i32 TermIds — the arena, verbatim)
constexpr char kMagic[8] = {'C', 'S', 'D', 'S', 'N', 'A', 'P', '1'};
constexpr char kSnapPrefix[] = "snap-";
constexpr char kSnapSuffix[] = ".css";

void PutAtom(std::string* out, const Atom& atom) {
  wire::PutU32(out, static_cast<uint32_t>(atom.pred));
  wire::PutU32(out, static_cast<uint32_t>(atom.args.size()));
  for (TermId arg : atom.args) {
    wire::PutU32(out, static_cast<uint32_t>(arg));
  }
}

Status CorruptError(std::string_view what) {
  return InvalidArgumentError(StrCat("snapshot decode: ", what));
}

bool ReadAtom(wire::Reader* in, int64_t num_preds, int64_t num_terms,
              Atom* atom) {
  uint32_t pred = 0;
  uint32_t argc = 0;
  if (!in->ReadU32(&pred) || !in->ReadU32(&argc)) return false;
  if (pred >= static_cast<uint32_t>(num_preds)) return false;
  if (argc > in->remaining() / 4) return false;  // each arg is a u32
  atom->pred = static_cast<PredId>(pred);
  atom->args.clear();
  atom->args.reserve(argc);
  for (uint32_t i = 0; i < argc; ++i) {
    uint32_t term = 0;
    if (!in->ReadU32(&term)) return false;
    if (term >= static_cast<uint32_t>(num_terms)) return false;
    atom->args.push_back(static_cast<TermId>(term));
  }
  return true;
}

// Counts the term section's nodes by kind, reading a copy of `in`, and
// reserves the pool's indexes to match, so replaying the interning calls
// never rehashes. Stops at the first malformed node; the decode proper
// reports it.
void ReserveTermIndexes(wire::Reader in, uint64_t num_terms,
                        TermPool* pool) {
  size_t ints = 0;
  size_t names = 0;
  size_t compounds = 0;
  std::string_view name;
  for (uint64_t i = 0; i < num_terms; ++i) {
    uint8_t kind = 0;
    uint64_t value = 0;
    uint32_t argc = 0;
    if (!in.ReadU8(&kind)) break;
    bool ok = false;
    switch (static_cast<TermKind>(kind)) {
      case TermKind::kInt:
        ++ints;
        ok = in.ReadU64(&value);
        break;
      case TermKind::kSymbol:
      case TermKind::kVariable:
        ++names;
        ok = in.ReadStringView(&name);
        break;
      case TermKind::kCompound:
        ++compounds;
        ok = in.ReadStringView(&name) && in.ReadU32(&argc) &&
             in.remaining() / 4 >= argc;
        if (ok) in.at += size_t{4} * argc;
        break;
    }
    if (!ok) break;
  }
  pool->Reserve(ints, names, compounds);
}

std::string EncodeSnapshotPayload(const Database& db, uint64_t lsn) {
  std::string out;
  wire::PutU64(&out, lsn);

  // Term pool. The arenas are append-only, so capturing the size first
  // and serializing exactly that prefix is consistent even while
  // concurrent queries intern new terms (under the service's shared
  // lock nothing a relation or rule references can change).
  const TermPool& pool = db.pool();
  const int64_t num_terms = pool.size();
  wire::PutU64(&out, static_cast<uint64_t>(num_terms));
  for (TermId t = 0; t < num_terms; ++t) {
    wire::PutU8(&out, static_cast<uint8_t>(pool.kind(t)));
    switch (pool.kind(t)) {
      case TermKind::kInt:
        wire::PutI64(&out, pool.int_value(t));
        break;
      case TermKind::kSymbol:
      case TermKind::kVariable:
        wire::PutString(&out, pool.name(t));
        break;
      case TermKind::kCompound: {
        wire::PutString(&out, pool.functor(t));
        std::span<const TermId> args = pool.args(t);
        wire::PutU32(&out, static_cast<uint32_t>(args.size()));
        for (TermId arg : args) {
          wire::PutU32(&out, static_cast<uint32_t>(arg));
        }
        break;
      }
    }
  }

  // Predicate table.
  const PredicateTable& preds = db.program().preds();
  const int64_t num_preds = preds.size();
  wire::PutU64(&out, static_cast<uint64_t>(num_preds));
  for (PredId p = 0; p < num_preds; ++p) {
    wire::PutString(&out, preds.name(p));
    wire::PutU32(&out, static_cast<uint32_t>(preds.arity(p)));
  }

  // Rules.
  const std::vector<Rule>& rules = db.program().rules();
  wire::PutU64(&out, static_cast<uint64_t>(rules.size()));
  for (const Rule& rule : rules) {
    PutAtom(&out, rule.head);
    wire::PutU32(&out, static_cast<uint32_t>(rule.body.size()));
    for (const Atom& atom : rule.body) PutAtom(&out, atom);
  }

  // The fact-list slot, empty (see the layout above).
  wire::PutU64(&out, 0);

  // Finiteness declarations, in pred order for determinism.
  std::map<PredId, std::vector<std::string>> modes(
      db.program().finite_modes().begin(), db.program().finite_modes().end());
  wire::PutU64(&out, static_cast<uint64_t>(modes.size()));
  for (const auto& [pred, adornments] : modes) {
    wire::PutU32(&out, static_cast<uint32_t>(pred));
    wire::PutU32(&out, static_cast<uint32_t>(adornments.size()));
    for (const std::string& adornment : adornments) {
      wire::PutString(&out, adornment);
    }
  }

  // Relations: the arena layout makes each one a single contiguous
  // block of rows*arity TermIds — serialization is one memcpy.
  std::vector<PredId> stored = db.StoredPredicates();
  std::sort(stored.begin(), stored.end());
  wire::PutU64(&out, static_cast<uint64_t>(stored.size()));
  for (PredId pred : stored) {
    const Relation* rel = db.GetRelation(pred);
    wire::PutU32(&out, static_cast<uint32_t>(pred));
    wire::PutU32(&out, static_cast<uint32_t>(rel->arity()));
    wire::PutU64(&out, static_cast<uint64_t>(rel->num_rows()));
    if (rel->num_rows() > 0) {
      static_assert(sizeof(TermId) == 4);
      const size_t bytes = static_cast<size_t>(rel->num_rows()) *
                           static_cast<size_t>(rel->arity()) * sizeof(TermId);
      out.append(reinterpret_cast<const char*>(rel->row(0).data()), bytes);
    }
  }
  return out;
}

Status DecodeSnapshotPayload(std::string_view payload, Database* db,
                             uint64_t* lsn) {
  wire::Reader in{payload};
  if (!in.ReadU64(lsn)) return CorruptError("missing lsn");

  // Term pool: replay the interning calls in node order. Hash-consing
  // makes this exact — node i either already exists (the pool's
  // constructor pre-interns `[]`) or is created by the i-th call, so
  // every TermId in the rest of the snapshot keeps its meaning.
  TermPool& pool = db->pool();
  uint64_t num_terms = 0;
  if (!in.ReadU64(&num_terms)) return CorruptError("missing term count");
  if (pool.size() > 1) {
    return InternalError("snapshot load requires a fresh Database");
  }
  ReserveTermIndexes(in, num_terms, &pool);
  std::vector<TermId> scratch_args;
  for (uint64_t i = 0; i < num_terms; ++i) {
    uint8_t kind = 0;
    if (!in.ReadU8(&kind)) return CorruptError("truncated term node");
    TermId id = kNullTerm;
    switch (static_cast<TermKind>(kind)) {
      case TermKind::kInt: {
        int64_t value = 0;
        if (!in.ReadI64(&value)) return CorruptError("truncated int term");
        id = pool.MakeInt(value);
        break;
      }
      case TermKind::kSymbol: {
        std::string_view name;
        if (!in.ReadStringView(&name)) return CorruptError("truncated symbol");
        id = pool.MakeSymbol(name);
        break;
      }
      case TermKind::kVariable: {
        std::string_view name;
        if (!in.ReadStringView(&name)) {
          return CorruptError("truncated variable");
        }
        id = pool.MakeVariable(name);
        break;
      }
      case TermKind::kCompound: {
        std::string_view functor;
        uint32_t argc = 0;
        if (!in.ReadStringView(&functor) || !in.ReadU32(&argc)) {
          return CorruptError("truncated compound");
        }
        scratch_args.clear();
        for (uint32_t a = 0; a < argc; ++a) {
          uint32_t arg = 0;
          if (!in.ReadU32(&arg)) return CorruptError("truncated compound arg");
          if (arg >= i) return CorruptError("compound arg references later term");
          scratch_args.push_back(static_cast<TermId>(arg));
        }
        id = pool.MakeCompound(functor, scratch_args);
        break;
      }
      default:
        return CorruptError(StrCat("unknown term kind ", kind));
    }
    if (id != static_cast<TermId>(i)) {
      return CorruptError(StrCat("term id mismatch at node ", i, " (got ", id,
                                 ") — snapshot not built from a fresh pool?"));
    }
  }

  // Predicate table.
  uint64_t num_preds = 0;
  if (!in.ReadU64(&num_preds)) return CorruptError("missing pred count");
  Program& program = db->program();
  for (uint64_t i = 0; i < num_preds; ++i) {
    std::string name;
    uint32_t arity = 0;
    if (!in.ReadString(&name) || !in.ReadU32(&arity)) {
      return CorruptError("truncated predicate entry");
    }
    if (arity > static_cast<uint32_t>(INT32_MAX)) {
      return CorruptError("predicate arity out of range");
    }
    PredId id = program.InternPred(name, static_cast<int>(arity));
    if (id != static_cast<PredId>(i)) {
      return CorruptError(StrCat("pred id mismatch at entry ", i));
    }
  }

  // Rules.
  uint64_t num_rules = 0;
  if (!in.ReadU64(&num_rules)) return CorruptError("missing rule count");
  for (uint64_t i = 0; i < num_rules; ++i) {
    Rule rule;
    uint32_t body_size = 0;
    if (!ReadAtom(&in, num_preds, num_terms, &rule.head) ||
        !in.ReadU32(&body_size)) {
      return CorruptError("truncated rule");
    }
    // Each body atom takes at least its u32 pred and u32 arg count.
    if (body_size > in.remaining() / 8) {
      return CorruptError("rule body size exceeds payload");
    }
    rule.body.resize(body_size);
    for (uint32_t b = 0; b < body_size; ++b) {
      if (!ReadAtom(&in, num_preds, num_terms, &rule.body[b])) {
        return CorruptError("truncated rule body");
      }
    }
    program.AddRule(std::move(rule));
  }

  // The fact list of an older build: validated, then dropped, since
  // the relations section below holds the same rows in insertion order.
  uint64_t num_facts = 0;
  if (!in.ReadU64(&num_facts)) return CorruptError("missing fact count");
  Atom fact;
  for (uint64_t i = 0; i < num_facts; ++i) {
    if (!ReadAtom(&in, num_preds, num_terms, &fact)) {
      return CorruptError("truncated fact");
    }
  }

  // Finiteness declarations.
  uint64_t num_modes = 0;
  if (!in.ReadU64(&num_modes)) return CorruptError("missing mode count");
  for (uint64_t i = 0; i < num_modes; ++i) {
    uint32_t pred = 0;
    uint32_t n = 0;
    if (!in.ReadU32(&pred) || !in.ReadU32(&n)) {
      return CorruptError("truncated finite mode");
    }
    if (pred >= num_preds) return CorruptError("finite mode pred out of range");
    for (uint32_t m = 0; m < n; ++m) {
      std::string adornment;
      if (!in.ReadString(&adornment)) {
        return CorruptError("truncated finite mode adornment");
      }
      program.DeclareFiniteMode(static_cast<PredId>(pred),
                                std::move(adornment));
    }
  }

  // Relations.
  uint64_t num_relations = 0;
  if (!in.ReadU64(&num_relations)) return CorruptError("missing rel count");
  for (uint64_t i = 0; i < num_relations; ++i) {
    uint32_t pred = 0;
    uint32_t arity = 0;
    uint64_t rows = 0;
    if (!in.ReadU32(&pred) || !in.ReadU32(&arity) || !in.ReadU64(&rows)) {
      return CorruptError("truncated relation header");
    }
    if (pred >= num_preds) return CorruptError("relation pred out of range");
    if (static_cast<int>(arity) !=
        program.preds().arity(static_cast<PredId>(pred))) {
      return CorruptError("relation arity disagrees with predicate table");
    }
    // Bound the row count by the bytes left before multiplying, so a
    // huge count can neither overflow the product nor size an
    // allocation. A set holds at most one arity-0 tuple.
    const size_t row_bytes = size_t{arity} * sizeof(TermId);
    if (arity == 0 ? rows > 1 : rows > in.remaining() / row_bytes) {
      return CorruptError("relation row count exceeds payload");
    }
    Relation* rel = db->GetOrCreateRelation(static_cast<PredId>(pred));
    if (rows == 0) continue;
    rel->Reserve(static_cast<int64_t>(rows));
    const size_t cells = static_cast<size_t>(rows) * arity;
    const char* raw = in.data.data() + in.at;
    std::vector<TermId> row(arity);
    for (uint64_t r = 0; r < rows; ++r) {
      // An arity-0 row has no bytes, and memcpy must not see the empty
      // vector's null data().
      if (arity > 0) {
        memcpy(row.data(), raw + r * arity * sizeof(TermId),
               arity * sizeof(TermId));
      }
      for (TermId cell : row) {
        if (cell < 0 || cell >= static_cast<TermId>(num_terms)) {
          return CorruptError("relation cell term out of range");
        }
      }
      rel->Insert(row);
    }
    in.at += cells * sizeof(TermId);
  }
  if (in.remaining() != 0) return CorruptError("trailing bytes");
  return Status::Ok();
}

Status ErrnoError(std::string_view what, std::string_view path) {
  return InternalError(StrCat(what, " ", path, ": ", strerror(errno)));
}

}  // namespace

Status WriteSnapshot(const Database& db, uint64_t lsn, const std::string& dir,
                     SnapshotWriteStats* stats) {
  const std::string payload = EncodeSnapshotPayload(db, lsn);
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  wire::PutU64(&header, static_cast<uint64_t>(payload.size()));
  wire::PutU32(&header, Crc32(payload));

  const std::string final_path =
      StrCat(dir, "/", kSnapPrefix, LsnToHex(lsn), kSnapSuffix);
  const std::string tmp_path = StrCat(final_path, ".tmp");

  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoError("open", tmp_path);
  // One gathered write, so the payload is never copied behind the
  // header.
  struct iovec parts[2] = {
      {header.data(), header.size()},
      {const_cast<char*>(payload.data()), payload.size()}};
  if (Status status = WriteAllV(fd, parts, 2, tmp_path); !status.ok()) {
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return status;
  }
  if (::fsync(fd) != 0) {
    Status status = ErrnoError("fsync", tmp_path);
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return status;
  }
  ::close(fd);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    Status status = ErrnoError("rename", tmp_path);
    ::unlink(tmp_path.c_str());
    return status;
  }
  // The rename is only durable once the directory entry is.
  Status synced = SyncDir(dir);
  if (!synced.ok()) return synced;

  if (stats != nullptr) {
    stats->lsn = lsn;
    stats->bytes = static_cast<int64_t>(header.size() + payload.size());
    stats->path = final_path;
  }
  return Status::Ok();
}

std::vector<SnapshotFile> ListSnapshots(const std::string& dir) {
  std::vector<SnapshotFile> snapshots;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return snapshots;
  const size_t prefix_len = strlen(kSnapPrefix);
  const size_t suffix_len = strlen(kSnapSuffix);
  while (struct dirent* entry = ::readdir(d)) {
    std::string_view name = entry->d_name;
    if (!StartsWith(name, kSnapPrefix)) continue;
    if (name.size() != prefix_len + 16 + suffix_len) continue;
    if (name.substr(prefix_len + 16) != kSnapSuffix) continue;
    uint64_t lsn = 0;
    bool valid = true;
    for (char c : name.substr(prefix_len, 16)) {
      int digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else {
        valid = false;
        break;
      }
      lsn = (lsn << 4) | static_cast<uint64_t>(digit);
    }
    if (!valid) continue;
    snapshots.push_back({lsn, StrCat(dir, "/", name)});
  }
  ::closedir(d);
  std::sort(snapshots.begin(), snapshots.end(),
            [](const SnapshotFile& a, const SnapshotFile& b) {
              return a.lsn < b.lsn;
            });
  return snapshots;
}

StatusOr<uint64_t> LoadSnapshotFile(const std::string& path, Database* db) {
  StatusOr<std::string> read = ReadFileToString(path);
  if (!read.ok()) {
    // Unreadable is reported like corrupt, never as Internal: nothing
    // was touched yet, so the caller may fall back to an older file.
    return NotFoundError(
        StrCat("snapshot ", path, ": ", read.status().message()));
  }
  const std::string& file = *read;

  if (file.size() < sizeof(kMagic) + 12 ||
      memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return InvalidArgumentError(
        StrCat("snapshot ", path, ": bad magic or truncated header"));
  }
  wire::Reader header{std::string_view(file).substr(sizeof(kMagic), 12)};
  uint64_t length = 0;
  uint32_t crc = 0;
  header.ReadU64(&length);
  header.ReadU32(&crc);
  if (file.size() - sizeof(kMagic) - 12 != length) {
    return InvalidArgumentError(
        StrCat("snapshot ", path, ": payload length mismatch (header says ",
               length, ", file holds ", file.size() - sizeof(kMagic) - 12,
               ")"));
  }
  std::string_view payload =
      std::string_view(file).substr(sizeof(kMagic) + 12, length);
  // CRC gate first: only a checksum-clean payload is allowed to touch
  // the database, so a bit-flipped snapshot fails *here* — before any
  // state is mutated — and the caller can fall back to an older file.
  if (Crc32(payload) != crc) {
    return InvalidArgumentError(
        StrCat("snapshot ", path, ": crc mismatch (corrupt)"));
  }
  uint64_t lsn = 0;
  Status status = DecodeSnapshotPayload(payload, db, &lsn);
  if (!status.ok()) {
    // Past the CRC, a decode failure means an inconsistent writer or a
    // format bug — and the database may be half-populated. Escalate to
    // Internal so the caller aborts instead of falling back over a
    // polluted database.
    return InternalError(StrCat("snapshot ", path, ": ", status.message()));
  }
  return lsn;
}

StatusOr<SnapshotLoadResult> LoadNewestSnapshot(const std::string& dir,
                                                Database* db) {
  SnapshotLoadResult result;
  std::vector<SnapshotFile> snapshots = ListSnapshots(dir);
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    StatusOr<uint64_t> lsn = LoadSnapshotFile(it->path, db);
    if (lsn.ok()) {
      result.loaded = true;
      result.lsn = *lsn;
      result.path = it->path;
      return result;
    }
    if (lsn.status().code() == StatusCode::kInternal) {
      // Database possibly polluted — do not fall back.
      return lsn.status();
    }
    result.notes.push_back(
        StrCat("skipping snapshot: ", lsn.status().message()));
  }
  return result;  // nothing loadable: cold start (notes say why, if any)
}

}  // namespace chainsplit
