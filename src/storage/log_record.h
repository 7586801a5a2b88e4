#ifndef CHAINSPLIT_STORAGE_LOG_RECORD_H_
#define CHAINSPLIT_STORAGE_LOG_RECORD_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/strings.h"

namespace chainsplit {

/// Little-endian wire primitives shared by the WAL record payloads and
/// the snapshot format. Everything durable is written through these, so
/// the on-disk encoding is host-endianness independent.
namespace wire {

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}
/// Length-prefixed string (u32 length + raw bytes).
inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Cursor over an encoded payload. Every Read* returns false on
/// underflow instead of reading past the end, so a decoder can turn
/// truncation into a clean Status.
struct Reader {
  std::string_view data;
  size_t at = 0;

  size_t remaining() const { return data.size() - at; }
  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data[at++]);
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(static_cast<uint8_t>(data[at + i])) << (8 * i);
    }
    at += 4;
    *v = r;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(static_cast<uint8_t>(data[at + i])) << (8 * i);
    }
    at += 8;
    *v = r;
    return true;
  }
  bool ReadI64(int64_t* v) {
    uint64_t u;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool ReadString(std::string* v) {
    std::string_view view;
    if (!ReadStringView(&view)) return false;
    v->assign(view);
    return true;
  }
  /// Like ReadString, but `*v` views `data` instead of copying it.
  bool ReadStringView(std::string_view* v) {
    uint32_t n;
    if (!ReadU32(&n)) return false;
    if (remaining() < n) return false;
    *v = data.substr(at, n);
    at += n;
    return true;
  }
};

}  // namespace wire

/// What one WAL record means. The log replays *mutation statements*,
/// not low-level tuple writes: a record is appended only after its text
/// fully parsed (validation precedes logging), so replay re-runs the
/// exact deterministic apply path the live service ran. This keeps the
/// applied prefix and the logged prefix identical by construction — a
/// statement is either validated + logged + applied, or nothing.
enum class WalRecordType : uint8_t {
  /// One Update() statement batch: program text (facts, rules; any
  /// embedded queries are skipped on replay — they mutate nothing).
  kUpdate = 1,
  /// One bulk CSV load: the *content* of the file (not its path, which
  /// may have changed or vanished by recovery time) plus the target
  /// predicate spec.
  kCsvLoad = 2,
};

/// One log record. It owns none of its bytes: `text` and `pred_name`
/// are views. Wal::Append reads them straight from the caller's
/// buffers, and a record handed out by ScanWalFile views the scanned
/// segment, so it is valid only inside the scan callback (copy what
/// must outlive it).
struct WalRecord {
  /// Log sequence number, assigned by Wal::Append; strictly
  /// consecutive across segments. Recovery verifies consecutiveness to
  /// detect gaps (a lost segment is never silently skipped).
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kUpdate;

  /// kUpdate: the statement text. kCsvLoad: the delimited file content.
  std::string_view text;

  // kCsvLoad only.
  std::string_view pred_name;
  int32_t arity = 0;
  char delimiter = ',';
};

/// Appends the payload's fixed fields to `*out`: everything up to and
/// including the u32 length of `text`, whose bytes end the payload.
inline void AppendWalRecordHead(std::string* out, const WalRecord& record) {
  wire::PutU64(out, record.lsn);
  wire::PutU8(out, static_cast<uint8_t>(record.type));
  if (record.type == WalRecordType::kCsvLoad) {
    wire::PutString(out, record.pred_name);
    wire::PutU32(out, static_cast<uint32_t>(record.arity));
    wire::PutU8(out, static_cast<uint8_t>(record.delimiter));
  }
  wire::PutU32(out, static_cast<uint32_t>(record.text.size()));
}

/// Encodes the record payload (the Wal adds the length + CRC framing):
/// the fixed fields, then the text.
inline std::string EncodeWalRecord(const WalRecord& record) {
  std::string out;
  AppendWalRecordHead(&out, record);
  out.append(record.text);
  return out;
}

/// Decodes one payload. The record's views point into `payload`.
inline StatusOr<WalRecord> DecodeWalRecord(std::string_view payload) {
  wire::Reader in{payload};
  WalRecord record;
  uint8_t type = 0;
  if (!in.ReadU64(&record.lsn) || !in.ReadU8(&type)) {
    return InvalidArgumentError("wal record payload truncated");
  }
  switch (static_cast<WalRecordType>(type)) {
    case WalRecordType::kUpdate:
      record.type = WalRecordType::kUpdate;
      if (!in.ReadStringView(&record.text)) {
        return InvalidArgumentError("wal update record truncated");
      }
      break;
    case WalRecordType::kCsvLoad: {
      record.type = WalRecordType::kCsvLoad;
      uint32_t arity = 0;
      uint8_t delimiter = 0;
      if (!in.ReadStringView(&record.pred_name) || !in.ReadU32(&arity) ||
          !in.ReadU8(&delimiter) || !in.ReadStringView(&record.text)) {
        return InvalidArgumentError("wal csv record truncated");
      }
      record.arity = static_cast<int32_t>(arity);
      record.delimiter = static_cast<char>(delimiter);
      break;
    }
    default:
      return InvalidArgumentError(
          StrCat("unknown wal record type ", static_cast<int>(type)));
  }
  if (in.remaining() != 0) {
    return InvalidArgumentError("trailing bytes after wal record payload");
  }
  return record;
}

}  // namespace chainsplit

#endif  // CHAINSPLIT_STORAGE_LOG_RECORD_H_
