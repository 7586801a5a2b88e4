#include "storage/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/strings.h"
#include "storage/crc32.h"

namespace chainsplit {
namespace {

/// A frame longer than this is never legitimate (updates are bounded
/// by request sizes); seeing one mid-file means a corrupt length field.
constexpr uint32_t kMaxFrameBytes = 1u << 30;

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";

Status ErrnoError(std::string_view what, std::string_view path) {
  return InternalError(StrCat(what, " ", path, ": ", strerror(errno)));
}

}  // namespace

const char* WalSyncPolicyToString(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kAlways:
      return "always";
    case WalSyncPolicy::kInterval:
      return "interval";
    case WalSyncPolicy::kNone:
      return "none";
  }
  return "?";
}

StatusOr<WalSyncPolicy> ParseWalSyncPolicy(std::string_view text) {
  if (text == "always") return WalSyncPolicy::kAlways;
  if (text == "interval") return WalSyncPolicy::kInterval;
  if (text == "none") return WalSyncPolicy::kNone;
  return InvalidArgumentError(
      StrCat("--wal-sync must be always, interval or none (got '", text,
             "')"));
}

std::string LsnToHex(uint64_t lsn) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[lsn & 0xF];
    lsn >>= 4;
  }
  return out;
}

Status WriteAllV(int fd, struct iovec* iov, int count,
                 const std::string& path) {
  while (count > 0) {
    ssize_t n = ::writev(fd, iov, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write", path);
    }
    // Skip the buffers written whole, then advance into a partial one.
    size_t done = static_cast<size_t>(n);
    while (count > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return Status::Ok();
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoError("open dir", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoError("fsync dir", dir);
  return Status::Ok();
}

StatusOr<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                         uint64_t next_lsn,
                                         const WalOptions& options) {
  std::unique_ptr<Wal> wal(new Wal(dir, next_lsn, options));
  {
    std::lock_guard<std::mutex> lock(wal->mu_);
    Status status = wal->OpenSegmentLocked();
    if (!status.ok()) return status;
    wal->stats_.last_lsn = next_lsn - 1;
  }
  if (options.sync == WalSyncPolicy::kInterval) wal->StartFlusher();
  return wal;
}

Wal::~Wal() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_flusher_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    // Best-effort final flush so a clean shutdown loses nothing even
    // under kNone.
    if (dirty_) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void Wal::StartFlusher() {
  flusher_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    const auto interval = std::chrono::milliseconds(
        options_.sync_interval_ms > 0 ? options_.sync_interval_ms : 50);
    while (!stop_flusher_) {
      flusher_cv_.wait_for(lock, interval);
      if (dirty_ && fd_ >= 0) {
        // fsync with the lock held: appends are serialized behind the
        // sync, which is exactly the bounded-loss contract (at most
        // one interval of acknowledged-but-unsynced records).
        if (::fsync(fd_) == 0) {
          dirty_ = false;
          ++stats_.syncs;
        }
      }
    }
  });
}

Status Wal::OpenSegmentLocked() {
  if (fd_ >= 0) {
    if (dirty_) {
      if (::fsync(fd_) != 0) return ErrnoError("fsync", dir_);
      dirty_ = false;
      ++stats_.syncs;
    }
    ::close(fd_);
    fd_ = -1;
  }
  std::string path =
      StrCat(dir_, "/", kSegmentPrefix, LsnToHex(next_lsn_), kSegmentSuffix);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return ErrnoError("open", path);
  segment_first_lsn_ = next_lsn_;
  ++stats_.segments_created;
  // Make the segment's directory entry durable before any record is
  // acknowledged out of it.
  return SyncDir(dir_);
}

StatusOr<uint64_t> Wal::Append(WalRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return InternalError(
        "wal poisoned by an earlier write error; refusing to append");
  }
  if (fd_ < 0) return InternalError("wal is closed");
  record.lsn = next_lsn_;

  // One frame, one writev: the length + CRC header, the payload's fixed
  // fields, then the text straight from the caller's bytes. The CRC is
  // chained over fields and text, so no payload or frame copy of the
  // text is built (and an update's two small strings stay inline).
  std::string fields;
  AppendWalRecordHead(&fields, record);
  const size_t payload_size = fields.size() + record.text.size();
  if (payload_size > kMaxFrameBytes) {
    // The scanner would take such a frame for a corrupt length field.
    return InvalidArgumentError(StrCat("wal record of ", payload_size,
                                       " bytes exceeds the ", kMaxFrameBytes,
                                       "-byte frame limit"));
  }
  std::string header;
  wire::PutU32(&header, static_cast<uint32_t>(payload_size));
  wire::PutU32(&header, Crc32(record.text, Crc32(fields)));

  struct iovec iov[3] = {
      {header.data(), header.size()},
      {fields.data(), fields.size()},
      {const_cast<char*>(record.text.data()), record.text.size()}};
  Status status = WriteAllV(fd_, iov, 3, dir_);
  if (!status.ok()) {
    broken_ = true;
    return status;
  }
  dirty_ = true;
  ++next_lsn_;
  ++stats_.records;
  stats_.bytes += static_cast<int64_t>(8 + payload_size);
  stats_.last_lsn = record.lsn;
  if (options_.sync == WalSyncPolicy::kAlways) {
    Status synced = SyncLocked();
    if (!synced.ok()) {
      broken_ = true;
      return synced;
    }
  }
  return record.lsn;
}

Status Wal::SyncLocked() {
  if (fd_ < 0 || !dirty_) return Status::Ok();
  if (::fsync(fd_) != 0) return ErrnoError("fsync", dir_);
  dirty_ = false;
  ++stats_.syncs;
  return Status::Ok();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status Wal::Rotate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) return InternalError("wal poisoned; refusing to rotate");
  if (segment_first_lsn_ == next_lsn_) return Status::Ok();  // still empty
  return OpenSegmentLocked();
}

StatusOr<int> Wal::DeleteSegmentsBelow(uint64_t first_kept_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WalSegment> segments = ListWalSegments(dir_);
  int removed = 0;
  // A segment is deletable when its successor starts at or below
  // first_kept_lsn — then every record it holds precedes the kept
  // range. The newest segment (the current one) has no successor.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first_lsn > first_kept_lsn) break;
    if (segments[i].first_lsn == segment_first_lsn_) break;  // current
    if (::unlink(segments[i].path.c_str()) != 0) {
      return ErrnoError("unlink", segments[i].path);
    }
    ++removed;
  }
  if (removed > 0) {
    Status status = SyncDir(dir_);
    if (!status.ok()) return status;
  }
  return removed;
}

uint64_t Wal::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.last_lsn;
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<WalSegment> ListWalSegments(const std::string& dir) {
  std::vector<WalSegment> segments;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return segments;
  while (struct dirent* entry = ::readdir(d)) {
    std::string_view name = entry->d_name;
    if (!StartsWith(name, kSegmentPrefix)) continue;
    if (name.size() != strlen(kSegmentPrefix) + 16 + strlen(kSegmentSuffix)) {
      continue;
    }
    std::string_view hex = name.substr(strlen(kSegmentPrefix), 16);
    if (name.substr(strlen(kSegmentPrefix) + 16) != kSegmentSuffix) continue;
    uint64_t lsn = 0;
    bool valid = true;
    for (char c : hex) {
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
    segments.push_back({lsn, StrCat(dir, "/", name)});
  }
  ::closedir(d);
  std::sort(segments.begin(), segments.end(),
            [](const WalSegment& a, const WalSegment& b) {
              return a.first_lsn < b.first_lsn;
            });
  return segments;
}

Status ScanWalFile(const std::string& path,
                   const std::function<Status(WalRecord&&)>& fn,
                   WalScanStats* stats) {
  StatusOr<std::string> read = ReadFileToString(path);
  if (!read.ok()) {
    return Status(read.status().code(),
                  StrCat("wal segment: ", read.status().message()));
  }
  const std::string& data = *read;

  size_t at = 0;
  while (at < data.size()) {
    const size_t remaining = data.size() - at;
    if (remaining < 8) {
      stats->torn_tail = true;
      stats->note = StrCat("torn frame header at offset ", at, " of ", path,
                           " (", remaining, " bytes)");
      return Status::Ok();
    }
    wire::Reader header{std::string_view(data).substr(at, 8)};
    uint32_t length = 0;
    uint32_t crc = 0;
    header.ReadU32(&length);
    header.ReadU32(&crc);
    if (length > kMaxFrameBytes) {
      return InvalidArgumentError(
          StrCat("wal corruption: implausible frame length ", length,
                 " at offset ", at, " of ", path));
    }
    if (remaining - 8 < length) {
      // The frame claims more bytes than the file holds: a write torn
      // by a crash. Stop at the last complete frame. (A corrupted
      // length field in the *final* frame is indistinguishable from
      // this and is likewise dropped — the record was never
      // acknowledged as durable past its fsync horizon.)
      stats->torn_tail = true;
      stats->note =
          StrCat("torn frame at offset ", at, " of ", path, " (length ",
                 length, ", only ", remaining - 8, " payload bytes)");
      return Status::Ok();
    }
    std::string_view payload = std::string_view(data).substr(at + 8, length);
    if (Crc32(payload) != crc) {
      // Full frame present but the checksum disagrees: a bit flip, not
      // a torn tail. Refusing to continue is the only safe option —
      // records after a hole must not be applied.
      return InvalidArgumentError(
          StrCat("wal corruption: crc mismatch at offset ", at, " of ", path,
                 " (record ", stats->records + 1, " of this segment)"));
    }
    StatusOr<WalRecord> record = DecodeWalRecord(payload);
    if (!record.ok()) {
      return InvalidArgumentError(StrCat("wal corruption: ",
                                         record.status().message(),
                                         " at offset ", at, " of ", path));
    }
    ++stats->records;
    Status applied = fn(std::move(*record));
    if (!applied.ok()) return applied;
    at += 8 + length;
  }
  return Status::Ok();
}

}  // namespace chainsplit
