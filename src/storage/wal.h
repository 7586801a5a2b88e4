#ifndef CHAINSPLIT_STORAGE_WAL_H_
#define CHAINSPLIT_STORAGE_WAL_H_

#include <sys/uio.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "storage/log_record.h"

namespace chainsplit {

/// When appended records reach the disk platter (docs/service.md has
/// the trade-off table).
enum class WalSyncPolicy {
  /// fsync after every Append: an acknowledged mutation survives even
  /// an OS crash / power loss. The slowest option — one fsync per
  /// mutation sits inside the service's exclusive section.
  kAlways,
  /// A background flusher fsyncs every `sync_interval_ms`: bounded data
  /// loss (at most one interval) on OS crash, near-zero overhead on the
  /// mutation path. Process crashes (kill -9) lose nothing either way —
  /// completed write()s live in the page cache, which survives the
  /// process. The default.
  kInterval,
  /// Never fsync (the OS flushes when it likes). Still torn-write safe
  /// on process crash; an OS crash can lose the un-flushed suffix.
  kNone,
};

const char* WalSyncPolicyToString(WalSyncPolicy policy);
/// Parses "always" / "interval" / "none".
StatusOr<WalSyncPolicy> ParseWalSyncPolicy(std::string_view text);

struct WalOptions {
  WalSyncPolicy sync = WalSyncPolicy::kInterval;
  int sync_interval_ms = 50;
};

/// Monotone counters (mutex-guarded snapshot via Wal::stats()).
struct WalStats {
  int64_t records = 0;
  int64_t bytes = 0;  // framed bytes written (header + payload)
  int64_t syncs = 0;  // fsync calls issued
  int64_t segments_created = 0;
  uint64_t last_lsn = 0;  // 0 = nothing appended yet
};

/// Append-only write-ahead log over numbered segment files
/// `wal-<16-hex first-lsn>.log` in one data directory.
///
/// Frame format (little-endian):
///   u32 payload_length | u32 crc32(payload) | payload
///
/// Each Append writes one frame with a single writev() to an O_APPEND
/// fd (the header, the fixed fields and the caller's text, gathered),
/// so a *process* crash never interleaves partial frames; an OS crash
/// can leave a torn final frame, which the scanner tolerates by
/// stopping at the last valid one. A new segment starts at every Open
/// (so recovery never appends after a possibly-torn tail) and at every
/// checkpoint rotation; segments fully covered by a durable snapshot
/// are deleted by DeleteSegmentsBelow.
///
/// Thread-safety: all public methods are internally synchronized. The
/// service additionally serializes Append through its exclusive
/// database lock, which is what makes LSN order equal apply order.
class Wal {
 public:
  /// Opens a WAL in `dir` (which must exist), starting a fresh segment
  /// whose first record will carry `next_lsn`.
  static StatusOr<std::unique_ptr<Wal>> Open(const std::string& dir,
                                             uint64_t next_lsn,
                                             const WalOptions& options);
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Frames and appends `record` (its `lsn` field is assigned here),
  /// applying the sync policy. Returns the assigned LSN. The bytes that
  /// `record.text` views are written as they are, uncopied. After a
  /// write error the log is poisoned: every later Append fails too, so
  /// a half-written frame is never followed by a valid one.
  StatusOr<uint64_t> Append(WalRecord record);

  /// Forces an fsync of the current segment (shutdown, checkpoints).
  Status Sync();

  /// Starts a fresh segment at the next LSN (no-op when the current
  /// segment is still empty). Called after a checkpoint so the covered
  /// records' segment becomes deletable.
  Status Rotate();

  /// Deletes every segment whose records all precede `first_kept_lsn`
  /// (i.e. whose successor segment starts at or below it). The current
  /// segment is never deleted. Returns the number of segments removed.
  StatusOr<int> DeleteSegmentsBelow(uint64_t first_kept_lsn);

  uint64_t last_lsn() const;
  WalStats stats() const;

 private:
  Wal(std::string dir, uint64_t next_lsn, const WalOptions& options)
      : dir_(std::move(dir)), next_lsn_(next_lsn), options_(options) {}

  /// Opens (creating if needed) the segment starting at next_lsn_ as
  /// the current append target. Caller holds mu_.
  Status OpenSegmentLocked();
  Status SyncLocked();
  void StartFlusher();

  const std::string dir_;
  mutable std::mutex mu_;
  uint64_t next_lsn_;
  uint64_t segment_first_lsn_ = 0;  // first lsn of the current segment
  int fd_ = -1;
  bool broken_ = false;
  bool dirty_ = false;  // unsynced bytes in the current segment
  WalStats stats_;
  const WalOptions options_;

  // kInterval flusher.
  std::thread flusher_;
  std::condition_variable flusher_cv_;
  bool stop_flusher_ = false;
};

/// One on-disk segment, for recovery. `first_lsn` comes from the file
/// name; an unparsable wal-*.log name is reported as an error by the
/// scan (never silently skipped).
struct WalSegment {
  uint64_t first_lsn = 0;
  std::string path;
};

/// Segments of `dir` sorted by first LSN. Files not matching the
/// segment name pattern are ignored.
std::vector<WalSegment> ListWalSegments(const std::string& dir);

/// Scan outcome beyond the records themselves.
struct WalScanStats {
  int64_t records = 0;
  /// The file ended inside a frame (crash mid-write): the scan stopped
  /// at the last complete valid frame. `note` says where.
  bool torn_tail = false;
  std::string note;
};

/// Reads every frame of one segment file in order, invoking `fn` per
/// decoded record. The record's views point into the segment bytes
/// read for this scan and die with it: `fn` copies what it keeps. Distinguishes the two failure shapes:
///  * truncated tail (EOF inside a frame) — tolerated: scan stops at
///    the last valid frame, `stats->torn_tail` is set;
///  * CRC mismatch or undecodable payload with the frame's bytes fully
///    present (a bit flip, not a torn write) — returns an error naming
///    the file and offset; the caller must not serve from a log with a
///    hole in the middle.
/// `fn` may return a non-OK Status to abort the scan.
Status ScanWalFile(const std::string& path,
                   const std::function<Status(WalRecord&&)>& fn,
                   WalScanStats* stats);

/// Formats an LSN as the 16-digit hex used in segment/snapshot names.
std::string LsnToHex(uint64_t lsn);

/// Fsyncs a directory so a rename/create/unlink inside it is durable.
Status SyncDir(const std::string& dir);

/// Full gathered write of `iov[0..count)` to `fd`, retrying short
/// writes and EINTR (`iov` is advanced in place). A short write that
/// cannot be completed leaves a torn tail, which the caller must treat
/// as a poisoned file. `path` names the file in the error.
Status WriteAllV(int fd, struct iovec* iov, int count,
                 const std::string& path);

}  // namespace chainsplit

#endif  // CHAINSPLIT_STORAGE_WAL_H_
