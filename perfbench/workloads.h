// Workload generation and reference answers for the csdd benchmark.
//
// Every input is a pure function of (workload, seed, seconds): the
// program text the server loads, the warm-up pass and the timed request
// sequence. Reference answers come from the
// generated data alone (graph search, bounded DFS, std::sort, list
// splits), never from the engine under test.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// One request line and what a correct answer looks like.
struct Op {
  enum class Kind : uint8_t { kRead, kWrite };
  Kind kind = Kind::kRead;
  /// Request text, without the trailing newline.
  std::string line;
  /// Short label for reports ("sg", "tc", "isort", "write", ...).
  const char* label = "";
  /// Reads: index into Workload::answers. -1 = a read whose answer
  /// depends on concurrent writes (hot_rw_durable's `stock` reads),
  /// checked by CheckStockRead instead.
  int answer = -1;
  /// hot_rw_durable: the stock key a read or write touches (-1 = none)
  /// and, for a write, the value it inserts.
  int key = -1;
  int64_t value = 0;
};

/// Values each hot stock key holds after recovery, before any timed
/// write (hot_rw_durable).
using StockModel = std::unordered_map<int, std::vector<int64_t>>;

struct Workload {
  std::string name;
  /// Program text the server loads at start-up. Empty for
  /// hot_rw_durable, which recovers from a prepared data dir built from
  /// `fixture_base` (snapshotted) and `fixture_tail` (WAL records).
  std::string program;
  std::string fixture_base;
  std::vector<std::string> fixture_tail;
  /// Issued once, sequentially, before timing (part of setup_s).
  std::vector<Op> warmup;
  /// The timed sequence, in issue order.
  std::vector<Op> timed;
  /// Canonical answer texts (see CanonicalAnswer), indexed by Op::answer.
  std::vector<std::string> answers;
  /// Requests the traced run replays in-process (a prefix of `timed`).
  int replay_ops = 0;
  StockModel stock;
};

/// The workload names, in reporting order.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` from `seed`, or returns null for an unknown
/// name. The timed sequence holds a fixed number of operations per
/// second of `seconds`, so a faster build finishes the same work sooner
/// instead of doing more of it.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int seconds);

/// Canonical form of a response frame body: its answer lines, sorted
/// and joined by '\n'. Trailer lines ("% N answer(s)") are dropped and
/// "no answers" becomes the empty string.
std::string CanonicalAnswer(const std::string& frame_body);

/// One timed write to a stock key, with the client-side times it was
/// sent and its acknowledgement arrived.
struct TimedWrite {
  int64_t value = 0;
  int64_t sent_ns = 0;
  int64_t acked_ns = 0;
};

/// Checks the response to a `stock(k, V)` read: every write to `key`
/// acknowledged before the read was sent must be visible, and every
/// value shown must be a base value or one written before the response
/// arrived.
bool CheckStockRead(const StockModel& model, int key,
                    const std::vector<TimedWrite>& writes, int64_t sent_ns,
                    int64_t received_ns, const std::string& frame_body);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
