// perfbench_harness — runs one workload of the csdd benchmark and writes
// its raw measurements as JSON; perfbench/run.py builds it, runs it and
// turns that output into the reported metrics.
//
//   perfbench_harness --csdd PATH --workload NAME --seed N --seconds S
//                     --work-dir DIR --fixtures DIR --out FILE
//                     [--spans FILE]
//
// The harness and the server it starts run on one processor (see
// PinToOneCpu). Server phase: starts `csdd --serve 0 --data-dir=DIR` five times, each
// time through loading (or recovering) the data and a fixed warm-up
// pass; setup_s is the median of the five. Against the last server it
// runs the timed sequence over loopback as a closed loop on one
// connection, scrapes :metrics, :cache json,
// :net json and :wal json before and after it, reads the server's peak
// RSS and stops it with SIGTERM.
//
// With --spans the traced run follows. It replays a prefix of the timed
// sequence in-process, on this one thread, against a QueryService
// seeded with the same inputs — four times, alternating untraced and
// traced passes so that pass order does not skew the overhead figure;
// the two traced passes' counts must agree exactly. Every traced
// request's span tree, collected through RequestOptions::trace, is kept
// in memory and written to FILE at the end, one JSON line per request,
// beside the harness's own times around ParseProgram, LoadProgramFacts,
// recovery, QueryService::Query/Update and Wal::Append.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ast/parser.h"
#include "client.h"
#include "core/planner.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "storage/log_record.h"
#include "storage/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace cs = chainsplit;

constexpr int kSetupRuns = 5;
constexpr int kReplayPasses = 4;

struct Args {
  std::string csdd, workload, work_dir, fixtures, out, spans;
  uint64_t seed = 1;
  int seconds = 10;
};

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quote(std::string_view text) {
  return "\"" + cs::JsonEscape(text) + "\"";
}

// A JSON object built field by field; values are already-encoded JSON.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.push_back(Quote(key) + ":" + json);
    return *this;
  }
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, Number(value));
  }
  JsonObject& Str(const std::string& key, std::string_view value) {
    return Raw(key, Quote(value));
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += fields_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> fields_;
};

// Sample count, quartiles, 90th and 95th percentiles and maximum
// (linear interpolation between closest ranks).
std::string Distribution(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  auto quantile = [&](double q) {
    if (values.empty()) return 0.0;
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
  };
  return JsonObject()
      .Num("count", static_cast<double>(values.size()))
      .Num("p25", quantile(0.25))
      .Num("p50", quantile(0.5))
      .Num("p75", quantile(0.75))
      .Num("p90", quantile(0.9))
      .Num("p95", quantile(0.95))
      .Num("max", values.empty() ? 0.0 : values.back())
      .Render();
}

enum class Outcome { kOk, kMismatch, kError, kOverloaded };

Outcome Classify(const Workload& w, const Op& op, const std::string& body) {
  if (body.rfind("% overloaded", 0) == 0) return Outcome::kOverloaded;
  if (body.rfind("error:", 0) == 0 || body.rfind("parse error:", 0) == 0 ||
      body.rfind("% error", 0) == 0) {
    return Outcome::kError;
  }
  if (op.kind == Op::Kind::kWrite) {
    return body.empty() ? Outcome::kOk : Outcome::kError;
  }
  if (op.answer < 0) return Outcome::kOk;  // checked by CheckStockRead
  return CanonicalAnswer(body) == w.answers[op.answer] ? Outcome::kOk
                                                       : Outcome::kMismatch;
}

void LogFailure(const Op& op, const std::string& body) {
  static int logged = 0;
  if (++logged > 5) return;
  std::fprintf(stderr, "perfbench: request failed: %.200s\n  response: %.400s\n",
               op.line.c_str(), body.c_str());
}

struct Tally {
  int64_t attempted = 0, ok = 0, mismatched = 0, errors = 0, overloaded = 0;

  void Add(Outcome outcome) {
    ++attempted;
    switch (outcome) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kMismatch: ++mismatched; break;
      case Outcome::kError: ++errors; break;
      case Outcome::kOverloaded: ++overloaded; break;
    }
  }
  std::string Json() const {
    return JsonObject()
        .Num("attempted", static_cast<double>(attempted))
        .Num("failed", static_cast<double>(attempted - ok))
        .Num("mismatched", static_cast<double>(mismatched))
        .Num("errors", static_cast<double>(errors))
        .Num("overloaded", static_cast<double>(overloaded))
        .Render();
  }
};

// Named after a hash of its contents, so a changed workload never
// reuses a data dir prepared for the old one.
std::string FixtureDir(const Args& a, const Workload& w) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a
  auto mix = [&](const std::string& text) {
    for (unsigned char c : text) hash = (hash ^ c) * 1099511628211ull;
  };
  mix(w.fixture_base);
  for (const std::string& record : w.fixture_tail) mix(record);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return a.fixtures + "/" + a.workload + "-" + hex;
}

// Builds hot_rw_durable's data dir once per seed and size: a snapshot holding the
// base program, then a WAL tail of fixture_tail records after it.
bool EnsureFixture(const Args& a, const Workload& w, std::string* error) {
  const std::string dir = FixtureDir(a, w);
  const std::string ready = dir + ".ready";
  if (fs::exists(ready)) return true;
  // Keep one prepared data dir per workload: drop the previous seed's.
  for (const fs::directory_entry& entry : fs::directory_iterator(a.fixtures)) {
    if (entry.path().filename().string().rfind(a.workload + "-", 0) == 0) {
      fs::remove_all(entry.path());
    }
  }
  {
    cs::QueryService service;
    cs::DurabilityOptions options;
    options.data_dir = dir;
    cs::Status status = service.EnableDurability(options).status();
    if (status.ok()) status = service.Update(w.fixture_base).status;
    if (status.ok()) status = service.Checkpoint();
    for (size_t i = 0; status.ok() && i < w.fixture_tail.size(); ++i) {
      status = service.Update(w.fixture_tail[i]).status;
    }
    if (status.ok()) status = service.FlushWal();
    if (!status.ok()) {
      *error = "preparing the data dir: " + status.ToString();
      return false;
    }
  }
  std::ofstream(ready) << "ok\n";
  return true;
}

// The four stats commands as one JSON object. `net_first` orders :net
// json before the others, so that the bytes of this scrape's own
// responses fall after the snapshot (and before it in the `!net_first`
// scrape, which takes :net json last).
bool Scrape(Connection* ctrl, bool net_first, std::string* json,
            std::string* error) {
  const std::vector<std::string> commands =
      net_first ? std::vector<std::string>{":net json", ":metrics",
                                           ":cache json", ":wal json"}
                : std::vector<std::string>{":metrics", ":cache json",
                                           ":wal json", ":net json"};
  JsonObject out;
  for (const std::string& command : commands) {
    std::string body;
    if (!ctrl->Request(command, &body)) {
      *error = "scraping " + command + " failed";
      return false;
    }
    if (command == ":metrics") {
      out.Str("metrics", body);
      continue;
    }
    while (!body.empty() && body.back() == '\n') body.pop_back();
    if (body.empty() || body[0] != '{') {
      *error = command + " did not answer JSON: " + body;
      return false;
    }
    out.Raw(command.substr(1, command.find(' ') - 1), body);
  }
  *json = out.Render();
  return true;
}

bool RunServer(const Args& a, const Workload& w, JsonObject* out,
               bool* mismatched, std::string* error) {
  const std::string data_dir = a.work_dir + "/data";
  const std::string program_path = a.work_dir + "/program.dl";
  if (!w.program.empty()) {
    std::ofstream file(program_path, std::ios::binary | std::ios::trunc);
    file << w.program;
    if (!file.flush()) {
      *error = "cannot write " + program_path;
      return false;
    }
  }

  ServerProcess server;
  std::unique_ptr<Connection> ctrl;
  std::vector<double> setup_s;
  Tally warmup;
  for (int run = 0; run < kSetupRuns; ++run) {
    if (run > 0) {
      ctrl.reset();
      if (!server.Stop(error)) return false;
    }
    fs::remove_all(data_dir);
    if (w.program.empty()) {
      fs::copy(FixtureDir(a, w), data_dir, fs::copy_options::recursive);
    }
    std::vector<std::string> argv = {a.csdd, "--serve", "0",
                                     "--data-dir=" + data_dir};
    if (!w.program.empty()) argv.push_back(program_path);
    const int64_t start = NowNs();
    if (!server.Start(argv, error)) return false;
    ctrl = std::make_unique<Connection>();
    if (!ctrl->Open(server.port())) {
      *error = "cannot connect to the server";
      return false;
    }
    for (const Op& op : w.warmup) {
      std::string body;
      if (!ctrl->Request(op.line, &body)) {
        *error = "warm-up request failed: " + op.line;
        return false;
      }
      Outcome outcome = Classify(w, op, body);
      if (outcome == Outcome::kOk && op.kind == Op::Kind::kRead &&
          op.answer < 0 && !CheckStockRead(w.stock, op.key, {}, 0, 0, body)) {
        outcome = Outcome::kMismatch;
      }
      if (outcome != Outcome::kOk) LogFailure(op, body);
      warmup.Add(outcome);
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  auto conn = std::make_unique<Connection>();
  if (!conn->Open(server.port())) {
    *error = "cannot connect to the server";
    return false;
  }
  std::string pre, mid;
  if (!Scrape(ctrl.get(), /*net_first=*/false, &pre, error)) return false;

  std::vector<Outcome> outcomes(w.timed.size(), Outcome::kOk);
  std::vector<std::pair<size_t, std::string>> stock_reads;
  std::vector<OpTiming> timing;
  auto on_response = [&](size_t i, const std::string& body) {
    const Op& op = w.timed[i];
    outcomes[i] = Classify(w, op, body);
    if (outcomes[i] != Outcome::kOk) LogFailure(op, body);
    if (outcomes[i] == Outcome::kOk && op.kind == Op::Kind::kRead &&
        op.answer < 0) {
      stock_reads.emplace_back(i, body);
    }
  };
  if (!RunOps(conn.get(), w.timed, &timing, on_response, error)) return false;
  if (!Scrape(ctrl.get(), /*net_first=*/true, &mid, error)) return false;

  // Stock reads are checked once the times of all writes are known.
  std::unordered_map<int, std::vector<TimedWrite>> writes;
  for (size_t i = 0; i < w.timed.size(); ++i) {
    const Op& op = w.timed[i];
    if (op.kind == Op::Kind::kWrite && outcomes[i] == Outcome::kOk) {
      writes[op.key].push_back(
          {op.value, timing[i].sent_ns, timing[i].received_ns});
    }
  }
  for (const auto& [i, body] : stock_reads) {
    const Op& op = w.timed[i];
    if (!CheckStockRead(w.stock, op.key, writes[op.key], timing[i].sent_ns,
                        timing[i].received_ns, body)) {
      outcomes[i] = Outcome::kMismatch;
      LogFailure(op, body);
    }
  }

  Tally timed;
  std::vector<double> read_ms, write_ms;
  std::map<std::string, std::vector<double>> label_ms;
  int64_t update_bytes = 0;
  int64_t first_sent = timing.empty() ? 0 : timing[0].sent_ns;
  int64_t last_received = first_sent;
  for (size_t i = 0; i < w.timed.size(); ++i) {
    const Op& op = w.timed[i];
    const OpTiming& t = timing[i];
    timed.Add(outcomes[i]);
    first_sent = std::min(first_sent, t.sent_ns);
    last_received = std::max(last_received, t.received_ns);
    if (outcomes[i] != Outcome::kOk) continue;
    const double ms = static_cast<double>(t.received_ns - t.sent_ns) / 1e6;
    if (op.kind == Op::Kind::kRead) {
      read_ms.push_back(ms);
      label_ms[op.label].push_back(ms);
    } else {
      write_ms.push_back(ms);
      update_bytes += static_cast<int64_t>(op.line.size());
    }
  }

  const int64_t rss_kb = server.PeakRssKb();
  ctrl.reset();
  conn.reset();
  if (!server.Stop(error)) return false;
  fs::remove_all(data_dir);

  JsonObject labels;
  for (auto& [label, values] : label_ms) {
    labels.Raw(label, Distribution(std::move(values)));
  }
  std::string setups = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setups += (i > 0 ? "," : "") + Number(setup_s[i]);
  }
  setups += "]";
  out->Raw("setup_s", setups)
      .Raw("warmup", warmup.Json())
      .Raw("timed", timed.Json())
      .Num("elapsed_s", static_cast<double>(last_received - first_sent) / 1e9)
      .Raw("read_ms", Distribution(read_ms))
      .Raw("read_ms_by_label", labels.Render())
      .Raw("write_ms", Distribution(write_ms))
      .Num("update_bytes", static_cast<double>(update_bytes))
      .Num("peak_rss_kb", static_cast<double>(rss_kb))
      .Raw("scrapes", JsonObject().Raw("pre", pre).Raw("mid", mid).Render());
  *mismatched = warmup.mismatched + timed.mismatched > 0;
  return true;
}

// A response rendered the way the server's session renders it.
std::string Render(const cs::QueryResponse& response) {
  if (!response.status.ok()) return "error: " + response.status.ToString();
  std::string out;
  for (const std::vector<std::string>& row : response.rows) {
    for (size_t i = 0; i < response.vars.size(); ++i) {
      if (i > 0) out += ", ";
      out += response.vars[i] + " = " + row[i];
    }
    out += "\n";
  }
  return out;
}

struct Pass {
  double total_us = 0;
  int64_t requests = 0;
  int64_t pool_growth = 0;
  Tally tally;
  std::map<std::string, int64_t> techniques;
  JsonObject setup_us;  // harness times around each layer's setup call
};

// A QueryService holding the same data the server held after setup.
std::unique_ptr<cs::QueryService> Seed(const Args& a, const Workload& w,
                                       Pass* pass, std::string* error) {
  auto service = std::make_unique<cs::QueryService>();
  if (w.program.empty()) {
    const std::string dir = a.work_dir + "/replay-data";
    fs::remove_all(dir);
    fs::copy(FixtureDir(a, w), dir, fs::copy_options::recursive);
    cs::DurabilityOptions options;
    options.data_dir = dir;
    // EnableDurability runs RecoverDatabase over the data dir, then
    // opens a fresh WAL segment.
    const int64_t start = NowNs();
    cs::Status status = service->EnableDurability(options).status();
    pass->setup_us.Num("RecoverDatabase",
                       static_cast<double>(NowNs() - start) / 1e3);
    if (!status.ok()) {
      *error = "recovery: " + status.ToString();
      return nullptr;
    }
  } else {
    const int64_t start = NowNs();
    cs::Status status = cs::ParseProgram(w.program, &service->db().program());
    const int64_t parsed = NowNs();
    if (status.ok()) status = service->db().LoadProgramFacts();
    const int64_t loaded = NowNs();
    pass->setup_us
        .Num("ParseProgram", static_cast<double>(parsed - start) / 1e3)
        .Num("LoadProgramFacts", static_cast<double>(loaded - parsed) / 1e3);
    if (!status.ok()) {
      *error = "loading the program: " + status.ToString();
      return nullptr;
    }
  }
  for (const Op& op : w.warmup) service->Query(op.line);
  return service;
}

bool ReplayPass(const Args& a, const Workload& w, int index, bool traced,
                std::string* spans, Pass* pass, std::string* error) {
  std::unique_ptr<cs::QueryService> service = Seed(a, w, pass, error);
  if (service == nullptr) return false;
  // Stock writes so far; logical times (the op index) stand in for
  // clock times, as the replay is sequential.
  std::unordered_map<int, std::vector<TimedWrite>> writes;
  const int64_t pool_before = service->db().pool().size();
  const size_t replay =
      std::min(static_cast<size_t>(w.replay_ops), w.timed.size());
  for (size_t i = 0; i < replay; ++i) {
    const Op& op = w.timed[i];
    const bool read = op.kind == Op::Kind::kRead;
    const int64_t at = static_cast<int64_t>(i);
    std::string body;
    std::optional<cs::Trace> trace;
    const char* technique = "";
    bool cache_hit = false;
    int64_t start = 0, end = 0;
    if (!read) {
      start = NowNs();
      cs::UpdateResponse update = service->Update(op.line);
      end = NowNs();
      if (!update.status.ok()) {
        body = "error: " + update.status.ToString();
      } else {
        writes[op.key].push_back({op.value, at, at});
      }
    } else {
      cs::RequestOptions request;
      if (traced) {
        trace.emplace(op.line);
        request.trace = &*trace;
      }
      start = NowNs();
      cs::QueryResponse response = service->Query(op.line, request);
      end = NowNs();
      body = Render(response);
      technique = cs::TechniqueToString(response.technique);
      cache_hit = response.result_cache_hit;
      ++pass->techniques[technique];
    }
    Outcome outcome = Classify(w, op, body);
    if (outcome == Outcome::kOk && read && op.answer < 0 &&
        !CheckStockRead(w.stock, op.key, writes[op.key], at, at, body)) {
      outcome = Outcome::kMismatch;
    }
    if (outcome != Outcome::kOk) LogFailure(op, body);
    pass->tally.Add(outcome);
    const double us = static_cast<double>(end - start) / 1e3;
    pass->total_us += us;
    ++pass->requests;
    if (traced) {
      JsonObject record;
      record.Num("pass", index)
          .Num("i", static_cast<double>(i))
          .Str("label", op.label)
          .Str("kind", read ? "read" : "write")
          .Str("technique", technique)
          .Raw("cache_hit", cache_hit ? "true" : "false")
          .Num("us", us);
      if (trace.has_value()) record.Raw("trace", trace->ToChromeJson());
      *spans += record.Render() + "\n";
    }
  }
  pass->pool_growth = service->db().pool().size() - pool_before;
  service.reset();
  fs::remove_all(a.work_dir + "/replay-data");
  return true;
}

// Harness-timed Wal::Append of copies of the timed sequence's update
// records (only hot_rw_durable writes), into a scratch log under the
// work dir.
bool TimeWalAppends(const Args& a, const Workload& w, std::string* json,
                    std::string* error) {
  const std::string dir = a.work_dir + "/wal-append";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<double> us;
  {
    cs::StatusOr<std::unique_ptr<cs::Wal>> wal =
        cs::Wal::Open(dir, 1, cs::WalOptions{});
    if (!wal.ok()) {
      *error = "opening a scratch WAL: " + wal.status().ToString();
      return false;
    }
    for (const Op& op : w.timed) {
      if (op.kind != Op::Kind::kWrite) continue;
      cs::WalRecord record;
      record.type = cs::WalRecordType::kUpdate;
      record.text = op.line;
      const int64_t start = NowNs();
      cs::StatusOr<uint64_t> lsn = (*wal)->Append(std::move(record));
      us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      if (!lsn.ok()) {
        *error = "Wal::Append: " + lsn.status().ToString();
        return false;
      }
    }
  }
  fs::remove_all(dir);
  *json = Distribution(us);
  return true;
}

bool RunReplay(const Args& a, const Workload& w, JsonObject* out,
               bool* mismatched, std::string* error) {
  std::string spans;
  std::string passes = "[";
  for (int index = 0; index < kReplayPasses; ++index) {
    const bool traced = index % 2 == 1;
    Pass pass;
    if (!ReplayPass(a, w, index, traced, &spans, &pass, error)) return false;
    JsonObject techniques;
    for (const auto& [name, count] : pass.techniques) {
      techniques.Num(name, static_cast<double>(count));
    }
    const std::string setup = pass.setup_us.Render();
    spans += "{\"pass\":" + std::to_string(index) + ",\"setup_us\":" + setup + "}\n";
    passes += (index > 0 ? "," : "") +
              JsonObject()
                  .Raw("traced", traced ? "true" : "false")
                  .Num("total_us", pass.total_us)
                  .Num("requests", static_cast<double>(pass.requests))
                  .Num("pool_growth", static_cast<double>(pass.pool_growth))
                  .Raw("ops", pass.tally.Json())
                  .Raw("techniques", techniques.Render())
                  .Raw("setup_us", setup)
                  .Render();
    if (pass.tally.mismatched > 0) *mismatched = true;
  }
  passes += "]";
  std::string wal_us;
  if (!TimeWalAppends(a, w, &wal_us, error)) return false;
  std::ofstream file(a.spans, std::ios::trunc);
  file << spans;
  if (!file.flush()) {
    *error = "cannot write " + a.spans;
    return false;
  }
  out->Raw("replay", JsonObject()
                         .Raw("passes", passes)
                         .Raw("wal_append_us", wal_us)
                         .Render());
  return true;
}

int CountCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

// Restricts this process, and so the server it starts, to the highest-
// numbered processor it may run on (the lowest tends to take the most
// interrupts). Returns that processor, or -1 when it cannot pin.
//
// On a few vCPUs of a shared host, a vCPU the host has descheduled
// stalls whatever waits on it: a parallel join waits for its slowest
// part, and a cached read's hand-offs between the harness's and the
// server's threads each wake an idle vCPU, at a cost that follows the
// host's load. On one processor those hand-offs are context switches
// and the server's pool runs its tasks in turn, so a run measures the
// work rather than the host's scheduling.
int PinToOneCpu() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
  }
  return -1;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--csdd") {
      a->csdd = value;
    } else if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      a->work_dir = value;
    } else if (flag == "--fixtures") {
      a->fixtures = value;
    } else if (flag == "--out") {
      a->out = value;
    } else if (flag == "--spans") {
      a->spans = value;
    } else {
      return false;
    }
  }
  return !a->csdd.empty() && !a->workload.empty() && !a->work_dir.empty() &&
         !a->fixtures.empty() && !a->out.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --csdd PATH --workload NAME "
                 "--seed N --seconds S --work-dir DIR --fixtures DIR "
                 "--out FILE [--spans FILE]\n");
    return 2;
  }
  const int cpus = CountCpus();
  std::unique_ptr<Workload> w = MakeWorkload(a.workload, a.seed, a.seconds);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 a.workload.c_str());
    return 2;
  }
  const int pinned_cpu = PinToOneCpu();
  fs::create_directories(a.work_dir);
  fs::create_directories(a.fixtures);
  std::string error;
  bool mismatched = false;
  JsonObject out;
  out.Str("workload", w->name)
      .Num("seed", static_cast<double>(a.seed))
      .Num("cpus", cpus)
      .Num("pinned_cpu", pinned_cpu)
#if defined(__clang__)
      .Str("compiler", "clang " __clang_version__)
#else
      .Str("compiler", "g++ " __VERSION__)
#endif
      .Num("timed_ops", static_cast<double>(w->timed.size()))
      .Num("replay_ops", w->replay_ops);
  bool ok = (!w->program.empty() || EnsureFixture(a, *w, &error)) &&
            RunServer(a, *w, &out, &mismatched, &error) &&
            (a.spans.empty() || RunReplay(a, *w, &out, &mismatched, &error));
  if (!ok) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  out.Raw("mismatched", mismatched ? "true" : "false");
  std::ofstream file(a.out, std::ios::trunc);
  file << out.Render() << "\n";
  if (!file.flush()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
