// csdd — an interactive shell and query server for the ChainSplit
// deductive database.
//
//   $ csdd [--serve PORT] [serving flags] [program.dl ...]
//
// Serving flags (apply to --serve and later :serve commands; the
// server is one epoll event loop plus a dispatcher pool):
//   --listen-addr=ADDR         IPv4 bind address (default 127.0.0.1)
//   --listen-backlog=N         accept backlog (default 64)
//   --net-workers=N            dispatcher pool size (0 = auto)
//   --net-queue=N              bounded request-queue capacity; overflow
//                              answers "% overloaded" (default 256)
//   --max-line=BYTES           request-line size limit (default 1 MiB)
//
// Durability flags (docs/service.md §Durability):
//   --data-dir=DIR             recover from DIR on startup, then log
//                              every mutation there (WAL + snapshots)
//   --wal-sync=POLICY          always | interval (default) | none
//   --wal-sync-interval=MS     interval policy's fsync period (50)
//   --snapshot-every=N         auto-checkpoint after N logged records
//                              (0 = only on :snapshot)
//
// Observability flags (docs/observability.md):
//   --slow-query-ms=N          write the trace of every query taking
//                              >= N ms as Chrome trace_event JSON into
//                              the data dir (or --slow-query-dir)
//   --slow-query-dir=DIR       slow-query log directory (defaults to
//                              the --data-dir, or ./slow-queries)
//   --trace                    start with per-query tracing on
//                              (`:trace last` prints the newest trace)
//
// Loads each program file (facts, rules; queries in files run
// immediately), then reads from stdin:
//
//   ?- sg(tom, Y).          run a query (cached by the service)
//   p(a, b).                add a fact or rule
//   :load FILE              load another program file
//   :csv PRED/ARITY FILE    bulk-load facts from delimited text
//   :plan                   toggle plan printing
//   :stats                  toggle evaluator statistics
//   :deadline MS            per-query deadline (0 = none)
//   :preds                  list predicates with stored facts
//   :cache                  service cache/deadline counters
//   :serve PORT             serve the TCP line protocol (0 = ephemeral)
//   :help                   this text
//   :quit                   exit
//
// With --serve PORT the server starts before the REPL. :quit stops
// everything; a closed stdin (e.g. `csdd --serve 4242 < /dev/null &`)
// leaves the server running until SIGINT/SIGTERM, which shut down
// gracefully: stop accepting, drain in-flight requests, fsync the WAL,
// exit 0.
//
// Any other argument starting with "--", and a numeric flag whose value
// is not a whole number in range, is rejected with the usage line
// (exit 1) before recovery or serving starts.
//
// Exit status: nonzero when any statement failed while loading files
// (command line or :load) or while reading non-interactive stdin, so
// batch pipelines observe errors.

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "service/query_service.h"
#include "service/server.h"
#include "service/session.h"

namespace chainsplit {
namespace {

constexpr const char* kUsage =
    "usage: csdd [--serve PORT] [--listen-addr=ADDR] [--listen-backlog=N]\n"
    "            [--net-workers=N] [--net-queue=N] [--max-line=BYTES]\n"
    "            [--data-dir=DIR] [--wal-sync=always|interval|none]\n"
    "            [--wal-sync-interval=MS] [--snapshot-every=N]\n"
    "            [--slow-query-ms=N] [--slow-query-dir=DIR] [--trace]\n"
    "            [program.dl ...]\n";

constexpr int64_t kMaxPort = 65535;
/// Upper bound of --net-workers: each worker is an OS thread.
constexpr int64_t kMaxNetWorkers = 1024;

/// Parses the value of numeric flag `flag` strictly (see ParseInt);
/// on a bad value prints the error and the usage line.
bool FlagValue(std::string_view flag, std::string_view value, int64_t min,
               int64_t max, int64_t* out) {
  if (ParseInt(value, min, max, out)) return true;
  std::printf("error: invalid value for %.*s\n%s",
              static_cast<int>(flag.size()), flag.data(), kUsage);
  return false;
}

int Run(int argc, char** argv) {
  int serve_port = -1;
  ServerOptions server_options;
  DurabilityOptions durability;
  long long slow_query_ms = 0;
  std::string slow_query_dir;
  bool trace_on = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // "--NAME=VALUE": `flag` is "--NAME" (all of `arg` without '=').
    const size_t eq = arg.find('=');
    const std::string_view flag = std::string_view(arg).substr(0, eq);
    const std::string_view value =
        eq == std::string::npos ? std::string_view()
                                : std::string_view(arg).substr(eq + 1);
    int64_t n = 0;
    if (arg == "--serve" && i + 1 < argc) {
      if (!FlagValue(flag, argv[++i], 0, kMaxPort, &n)) return 1;
      serve_port = static_cast<int>(n);
    } else if (StartsWith(arg, "--serve=")) {
      if (!FlagValue(flag, value, 0, kMaxPort, &n)) return 1;
      serve_port = static_cast<int>(n);
    } else if (StartsWith(arg, "--data-dir=")) {
      durability.data_dir = arg.substr(11);
    } else if (StartsWith(arg, "--wal-sync=")) {
      StatusOr<WalSyncPolicy> policy = ParseWalSyncPolicy(arg.substr(11));
      if (!policy.ok()) {
        std::printf("error: %s\n", policy.status().ToString().c_str());
        return 1;
      }
      durability.wal.sync = *policy;
    } else if (StartsWith(arg, "--wal-sync-interval=")) {
      if (!FlagValue(flag, value, 0, INT32_MAX, &n)) return 1;
      durability.wal.sync_interval_ms = static_cast<int>(n);
    } else if (StartsWith(arg, "--snapshot-every=")) {
      if (!FlagValue(flag, value, 0, INT64_MAX,
                     &durability.snapshot_every_records)) {
        return 1;
      }
    } else if (StartsWith(arg, "--slow-query-ms=")) {
      if (!FlagValue(flag, value, 0, INT64_MAX, &n)) return 1;
      slow_query_ms = n;
    } else if (StartsWith(arg, "--slow-query-dir=")) {
      slow_query_dir = arg.substr(17);
    } else if (arg == "--trace") {
      trace_on = true;
    } else if (StartsWith(arg, "--listen-addr=")) {
      server_options.listen_addr = arg.substr(14);
    } else if (StartsWith(arg, "--listen-backlog=")) {
      if (!FlagValue(flag, value, 1, INT32_MAX, &n)) return 1;
      server_options.listen_backlog = static_cast<int>(n);
    } else if (StartsWith(arg, "--net-workers=")) {
      if (!FlagValue(flag, value, 0, kMaxNetWorkers, &n)) return 1;
      server_options.workers = static_cast<int>(n);
    } else if (StartsWith(arg, "--net-queue=")) {
      if (!FlagValue(flag, value, 1, INT64_MAX, &n)) return 1;
      server_options.queue_capacity = static_cast<size_t>(n);
    } else if (StartsWith(arg, "--max-line=")) {
      if (!FlagValue(flag, value, 0, INT64_MAX, &n)) return 1;
      server_options.max_line_bytes = static_cast<size_t>(n);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s%s", kUsage, Session::HelpText());
      return 0;
    } else if (StartsWith(arg, "--")) {
      std::printf("error: unknown flag %s\n%s", arg.c_str(), kUsage);
      return 1;
    } else {
      files.push_back(std::move(arg));
    }
  }

  // Block SIGINT/SIGTERM before any thread exists (the durability
  // checkpointer, server threads): every later thread inherits the
  // mask, so a signal can only be consumed by the sigwait below and a
  // graceful shutdown is guaranteed in serve mode. In pure REPL mode
  // (no --serve) the default dispositions stay in place.
  sigset_t sigset;
  sigemptyset(&sigset);
  sigaddset(&sigset, SIGINT);
  sigaddset(&sigset, SIGTERM);
  if (serve_port >= 0) pthread_sigmask(SIG_BLOCK, &sigset, nullptr);

  QueryService service;
  if (!durability.data_dir.empty()) {
    StatusOr<RecoveryResult> recovered = service.EnableDurability(durability);
    if (!recovered.ok()) {
      std::printf("error: recovery failed: %s\n",
                  recovered.status().ToString().c_str());
      return 1;
    }
    if (recovered->cold_start) {
      std::printf("%% data dir %s: cold start\n",
                  durability.data_dir.c_str());
    } else {
      std::printf(
          "%% recovered from %s: snapshot lsn %llu, %lld records replayed, "
          "%lld skipped%s\n",
          durability.data_dir.c_str(),
          static_cast<unsigned long long>(recovered->snapshot_lsn),
          static_cast<long long>(recovered->replayed_records),
          static_cast<long long>(recovered->skipped_records),
          recovered->torn_tail ? " (torn tail dropped)" : "");
    }
    for (const std::string& note : recovered->notes) {
      std::printf("%% recovery: %s\n", note.c_str());
    }
    std::fflush(stdout);
  }
  if (trace_on) service.set_tracing(true);
  if (slow_query_ms > 0) {
    if (slow_query_dir.empty()) {
      slow_query_dir = durability.data_dir.empty()
                           ? std::string("./slow-queries")
                           : StrCat(durability.data_dir, "/slow-queries");
    }
    service.EnableSlowQueryLog(slow_query_dir,
                               std::chrono::milliseconds(slow_query_ms));
    std::printf("%% slow-query log: >= %lld ms -> %s\n", slow_query_ms,
                slow_query_dir.c_str());
    std::fflush(stdout);
  }
  Session session(&service);
  int load_errors = 0;
  for (const std::string& file : files) {
    int errors_before = session.error_count();
    std::string out;
    session.HandleLine(StrCat(":load ", file), &out);
    std::fputs(out.c_str(), stdout);
    load_errors += session.error_count() - errors_before;
  }

  std::unique_ptr<TcpServer> server;
  if (serve_port >= 0) {
    server = std::make_unique<TcpServer>(&service, server_options);
    StatusOr<int> port = server->Start(serve_port);
    if (!port.ok()) {
      std::printf("error: %s\n", port.status().ToString().c_str());
      return 1;
    }
    std::printf("%% serving on port %d\n", *port);
    std::fflush(stdout);
  }

  const bool tty = isatty(0) != 0;
  if (tty) std::printf("ChainSplit-DDB shell — :help for commands\n");
  std::string line;
  int stdin_errors = 0;
  bool quit = false;
  while (true) {
    if (tty) std::printf(session.has_pending() ? "....> " : "csdd> ");
    if (!std::getline(std::cin, line)) break;
    // :serve needs the server object, so it is handled here rather
    // than in the session.
    if (!session.has_pending() && StartsWith(line, ":serve")) {
      if (server != nullptr) {
        std::printf("%% already serving on port %d\n", server->port());
        continue;
      }
      int64_t requested = 0;
      std::string_view arg = std::string_view(line).substr(6);
      while (!arg.empty() && arg.front() == ' ') arg.remove_prefix(1);
      if (!ParseInt(arg, 0, kMaxPort, &requested)) {
        std::printf("usage: :serve PORT\n");
        ++stdin_errors;
        continue;
      }
      server = std::make_unique<TcpServer>(&service, server_options);
      StatusOr<int> port = server->Start(static_cast<int>(requested));
      if (!port.ok()) {
        std::printf("error: %s\n", port.status().ToString().c_str());
        server.reset();
        ++stdin_errors;
        continue;
      }
      std::printf("%% serving on port %d\n", *port);
      std::fflush(stdout);
      continue;
    }
    int errors_before = session.error_count();
    std::string out;
    bool keep_going = session.HandleLine(line, &out);
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
    int new_errors = session.error_count() - errors_before;
    stdin_errors += new_errors;
    if (StartsWith(line, ":load")) load_errors += new_errors;
    if (!keep_going) {
      quit = true;
      break;
    }
  }
  if (server != nullptr && !quit) {
    // stdin closed while serving: a daemon-style launch. Stay up until
    // SIGINT/SIGTERM (blocked in every thread since startup, so the
    // signal always lands here), then shut down gracefully.
    int sig = 0;
    sigwait(&sigset, &sig);
    std::printf("%% received %s, shutting down\n",
                sig == SIGINT ? "SIGINT" : "SIGTERM");
    std::fflush(stdout);
  }
  if (server != nullptr) server->Stop();  // stop accepting, drain, join
  Status flushed = service.FlushWal();
  if (!flushed.ok()) {
    std::printf("error: wal flush: %s\n", flushed.ToString().c_str());
    return 1;
  }
  if (server != nullptr) {
    std::printf("%% shutdown complete\n");
    std::fflush(stdout);
  }
  if (load_errors > 0) return 1;
  if (!tty && stdin_errors > 0) return 1;
  return 0;
}

}  // namespace
}  // namespace chainsplit

int main(int argc, char** argv) { return chainsplit::Run(argc, argv); }
