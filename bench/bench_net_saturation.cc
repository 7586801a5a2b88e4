// Network front-end saturation: the epoll event loop holding
// ~10k mostly-idle connections with a fixed thread count and flat
// memory, and a deliberately overloaded run where the bounded request
// queue rejects with `% overloaded` instead of exploding threads.
//
// Claim: connection count is cheap per-connection state, not threads —
// and overload is a deliberate, observable rejection. IdleConnections
// reports rss_delta_kb/threads at ~10k connections (the target scales
// down to the process fd budget: each in-process connection costs two
// descriptors, client end + server end). OverloadSaturation reports
// rejected/answered frames and the queue high watermark, then proves
// every rejected connection is still alive and servable. Both phases
// check fds and threads return to baseline (zero leaks).

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "net/blocking_client.h"
#include "service/query_service.h"
#include "service/server.h"
#include "workload/graph_gen.h"

namespace chainsplit {
namespace {

int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

int CountThreads() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

/// Resident set size in kB (VmRSS).
long RssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// Raises RLIMIT_NOFILE to its hard limit; returns the resulting cap.
long RaiseFdLimit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
    ::getrlimit(RLIMIT_NOFILE, &lim);
  }
  return static_cast<long>(lim.rlim_cur);
}

void SeedTc(QueryService* service, int nodes, int edges) {
  GraphOptions graph;
  graph.num_nodes = nodes;
  graph.num_edges = edges;
  graph.acyclic = true;
  graph.seed = 41;
  GenerateGraph(&service->db(), "edge", graph);
  UpdateResponse rules = service->Update(
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n");
  CS_CHECK(rules.status.ok()) << rules.status;
}

/// ~10k idle connections against one epoll server in-process. Fixed
/// thread count, flat memory, and the server keeps answering.
void IdleConnections(benchmark::State& state) {
  const long fd_cap = RaiseFdLimit();
  // Two fds per in-process connection (client + server end), plus
  // slack for the process baseline.
  const int target = static_cast<int>(
      std::min<long>(state.range(0), (fd_cap - 100) / 2));
  if (target < state.range(0)) {
    std::printf("note: fd limit %ld caps idle connections at %d\n", fd_cap,
                target);
  }

  for (auto _ : state) {
    state.PauseTiming();
    QueryService service;
    SeedTc(&service, 50, 80);
    ServerOptions options;
    options.listen_backlog = 256;
    TcpServer server(&service, options);
    StatusOr<int> port = server.Start(0);
    CS_CHECK(port.ok()) << port.status();
    const int fds_before = CountOpenFds();
    const int threads_before = CountThreads();
    const long rss_before = RssKb();
    state.ResumeTiming();

    {
      std::vector<BlockingClient> idle;
      idle.reserve(static_cast<size_t>(target));
      for (int i = 0; i < target; ++i) {
        idle.emplace_back("127.0.0.1", *port);
        CS_CHECK(idle.back().connected()) << "connection " << i;
      }
      // Every connection is established and banner'd; a sample proves
      // the crowd is actually servable, not just accepted.
      const int threads_with_crowd = CountThreads();
      const long rss_with_crowd = RssKb();
      int sampled = 0;
      for (int i = 0; i < target; i += target > 64 ? target / 64 : 1) {
        idle[static_cast<size_t>(i)].ReadFrame();  // banner
        CS_CHECK(idle[static_cast<size_t>(i)].Send("?- tc(n0, Y).\n"));
        std::string answer = idle[static_cast<size_t>(i)].ReadFrame();
        CS_CHECK(answer.find("answer") != std::string::npos) << answer;
        ++sampled;
      }
      state.PauseTiming();
      state.counters["connections"] = target;
      state.counters["sampled_queries"] = sampled;
      state.counters["threads_delta"] = threads_with_crowd - threads_before;
      state.counters["rss_delta_kb"] =
          static_cast<double>(rss_with_crowd - rss_before);
      state.counters["rss_bytes_per_conn"] =
          target > 0
              ? static_cast<double>(rss_with_crowd - rss_before) * 1024.0 /
                    target
              : 0;
      state.ResumeTiming();
    }

    state.PauseTiming();
    server.Stop();
    // Zero-leak gate: all sockets and no threads left behind.
    for (int spin = 0; spin < 500 && CountOpenFds() > fds_before; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    CS_CHECK(CountOpenFds() <= fds_before)
        << CountOpenFds() << " fds after stop, baseline " << fds_before;
    CS_CHECK(CountThreads() <= threads_before)
        << CountThreads() << " threads after stop, baseline "
        << threads_before;
    state.ResumeTiming();
  }
}

/// Overload: far more concurrent uncached queries than the bounded
/// queue admits. The queue depth stays bounded, overflow is answered
/// `% overloaded`, and every rejected connection remains alive.
void OverloadSaturation(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    QueryService service;
    SeedTc(&service, 600, 1000);
    ServerOptions options;
    options.queue_capacity = 4;
    options.workers = 2;
    options.listen_backlog = 256;
    TcpServer server(&service, options);
    StatusOr<int> port = server.Start(0);
    CS_CHECK(port.ok()) << port.status();
    const int fds_before = CountOpenFds();
    const int threads_before = CountThreads();
    state.ResumeTiming();

    std::atomic<int64_t> answered{0};
    std::atomic<int64_t> overloaded{0};
    std::atomic<int64_t> recovered{0};
    {
      std::vector<std::thread> load;
      load.reserve(static_cast<size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        load.emplace_back([&, c] {
          BlockingClient client("127.0.0.1", *port);
          CS_CHECK(client.connected());
          client.ReadFrame();  // banner
          // Distinct constants: every query is a full uncached
          // parse/plan/evaluate, so 2 workers cannot keep up with the
          // flood and admission control must kick in.
          for (int q = 0; q < 4; ++q) {
            CS_CHECK(client.Send(
                StrCat("?- tc(n", (c * 4 + q) % 500, ", Y).\n")));
            std::string frame = client.ReadFrame();
            if (frame.find("% overloaded") != std::string::npos) {
              overloaded.fetch_add(1);
            } else {
              answered.fetch_add(1);
            }
          }
          // Graceful degradation, not a dropped connection: the same
          // socket must still be servable once the flood passes.
          for (int attempt = 0; attempt < 200; ++attempt) {
            CS_CHECK(client.Send("?- tc(n1, Y).\n"));
            std::string frame = client.ReadFrame();
            if (frame.find("% overloaded") == std::string::npos) {
              CS_CHECK(!frame.empty());
              recovered.fetch_add(1);
              return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        });
      }
      for (std::thread& t : load) t.join();
    }

    state.PauseTiming();
    const NetCounters& net = server.net_counters();
    state.counters["clients"] = clients;
    state.counters["answered"] = static_cast<double>(answered.load());
    state.counters["rejected_overloaded"] =
        static_cast<double>(overloaded.load());
    state.counters["recovered_connections"] =
        static_cast<double>(recovered.load());
    state.counters["queue_high_watermark"] =
        static_cast<double>(net.queue_high_watermark.load());
    state.counters["queue_capacity"] =
        static_cast<double>(net.queue_capacity);
    state.counters["net_rejected_overload"] =
        static_cast<double>(net.rejected_overload.load());
    CS_CHECK(recovered.load() == clients)
        << recovered.load() << " of " << clients
        << " rejected connections recovered";
    CS_CHECK(net.queue_high_watermark.load() <=
             static_cast<int64_t>(options.queue_capacity))
        << "queue grew past its bound";
    server.Stop();
    for (int spin = 0; spin < 500 && CountOpenFds() > fds_before; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    CS_CHECK(CountOpenFds() <= fds_before)
        << CountOpenFds() << " fds after stop, baseline " << fds_before;
    CS_CHECK(CountThreads() <= threads_before)
        << CountThreads() << " threads after stop, baseline "
        << threads_before;
    state.ResumeTiming();
  }
}

BENCHMARK(IdleConnections)
    ->Unit(benchmark::kMillisecond)
    ->Arg(10000)
    ->Iterations(1);
BENCHMARK(OverloadSaturation)
    ->Unit(benchmark::kMillisecond)
    ->Arg(48)
    ->Iterations(1);

}  // namespace
}  // namespace chainsplit

int main(int argc, char** argv) {
  std::printf(
      "Network saturation: the epoll front end under connection count "
      "and overload.\nExpected shape: IdleConnections holds ~10k "
      "mostly-idle connections with threads_delta = 0 and a few KB of "
      "RSS per connection; OverloadSaturation rejects with "
      "'%% overloaded' (queue_high_watermark <= queue_capacity) while "
      "every connection stays alive; both leave zero leaked fds or "
      "threads.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
