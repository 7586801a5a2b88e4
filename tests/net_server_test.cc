// The event-driven network front end: protocol behavior, golden
// byte transcripts, bounded-queue admission control, oversize-line
// rejection, accepted-socket options, idle-connection scalability, and
// fd/thread leak checks.

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/blocking_client.h"
#include "net/epoll_engine.h"
#include "net/event_loop.h"
#include "net/listen.h"
#include "service/query_service.h"
#include "service/server.h"

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

/// Threads of this process, from /proc/self/status.
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

template <typename Pred>
bool EventuallyTrue(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

void SeedService(QueryService* service) {
  UpdateResponse seeded = service->Update(
      "edge(x, y).\nedge(y, z).\n"
      "tc(A, B) :- edge(A, B).\n"
      "tc(A, B) :- edge(A, C), tc(C, B).\n");
  ASSERT_TRUE(seeded.status.ok());
}

TEST(NetServerTest, ServesTheLineProtocol) {
  QueryService service;
  SeedService(&service);
  TcpServer server(&service);
  StatusOr<int> port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();

  BlockingClient client("127.0.0.1", *port);
  ASSERT_TRUE(client.connected());
  EXPECT_NE(client.ReadFrame().find("ready"), std::string::npos);

  ASSERT_TRUE(client.Send("?- tc(x, Y).\n"));
  std::string answer = client.ReadFrame();
  EXPECT_NE(answer.find("Y = y"), std::string::npos) << answer;
  EXPECT_NE(answer.find("2 answer(s)"), std::string::npos) << answer;

  // Update visible to the next query.
  ASSERT_TRUE(client.Send("edge(z, w).\n"));
  client.ReadFrame();
  ASSERT_TRUE(client.Send("?- tc(x, Y).\n"));
  EXPECT_NE(client.ReadFrame().find("3 answer(s)"), std::string::npos);

  // Parse errors are in-band.
  ASSERT_TRUE(client.Send("p(a&.\n"));
  EXPECT_NE(client.ReadFrame().find("parse error"), std::string::npos);

  // Multi-line clause accumulation, with CRLF endings.
  ASSERT_TRUE(client.Send("?- tc(x,\r\n"));
  ASSERT_TRUE(client.Send("Y).\r\n"));
  EXPECT_NE(client.ReadFrame().find("3 answer(s)"), std::string::npos);

  // The :net introspection command works over the wire.
  ASSERT_TRUE(client.Send(":net\n"));
  std::string net = client.ReadFrame();
  EXPECT_NE(net.find("% net mode"), std::string::npos) << net;
  EXPECT_NE(net.find("accepted"), std::string::npos) << net;

  server.Stop();
}

TEST(NetServerTest, PipelinedBurstAnsweredInOrder) {
  QueryService service;
  ASSERT_TRUE(service.Update("p(a).\np(b).\nq(c).\n").status.ok());
  TcpServer server(&service);
  StatusOr<int> port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();

  BlockingClient client("127.0.0.1", *port);
  ASSERT_TRUE(client.connected());
  client.ReadFrame();  // banner

  constexpr int kRequests = 120;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += i % 2 == 0 ? "?- p(X).\n" : "?- q(X).\n";
  }
  ASSERT_TRUE(client.Send(burst));
  for (int i = 0; i < kRequests; ++i) {
    std::string answer = client.ReadFrame();
    EXPECT_NE(answer.find(i % 2 == 0 ? "2 answer(s)" : "1 answer(s)"),
              std::string::npos)
        << "request " << i << ": " << answer;
  }
  server.Stop();
}

TEST(NetServerTest, OversizeLineGetsErrorFrameAndClose) {
  QueryService service;
  ASSERT_TRUE(service.Update("p(a).").status.ok());
  ServerOptions options;
  options.max_line_bytes = 64;
  TcpServer server(&service, options);
  StatusOr<int> port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();

  {
    // An endless unterminated line must not grow server memory: the
    // connection is rejected once the limit is crossed.
    BlockingClient client("127.0.0.1", *port);
    ASSERT_TRUE(client.connected());
    client.ReadFrame();
    ASSERT_TRUE(client.Send(std::string(200, 'x')));  // no newline
    EXPECT_NE(client.ReadFrame().find("request line exceeds 64 bytes"),
              std::string::npos);
    EXPECT_EQ(client.ReadFrame(), "");  // server closed
  }
  {
    // A terminated-but-huge line is rejected the same way.
    BlockingClient client("127.0.0.1", *port);
    ASSERT_TRUE(client.connected());
    client.ReadFrame();
    ASSERT_TRUE(client.Send(std::string(200, 'y') + "\n?- p(X).\n"));
    EXPECT_NE(client.ReadFrame().find("request line exceeds 64 bytes"),
              std::string::npos);
    EXPECT_EQ(client.ReadFrame(), "");
  }
  // The server survives and serves the next client.
  BlockingClient client("127.0.0.1", *port);
  ASSERT_TRUE(client.connected());
  client.ReadFrame();
  ASSERT_TRUE(client.Send("?- p(X).\n"));
  EXPECT_NE(client.ReadFrame().find("1 answer(s)"), std::string::npos);
  EXPECT_GE(server.net_counters().rejected_oversize.load(), 2);
  server.Stop();
}

/// Golden transcript of one scripted session — facts, recursion,
/// cache-hit replay with :plan, parse errors, a multi-line clause,
/// empty lines, commands, :quit — as raw bytes off the wire. Any
/// change to framing, banner or session output shows up here.
TEST(NetGoldenTest, ScriptedSessionTranscript) {
  const std::string script =
      "p(a, b).\n"
      "p(b, c).\n"
      "tc(X, Y) :- p(X, Y).\n"
      "tc(X, Y) :- p(X, Z), tc(Z, Y).\n"
      "?- tc(a, Y).\n"
      "?- tc(a,\n"
      "Y).\n"
      "\n"
      ":plan\n"
      "?- tc(a, Y).\n"
      "bad(syntax&.\n"
      ":preds\n"
      ":deadline 250\n"
      "?- tc(b, Y).\n"
      ":unknowncmd\n"
      ":quit\n";
  const std::string expected =
      "% chainsplit ready\n.\n"
      ".\n.\n.\n.\n"
      "Y = b\nY = c\n% 2 answer(s)\n.\n"
      "Y = b\nY = c\n% 2 answer(s)\n.\n"
      "% plan printing on\n.\n"
      "% technique: magic-sets (result cache)\n"
      "recursion class of tc/2: linear (function-free)\n"
      "technique: magic-sets (3 transformed rules, query tc__bf/2)\n"
      "plan: answers from result cache\n"
      "Y = b\nY = c\n% 2 answer(s)\n.\n"
      "parse error: InvalidArgument: unexpected character '&' at 1:11\n.\n"
      "  p/2  2 tuples\n.\n"
      "% deadline 250 ms\n.\n"
      "% technique: magic-sets\n"
      "recursion class of tc/2: linear (function-free)\n"
      "technique: magic-sets (3 transformed rules, query tc__bf/2)\n"
      "Y = c\n% 1 answer(s)\n.\n"
      "unknown command :unknowncmd \u2014 :help\n.\n"
      ".\n";

  QueryService service;
  TcpServer server(&service);
  StatusOr<int> port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();
  BlockingClient client("127.0.0.1", *port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(script));
  EXPECT_EQ(client.ReadUntilClose(), expected);
  server.Stop();
}

/// Golden transcript of the oversize-rejection path: banner, one
/// in-band error frame, then the server closes.
TEST(NetGoldenTest, OversizeRejectionTranscript) {
  QueryService service;
  ServerOptions options;
  options.max_line_bytes = 32;
  TcpServer server(&service, options);
  StatusOr<int> port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();
  BlockingClient client("127.0.0.1", *port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(std::string(100, 'z')));
  EXPECT_EQ(client.ReadUntilClose(),
            "% chainsplit ready\n.\n"
            "% error: request line exceeds 32 bytes\n.\n");
  server.Stop();
}

/// Every socket the engine accepts goes through AcceptConnection,
/// which must hand back a non-blocking socket with Nagle's algorithm
/// off: a response must not wait for the client's delayed ACK.
TEST(NetListenTest, AcceptedConnectionHasNoDelay) {
  StatusOr<int> listen_fd = OpenListenSocket("127.0.0.1", 0, 4);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status();
  StatusOr<int> port = BoundPort(*listen_fd);
  ASSERT_TRUE(port.ok());
  BlockingClient client("127.0.0.1", *port);
  ASSERT_TRUE(client.connected());

  const int fd = AcceptConnection(*listen_fd);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_EQ(nodelay, 1);
  EXPECT_NE(::fcntl(fd, F_GETFL, 0) & O_NONBLOCK, 0);
  ::close(fd);
  ::close(*listen_fd);
}

/// A handler that parks every request until released — makes queue
/// overflow deterministic for the admission-control tests.
class GatedHandlerState {
 public:
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  void Await() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return released_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

class GatedHandler : public LineHandler {
 public:
  explicit GatedHandler(GatedHandlerState* gate) : gate_(gate) {}
  std::string Greeting() override { return "hi\n.\n"; }
  bool HandleLine(const std::string& line, std::string* out) override {
    gate_->Await();
    *out = "ok " + line + "\n.\n";
    return true;
  }

 private:
  GatedHandlerState* gate_;
};

/// Queue overflow answers `% overloaded` immediately and keeps the
/// connection alive; once load drains, the same connection is served
/// normally.
TEST(EpollEngineTest, OverloadRejectsAndRecovers) {
  GatedHandlerState gate;
  NetCounters counters;
  EngineOptions options;
  options.queue_capacity = 1;
  options.workers = 1;
  EpollEngine engine([&gate] { return std::make_unique<GatedHandler>(&gate); },
                     options, &counters);
  StatusOr<int> listen_fd = OpenListenSocket("127.0.0.1", 0, 16);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status();
  StatusOr<int> port = BoundPort(*listen_fd);
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(engine.Start(*listen_fd).ok());

  BlockingClient blocker("127.0.0.1", *port);   // occupies the worker
  BlockingClient waiter("127.0.0.1", *port);    // occupies the queue
  BlockingClient rejected("127.0.0.1", *port);  // overflows
  for (BlockingClient* c : {&blocker, &waiter, &rejected}) {
    ASSERT_TRUE(c->connected());
    EXPECT_EQ(c->ReadFrame(), "hi\n");
  }
  ASSERT_TRUE(blocker.Send("one\n"));
  // Wait until the worker holds request "one" (dispatched and popped,
  // so the queue is empty again) and "two" fills the 1-slot queue;
  // only then is overflow deterministic.
  ASSERT_TRUE(EventuallyTrue([&] {
    return counters.dispatched.load() >= 1 &&
           counters.queue_depth.load() == 0;
  }));
  ASSERT_TRUE(waiter.Send("two\n"));
  ASSERT_TRUE(EventuallyTrue(
      [&] { return counters.queue_depth.load() >= 1; }));

  ASSERT_TRUE(rejected.Send("three\n"));
  EXPECT_EQ(rejected.ReadFrame(), "% overloaded\n");
  EXPECT_GE(counters.rejected_overload.load(), 1);
  EXPECT_GE(counters.queue_high_watermark.load(), 1);

  // The rejected connection is alive: release the gate and it gets
  // served like everyone else.
  gate.Release();
  EXPECT_EQ(blocker.ReadFrame(), "ok one\n");
  EXPECT_EQ(waiter.ReadFrame(), "ok two\n");
  ASSERT_TRUE(rejected.Send("four\n"));
  EXPECT_EQ(rejected.ReadFrame(), "ok four\n");

  engine.Stop();
}

/// One connection can never overflow the queue: at most one of its
/// lines is in flight, the rest wait under TCP backpressure — a
/// pipelining client sees every response, in order, with no
/// rejections.
TEST(EpollEngineTest, SingleConnectionPipeliningBackpressuredNotRejected) {
  GatedHandlerState gate;
  NetCounters counters;
  EngineOptions options;
  options.queue_capacity = 1;
  options.workers = 1;
  EpollEngine engine([&gate] { return std::make_unique<GatedHandler>(&gate); },
                     options, &counters);
  StatusOr<int> listen_fd = OpenListenSocket("127.0.0.1", 0, 16);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status();
  StatusOr<int> port = BoundPort(*listen_fd);
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(engine.Start(*listen_fd).ok());

  BlockingClient client("127.0.0.1", *port);
  ASSERT_TRUE(client.connected());
  client.ReadFrame();
  ASSERT_TRUE(client.Send("a\nb\nc\nd\ne\n"));
  gate.Release();
  for (const char* expect : {"ok a\n", "ok b\n", "ok c\n", "ok d\n",
                             "ok e\n"}) {
    EXPECT_EQ(client.ReadFrame(), expect);
  }
  EXPECT_EQ(counters.rejected_overload.load(), 0);
  engine.Stop();
}

/// Connection count is cheap state, not threads: hundreds of idle
/// connections add zero threads, and closing them returns the process
/// to its fd baseline.
TEST(NetServerTest, IdleConnectionsAddNoThreads) {
  QueryService service;
  ASSERT_TRUE(service.Update("p(a).").status.ok());
  constexpr int kIdle = 300;
  // The idle crowd connects back to back, faster than the event loop
  // accepts: with the default 64-deep backlog the overflow waits out
  // SYN retransmits (seconds). Room for all of them keeps it instant.
  ServerOptions options;
  options.listen_backlog = 2 * kIdle;
  TcpServer server(&service, options);
  StatusOr<int> port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();

  {
    BlockingClient warm("127.0.0.1", *port);
    ASSERT_TRUE(warm.connected());
    warm.ReadFrame();
  }
  const int threads_before = CountThreads();
  const int fds_before = CountOpenFds();
  ASSERT_GT(threads_before, 0);

  {
    std::vector<BlockingClient> idle;
    idle.reserve(kIdle);
    for (int i = 0; i < kIdle; ++i) {
      idle.emplace_back("127.0.0.1", *port);
      ASSERT_TRUE(idle.back().connected()) << "connection " << i;
    }
    ASSERT_TRUE(EventuallyTrue([&] {
      return server.net_counters().active_connections.load() >= kIdle;
    }));
    EXPECT_EQ(CountThreads(), threads_before)
        << "idle connections must not spawn threads";

    // The server still answers while holding the idle crowd.
    BlockingClient active("127.0.0.1", *port);
    ASSERT_TRUE(active.connected());
    active.ReadFrame();
    ASSERT_TRUE(active.Send("?- p(X).\n"));
    EXPECT_NE(active.ReadFrame().find("1 answer(s)"), std::string::npos);
  }

  EXPECT_TRUE(EventuallyTrue([&] {
    return server.net_counters().active_connections.load() <= 1;
  })) << "active connections: "
      << server.net_counters().active_connections.load();
  EXPECT_TRUE(EventuallyTrue([&] {
    int now = CountOpenFds();
    return now >= 0 && now <= fds_before + 2;
  })) << "fd count grew from " << fds_before << " to " << CountOpenFds();
  server.Stop();
}

/// Quit() with a task still in the mailbox: Run() runs what it drained
/// and returns. Here both wakeups (the task's and Quit's) are drained
/// by one epoll_wait before Run() sees the task, so a loop that went
/// back to waiting would block for good, as Stop() did when a query
/// completion was posted just before it.
TEST(EventLoopTest, QuitWithATaskPendingReturns) {
  EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  bool second_ran = false;
  std::promise<void> returned;
  std::future<void> done = returned.get_future();
  std::thread runner([&] {
    loop.Run([](uint64_t, uint32_t) {});
    returned.set_value();
  });
  loop.Post([&] {
    loop.Post([&] { second_ran = true; });
    loop.Quit();
  });
  const bool returned_in_time =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(returned_in_time);
  if (!returned_in_time) loop.Quit();  // one more wakeup, so the join ends
  runner.join();
  EXPECT_TRUE(second_ran);
}

/// Stop() reclaims every fd and thread, with clients mid-flight.
TEST(NetServerTest, StopLeaksNoFdsOrThreads) {
  const int fds_baseline = CountOpenFds();
  const int threads_baseline = CountThreads();
  {
    QueryService service;
    ASSERT_TRUE(service.Update("p(a).").status.ok());
    TcpServer server(&service);
    StatusOr<int> port = server.Start(0);
    ASSERT_TRUE(port.ok()) << port.status();
    std::vector<BlockingClient> clients;
    for (int i = 0; i < 20; ++i) {
      clients.emplace_back("127.0.0.1", *port);
      ASSERT_TRUE(clients.back().connected());
      if (i % 3 == 0) clients.back().Send("?- p(X).\n");
      if (i % 3 == 1) clients.back().Abort();
    }
    server.Stop();
    server.Stop();  // idempotent
  }
  EXPECT_TRUE(EventuallyTrue([&] {
    int now = CountOpenFds();
    return now >= 0 && now <= fds_baseline;
  })) << "fds: " << fds_baseline << " -> " << CountOpenFds();
  EXPECT_TRUE(EventuallyTrue(
      [&] { return CountThreads() <= threads_baseline; }))
      << "threads: " << threads_baseline << " -> " << CountThreads();
}

TEST(NetServerTest, ConfigurableListenAddrAndBacklog) {
  QueryService service;
  ASSERT_TRUE(service.Update("p(a).").status.ok());
  ServerOptions options;
  options.listen_addr = "0.0.0.0";
  options.listen_backlog = 8;
  TcpServer server(&service, options);
  StatusOr<int> port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();
  BlockingClient client("127.0.0.1", *port);
  ASSERT_TRUE(client.connected());
  EXPECT_NE(client.ReadFrame().find("ready"), std::string::npos);
  server.Stop();
}

TEST(NetServerTest, RejectsInvalidListenAddr) {
  QueryService service;
  ServerOptions options;
  options.listen_addr = "not-an-address";
  TcpServer server(&service, options);
  StatusOr<int> port = server.Start(0);
  EXPECT_FALSE(port.ok());
}

}  // namespace
}  // namespace chainsplit
