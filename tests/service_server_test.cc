// TcpServer smoke test: real sockets on loopback, the csdd line
// protocol, concurrent client connections, connection churn, clean
// shutdown. tests/net_server_test.cc covers the epoll engine itself
// and the golden transcripts.

#include "service/server.h"

#include <dirent.h>

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/blocking_client.h"

namespace chainsplit {
namespace {

/// Open descriptors of this process, via /proc/self/fd.
int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

/// Spins until `pred` holds or ~5s elapse; returns pred's final value.
template <typename Pred>
bool EventuallyTrue(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(ServiceServerTest, ServesQueriesOverTcp) {
  QueryService service;
  UpdateResponse seeded = service.Update(
      "edge(x, y).\nedge(y, z).\n"
      "tc(A, B) :- edge(A, B).\n"
      "tc(A, B) :- edge(A, C), tc(C, B).\n");
  ASSERT_TRUE(seeded.status.ok());

  TcpServer server(&service);
  StatusOr<int> port = server.Start(0);  // ephemeral
  ASSERT_TRUE(port.ok()) << port.status();
  ASSERT_GT(*port, 0);

  BlockingClient client("127.0.0.1", *port);
  ASSERT_TRUE(client.connected());
  EXPECT_NE(client.ReadFrame().find("ready"), std::string::npos);

  ASSERT_TRUE(client.Send("?- tc(x, Y).\n"));
  std::string answer = client.ReadFrame();
  EXPECT_NE(answer.find("Y = y"), std::string::npos) << answer;
  EXPECT_NE(answer.find("Y = z"), std::string::npos) << answer;
  EXPECT_NE(answer.find("2 answer(s)"), std::string::npos) << answer;

  // A fact added over the wire is visible to the next query; the
  // second query of the same text was served from the result cache
  // before the update and recomputed after.
  ASSERT_TRUE(client.Send("edge(z, w).\n"));
  client.ReadFrame();
  ASSERT_TRUE(client.Send("?- tc(x, Y).\n"));
  answer = client.ReadFrame();
  EXPECT_NE(answer.find("Y = w"), std::string::npos) << answer;
  EXPECT_NE(answer.find("3 answer(s)"), std::string::npos) << answer;

  // Errors are reported in-band, not by dropping the connection.
  ASSERT_TRUE(client.Send("p(a&.\n"));
  EXPECT_NE(client.ReadFrame().find("parse error"), std::string::npos);

  // Multi-line clause accumulation works over the wire too.
  ASSERT_TRUE(client.Send("?- tc(x,\n"));
  ASSERT_TRUE(client.Send("Y).\n"));
  EXPECT_NE(client.ReadFrame().find("3 answer(s)"), std::string::npos);

  server.Stop();
}

TEST(ServiceServerTest, ConcurrentClientsGetConsistentAnswers) {
  QueryService service;
  std::string text =
      "tc(A, B) :- edge(A, B).\n"
      "tc(A, B) :- edge(A, C), tc(C, B).\n";
  for (int i = 0; i < 20; ++i) {
    text += "edge(a" + std::to_string(i) + ", a" + std::to_string(i + 1) +
            ").\n";
  }
  ASSERT_TRUE(service.Update(text).status.ok());

  TcpServer server(&service);
  StatusOr<int> port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();

  std::vector<std::thread> clients;
  std::vector<int> answer_counts(6, -1);
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient client("127.0.0.1", *port);
      if (!client.connected()) return;
      client.ReadFrame();  // banner
      int last = -1;
      for (int i = 0; i < 10; ++i) {
        if (!client.Send("?- tc(a0, Y).\n")) return;
        std::string answer = client.ReadFrame();
        if (answer.find("20 answer(s)") != std::string::npos) last = 20;
      }
      answer_counts[c] = last;
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < 6; ++c) EXPECT_EQ(answer_counts[c], 20) << "client " << c;

  EXPECT_GT(service.stats().result_cache_hits, 0);
  server.Stop();
  // Stop is idempotent and leaves the service usable in-process.
  server.Stop();
  EXPECT_TRUE(service.Query("?- tc(a0, Y).").status.ok());
}

/// Connection churn must not leak fds or connection state: clients
/// that quit cleanly, vanish silently, or RST the server mid-banner
/// all leave the server with no active connections and the process at
/// its baseline fd count.
TEST(ServiceServerTest, ConnectionChurnLeaksNoFds) {
  QueryService service;
  ASSERT_TRUE(service.Update("p(a).").status.ok());
  TcpServer server(&service);
  StatusOr<int> port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();
  auto active = [&server] {
    return server.net_counters().active_connections.load();
  };

  {
    BlockingClient warm("127.0.0.1", *port);  // settle lazy allocations
    ASSERT_TRUE(warm.connected());
    warm.ReadFrame();
  }
  ASSERT_TRUE(EventuallyTrue([&] { return active() == 0; }));
  const int fds_before = CountOpenFds();
  ASSERT_GT(fds_before, 0);

  constexpr int kChurn = 45;
  for (int i = 0; i < kChurn; ++i) {
    BlockingClient client("127.0.0.1", *port);
    ASSERT_TRUE(client.connected()) << "connection " << i;
    switch (i % 3) {
      case 0:  // polite: banner, :quit, server closes
        client.ReadFrame();
        client.Send(":quit\n");
        client.ReadFrame();
        break;
      case 1:  // vanishing: close without ever reading
        break;
      case 2:  // violent: RST racing the banner send
        client.Abort();
        break;
    }
  }

  EXPECT_TRUE(EventuallyTrue([&] { return active() == 0; }))
      << "active connections: " << active();

  // All churned sockets must be closed again.
  EXPECT_TRUE(EventuallyTrue([&] {
    int now = CountOpenFds();
    return now >= 0 && now <= fds_before;
  })) << "fd count grew from " << fds_before << " to " << CountOpenFds();

  server.Stop();
}

/// A pipelined client that sends a burst of requests in one segment
/// must get every response, in order.
TEST(ServiceServerTest, PipelinedClientGetsOrderedResponses) {
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
    if (i % 2 == 0) {
      EXPECT_NE(answer.find("2 answer(s)"), std::string::npos)
          << "request " << i << ": " << answer;
    } else {
      EXPECT_NE(answer.find("1 answer(s)"), std::string::npos)
          << "request " << i << ": " << answer;
    }
  }
  server.Stop();
}

}  // namespace
}  // namespace chainsplit
