#ifndef CHAINSPLIT_SERVICE_SERVER_H_
#define CHAINSPLIT_SERVICE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "net/epoll_engine.h"
#include "net/net_counters.h"
#include "service/query_service.h"
#include "service/session.h"

namespace chainsplit {

struct ServerOptions {
  /// IPv4 bind address; loopback by default. "0.0.0.0" serves
  /// non-local clients.
  std::string listen_addr = "127.0.0.1";
  int listen_backlog = 64;

  /// Maximum request-line size; a longer line gets an in-band error
  /// frame and the connection is closed (an endless line must not grow
  /// server memory without bound). 0 = unlimited.
  size_t max_line_bytes = 1 << 20;

  /// Bounded request-queue capacity (overflow rejects with
  /// `% overloaded`) and dispatcher pool size (0 = max(2,
  /// hardware_concurrency)).
  size_t queue_capacity = 256;
  int workers = 0;
};

/// A line-protocol TCP front-end over a QueryService: the epoll engine
/// (net/epoll_engine.h) with one Session per connection
/// (docs/service.md).
///
/// Protocol: the client sends the same lines the csdd REPL accepts;
/// the server answers each completed input with the session's output
/// followed by a lone "." terminator line. On connect the server sends
/// a "% chainsplit ready" banner (also "."-terminated). `:quit` closes
/// the connection. Under overload the server answers a request line
/// with a "% overloaded" frame instead of queueing it.
class TcpServer {
 public:
  explicit TcpServer(QueryService* service, ServerOptions options = {});
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds `options.listen_addr`:`port` (0 = pick an ephemeral port)
  /// and starts serving. Returns the bound port.
  StatusOr<int> Start(int port);

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  /// Stops accepting, cancels in-flight requests via the shutdown
  /// token, closes every connection and joins the engine's threads.
  /// Idempotent.
  void Stop();

  /// Cancellation token chained into every request served; fires on
  /// Stop().
  const CancelToken* shutdown_token() const { return &shutdown_; }

  /// Front-end telemetry (the `:net` command renders these).
  const NetCounters& net_counters() const { return counters_; }

 private:
  /// Publishes counters_ on the service's metrics registry as
  /// csdd_net_* series (labelled with the bound port), plus
  /// rejected_overload/rejected_oversize outcomes joining the
  /// service's csdd_requests_total family so service- and net-level
  /// request totals reconcile. Stop() unregisters them.
  void RegisterMetrics();
  void UnregisterMetrics();

  QueryService* service_;
  const ServerOptions options_;
  CancelToken shutdown_;
  NetCounters counters_;
  int port_ = 0;
  /// Registry callback ids owned by this server (see RegisterMetrics);
  /// removed before the counters they read can die.
  std::vector<uint64_t> metric_callbacks_;

  std::unique_ptr<EpollEngine> engine_;
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_SERVICE_SERVER_H_
