#include "service/server.h"

#include <unistd.h>

#include <utility>

#include "common/strings.h"
#include "net/listen.h"

namespace chainsplit {
namespace {

/// Adapts a Session to the epoll engine's per-connection handler.
class SessionHandler : public LineHandler {
 public:
  SessionHandler(QueryService* service, const SessionOptions& options)
      : session_(service, options) {}

  std::string Greeting() override { return "% chainsplit ready\n.\n"; }

  bool HandleLine(const std::string& line, std::string* out) override {
    return session_.HandleLine(line, out);
  }

 private:
  Session session_;
};

}  // namespace

TcpServer::TcpServer(QueryService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

TcpServer::~TcpServer() { Stop(); }

StatusOr<int> TcpServer::Start(int port) {
  CS_ASSIGN_OR_RETURN(
      int listen_fd,
      OpenListenSocket(options_.listen_addr, port, options_.listen_backlog));
  StatusOr<int> bound = BoundPort(listen_fd);
  if (!bound.ok()) {
    ::close(listen_fd);
    return bound.status();
  }
  port_ = *bound;

  SessionOptions session_options;
  session_options.tcp_mode = true;
  session_options.cancel = &shutdown_;
  session_options.net = &counters_;
  EngineOptions engine_options;
  engine_options.queue_capacity = options_.queue_capacity;
  engine_options.workers = options_.workers;
  engine_options.max_line_bytes = options_.max_line_bytes;
  engine_ = std::make_unique<EpollEngine>(
      [service = service_, session_options] {
        return std::make_unique<SessionHandler>(service, session_options);
      },
      engine_options, &counters_);
  Status status = engine_->Start(listen_fd);
  if (!status.ok()) {
    engine_.reset();  // the engine closed listen_fd on the way out
    return status;
  }
  RegisterMetrics();
  return port_;
}

void TcpServer::RegisterMetrics() {
  MetricsRegistry* registry = service_->metrics();
  const std::string port = StrCat(port_);
  auto add = [&](const char* name, const char* help, MetricType type,
                 const std::atomic<int64_t>* value, MetricLabels labels) {
    labels.emplace_back("port", port);
    metric_callbacks_.push_back(
        registry->AddCallback(name, help, type, std::move(labels), [value] {
          return static_cast<double>(
              value->load(std::memory_order_relaxed));
        }));
  };
  add("csdd_net_accepted_total", "Connections accepted",
      MetricType::kCounter, &counters_.accepted, {});
  add("csdd_net_active_connections", "Currently open connections",
      MetricType::kGauge, &counters_.active_connections, {});
  add("csdd_net_dispatched_total",
      "Request lines handed to the dispatcher pool", MetricType::kCounter,
      &counters_.dispatched, {});
  add("csdd_net_responses_total", "Completed responses written back",
      MetricType::kCounter, &counters_.responses, {});
  add("csdd_net_bytes_total", "Bytes over the wire by direction",
      MetricType::kCounter, &counters_.bytes_in, {{"direction", "in"}});
  add("csdd_net_bytes_total", "Bytes over the wire by direction",
      MetricType::kCounter, &counters_.bytes_out, {{"direction", "out"}});
  add("csdd_net_queue_depth", "Requests in the bounded queue right now",
      MetricType::kGauge, &counters_.queue_depth, {});
  add("csdd_net_queue_high_watermark", "Deepest the queue has ever been",
      MetricType::kGauge, &counters_.queue_high_watermark, {});
  // Admission-control rejections join the service's per-outcome request
  // family: summing csdd_requests_total over every outcome (including
  // these) equals the request lines the front end accepted off the
  // wire, so service- and net-level totals reconcile.
  const char* outcome_help =
      "Service requests by outcome (the TCP server adds "
      "rejected_overload/rejected_oversize series to this family)";
  add("csdd_requests_total", outcome_help, MetricType::kCounter,
      &counters_.rejected_overload, {{"outcome", "rejected_overload"}});
  add("csdd_requests_total", outcome_help, MetricType::kCounter,
      &counters_.rejected_oversize, {{"outcome", "rejected_oversize"}});
}

void TcpServer::UnregisterMetrics() {
  for (uint64_t id : metric_callbacks_) {
    service_->metrics()->RemoveCallback(id);
  }
  metric_callbacks_.clear();
}

void TcpServer::Stop() {
  shutdown_.Cancel();
  // Drop the registry callbacks first: after Stop nothing may read
  // counters_ through the service's registry. Idempotent (the id list
  // is cleared).
  UnregisterMetrics();
  // Workers drain their in-flight (now cancelled) requests, then the
  // loop exits and every connection fd is reclaimed.
  if (engine_ != nullptr) engine_->Stop();
}

}  // namespace chainsplit
