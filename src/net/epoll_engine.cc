#include "net/epoll_engine.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "net/listen.h"

namespace chainsplit {

namespace {
/// Registration key of the listening socket (conn ids start at 1).
constexpr uint64_t kListenKey = 0;

ssize_t SendSome(int fd, const char* data, size_t n) {
  return ::send(fd, data, n,
#ifdef MSG_NOSIGNAL
                MSG_NOSIGNAL
#else
                0
#endif
  );
}
}  // namespace

EpollEngine::EpollEngine(LineHandlerFactory factory, EngineOptions options,
                         NetCounters* counters)
    : factory_(std::move(factory)),
      options_(options),
      counters_(counters),
      queue_(options.queue_capacity, counters) {}

EpollEngine::~EpollEngine() { Stop(); }

Status EpollEngine::Start(int listen_fd) {
  listen_fd_ = listen_fd;
  CS_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  CS_RETURN_IF_ERROR(loop_.Init());
  CS_RETURN_IF_ERROR(loop_.Add(listen_fd_, EPOLLIN, kListenKey));

  int workers = options_.workers;
  if (workers <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    workers = static_cast<int>(hw < 2 ? 2 : hw);
  }
  counters_->mode = "epoll";
  counters_->workers = workers;
  counters_->queue_capacity =
      static_cast<int64_t>(options_.queue_capacity);

  loop_thread_ = std::thread(
      [this] { loop_.Run([this](uint64_t k, uint32_t e) { OnEvent(k, e); }); });
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  started_ = true;
  return Status::Ok();
}

void EpollEngine::WorkerMain() {
  Request request;
  while (queue_.Pop(&request)) {
    std::string out;
    bool keep_open = request.handler->HandleLine(request.line, &out);
    uint64_t id = request.conn_id;
    loop_.Post([this, id, response = std::move(out), keep_open]() mutable {
      OnCompletion(id, std::move(response), keep_open);
    });
  }
}

void EpollEngine::OnEvent(uint64_t key, uint32_t events) {
  if (key == kListenKey) {
    Accept();
    return;
  }
  auto it = conns_.find(key);
  if (it == conns_.end()) return;  // closed before this event drained
  Conn* conn = it->second.get();
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    CloseConn(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    FlushConn(conn);
    auto again = conns_.find(key);
    if (again == conns_.end()) return;  // flush completed a close
  }
  if ((events & EPOLLIN) != 0) {
    ReadConn(conn);
  }
}

void EpollEngine::Accept() {
  while (true) {
    int fd = AcceptConnection(listen_fd_);
    if (fd < 0) {
      // EAGAIN: drained. EMFILE/ENFILE & friends: retry on the next
      // listen-ready event rather than spinning.
      return;
    }
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(options_.max_line_bytes);
    conn->id = id;
    conn->fd = fd;
    conn->handler = factory_();
    conn->write_buf = conn->handler->Greeting();
    counters_->accepted.fetch_add(1, std::memory_order_relaxed);
    counters_->active_connections.fetch_add(1, std::memory_order_relaxed);
    Conn* raw = conn.get();
    conns_.try_emplace(id, std::move(conn));
    if (!loop_.Add(fd, 0, id).ok()) {
      CloseConn(raw);
      continue;
    }
    // Send the greeting; FlushConn ends by registering the interest
    // mask (or closes the connection on a hard send error).
    FlushConn(raw);
  }
}

void EpollEngine::UpdateInterest(Conn* conn) {
  if (conn->dead) return;
  uint32_t want = 0;
  // Backpressure: while a line is in flight (or the connection is
  // draining toward close) the loop does not read this socket.
  if (!conn->in_flight && !conn->closing) want |= EPOLLIN;
  if (conn->write_off < conn->write_buf.size()) want |= EPOLLOUT;
  if (want == conn->armed) return;
  if (loop_.Mod(conn->fd, want, conn->id).ok()) conn->armed = want;
}

void EpollEngine::ReadConn(Conn* conn) {
  char chunk[16384];
  while (!conn->closing && !conn->dead) {
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      counters_->bytes_in.fetch_add(n, std::memory_order_relaxed);
      conn->framer.Append(chunk, static_cast<size_t>(n));
      PumpConn(conn);
      // A dispatched line disarms EPOLLIN; stop pulling bytes too.
      if (conn->in_flight) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // Peer closed (or hard error). Anything still buffered can never
    // complete into a response the peer would read.
    CloseConn(conn);
    return;
  }
  UpdateInterest(conn);
  FlushConn(conn);
}

void EpollEngine::PumpConn(Conn* conn) {
  std::string line;
  while (!conn->in_flight && !conn->closing) {
    LineFramer::Result result = conn->framer.Next(&line);
    if (result == LineFramer::Result::kNeedMore) return;
    if (result == LineFramer::Result::kOversize) {
      counters_->rejected_oversize.fetch_add(1, std::memory_order_relaxed);
      counters_->responses.fetch_add(1, std::memory_order_relaxed);
      conn->write_buf += OversizeFrame(conn->framer.max_line_bytes());
      conn->closing = true;
      return;
    }
    Request request;
    request.conn_id = conn->id;
    request.handler = conn->handler.get();
    request.line = std::move(line);
    if (queue_.TryPush(std::move(request))) {
      counters_->dispatched.fetch_add(1, std::memory_order_relaxed);
      conn->in_flight = true;
      return;
    }
    // Admission control: the queue is full. Answer this line with an
    // overload frame right away and keep the connection alive — the
    // client sees a deliberate rejection, not a stalled or dropped
    // connection.
    counters_->rejected_overload.fetch_add(1, std::memory_order_relaxed);
    counters_->responses.fetch_add(1, std::memory_order_relaxed);
    conn->write_buf += OverloadFrame();
  }
}

void EpollEngine::FlushConn(Conn* conn) {
  if (conn->dead) return;
  while (conn->write_off < conn->write_buf.size()) {
    ssize_t n = SendSome(conn->fd, conn->write_buf.data() + conn->write_off,
                         conn->write_buf.size() - conn->write_off);
    if (n > 0) {
      counters_->bytes_out.fetch_add(n, std::memory_order_relaxed);
      conn->write_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateInterest(conn);  // arm EPOLLOUT for the remainder
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn);  // peer gone mid-response
    return;
  }
  conn->write_buf.clear();
  conn->write_off = 0;
  if (conn->closing && !conn->in_flight) {
    CloseConn(conn);
    return;
  }
  UpdateInterest(conn);
}

void EpollEngine::CloseConn(Conn* conn) {
  if (!conn->dead) {
    loop_.Del(conn->fd);
    ::close(conn->fd);
    conn->fd = -1;
    conn->dead = true;
    counters_->active_connections.fetch_sub(1, std::memory_order_relaxed);
  }
  // The handler (and the Conn holding it) must survive an in-flight
  // HandleLine; OnCompletion performs the deferred destruction.
  if (!conn->in_flight) conns_.erase(conn->id);
}

void EpollEngine::OnCompletion(uint64_t conn_id, std::string out,
                               bool keep_open) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  conn->in_flight = false;
  if (conn->dead) {
    conns_.erase(it);
    return;
  }
  counters_->responses.fetch_add(1, std::memory_order_relaxed);
  conn->write_buf += out;
  if (!keep_open) conn->closing = true;
  FlushConn(conn);
  auto again = conns_.find(conn_id);
  if (again == conns_.end()) return;  // flush closed it
  if (!conn->closing) {
    PumpConn(conn);
    // Flush any overload frames the pump appended; this also re-arms
    // EPOLLIN now that the connection is idle (or leaves it disarmed
    // when the pump dispatched the next buffered line).
    FlushConn(conn);
  }
}

void EpollEngine::Stop() {
  if (stopped_.exchange(true)) return;
  if (started_) {
    // Order: starve the workers, then the loop, then reclaim fds. An
    // in-flight HandleLine finishes first (cancel tokens make that
    // prompt); its completion Post lands in the mailbox and is dropped
    // when the loop exits. Connections (and the handlers inside them)
    // are destroyed only after both joins, so no worker can be touching
    // one.
    queue_.Stop();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    loop_.Quit();
    if (loop_thread_.joinable()) loop_thread_.join();
  }
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  counters_->active_connections.store(0, std::memory_order_relaxed);
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace chainsplit
