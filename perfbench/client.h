// The benchmark's side of the wire: a csdd server run as a child
// process, client connections speaking the "."-framed line protocol, and
// the closed loop that times requests over one of them.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// Monotonic clock, nanoseconds.
int64_t NowNs();

/// A csdd server started as a child process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv` (argv[0] = the csdd binary) with stdin on /dev/null
  /// and stdout on a pipe, and blocks until the server prints
  /// "% serving on port N" — readiness is read from its output, never
  /// found by polling the port.
  bool Start(const std::vector<std::string>& argv, std::string* error);
  int port() const { return port_; }
  /// Peak resident set (VmHWM) in KiB, or -1 when unreadable.
  int64_t PeakRssKb() const;
  /// SIGTERM, then waits for a graceful exit (SIGKILL after 30 s).
  /// False unless the server exited with status 0.
  bool Stop(std::string* error);

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  std::string output_;
};

/// One loopback client connection.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects to 127.0.0.1:`port` and consumes the ready banner.
  bool Open(int port);
  /// Sends `line` and a newline.
  bool Send(const std::string& line);
  /// Blocks until one whole response frame arrived; *body is the frame
  /// without its "." terminator line.
  bool ReadFrame(std::string* body);
  bool Request(const std::string& line, std::string* body) {
    return Send(line) && ReadFrame(body);
  }

 private:
  /// Moves the first complete frame out of the buffer, if there is one.
  bool TakeFrame(std::string* body);

  int fd_ = -1;
  std::string buffer_;
  size_t line_start_ = 0;  // start of the line being received
  size_t scanned_ = 0;     // bytes already searched for '\n'
};

/// Client-side times of one request.
struct OpTiming {
  int64_t sent_ns = 0;
  int64_t received_ns = 0;
};

/// Drives `ops` over `conn` as a closed loop: each request is sent as
/// soon as the previous response is complete. `on_response(i, body)`
/// runs after op i's arrival time is recorded.
bool RunOps(Connection* conn, const std::vector<Op>& ops,
            std::vector<OpTiming>* timing,
            const std::function<void(size_t, const std::string&)>& on_response,
            std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
