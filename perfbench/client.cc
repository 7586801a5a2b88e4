#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ServerProcess::~ServerProcess() {
  std::string ignored;
  Stop(&ignored);
}

bool ServerProcess::Start(const std::vector<std::string>& argv,
                          std::string* error) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // The server dies with the harness, so no run leaves one behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int devnull = open("/dev/null", O_RDONLY);
    if (devnull < 0 || dup2(devnull, 0) < 0 || dup2(fds[1], 1) < 0) _exit(127);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  output_.clear();

  std::string pending;
  const int64_t deadline = NowNs() + int64_t{150} * 1000000000;
  while (true) {
    size_t newline;
    while ((newline = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, newline);
      pending.erase(0, newline + 1);
      output_ += line + "\n";
      static const char kServing[] = "% serving on port ";
      if (line.rfind(kServing, 0) == 0) {
        port_ = std::atoi(line.c_str() + sizeof(kServing) - 1);
        if (port_ > 0) return true;
      }
    }
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0) {
      *error = "timed out waiting for the server to serve:\n" + output_;
      return false;
    }
    pollfd p{out_fd_, POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left_ms)) < 0 && errno != EINTR) {
      *error = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    char buf[4096];
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) {
      *error = "server exited before serving:\n" + output_ + pending;
      return false;
    }
    pending.append(buf, static_cast<size_t>(n));
  }
}

int64_t ServerProcess::PeakRssKb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return -1;
}

bool ServerProcess::Stop(std::string* error) {
  if (pid_ <= 0) return true;
  kill(pid_, SIGTERM);
  // Drain stdout to EOF so the shutdown messages never block on a full
  // pipe.
  const int64_t deadline = NowNs() + int64_t{30} * 1000000000;
  bool timed_out = false;
  while (true) {
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    pollfd p{out_fd_, POLLIN, 0};
    const int ready = left_ms > 0 ? poll(&p, 1, static_cast<int>(left_ms)) : 0;
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      timed_out = true;
      break;
    }
    char buf[4096];
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    output_.append(buf, static_cast<size_t>(n));
  }
  if (timed_out) kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  if (timed_out || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "server did not shut down cleanly:\n" + output_;
    return false;
  }
  return true;
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::Open(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  std::string banner;
  return ReadFrame(&banner);
}

bool Connection::Send(const std::string& line) {
  std::string data = line;
  data += '\n';
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = send(fd_, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool Connection::TakeFrame(std::string* body) {
  while (true) {
    const size_t newline = buffer_.find('\n', scanned_);
    if (newline == std::string::npos) {
      scanned_ = buffer_.size();
      return false;
    }
    if (newline == line_start_ + 1 && buffer_[line_start_] == '.') {
      body->assign(buffer_, 0, line_start_);
      buffer_.erase(0, newline + 1);
      line_start_ = 0;
      scanned_ = 0;
      return true;
    }
    line_start_ = newline + 1;
    scanned_ = newline + 1;
  }
}

// Linux clears TCP_QUICKACK as the connection settles into request-
// response traffic, so it is set again after every read. Without it the
// client delays its ACKs, and the Nagle-delayed tail of a response that
// spans several segments waits for the delayed ACK.
static void QuickAck(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

bool Connection::ReadFrame(std::string* body) {
  while (!TakeFrame(body)) {
    char buf[65536];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    QuickAck(fd_);
    buffer_.append(buf, static_cast<size_t>(n));
  }
  return true;
}

bool RunOps(Connection* conn, const std::vector<Op>& ops,
            std::vector<OpTiming>* timing,
            const std::function<void(size_t, const std::string&)>& on_response,
            std::string* error) {
  timing->assign(ops.size(), OpTiming{});
  std::string body;
  for (size_t i = 0; i < ops.size(); ++i) {
    OpTiming& t = (*timing)[i];
    t.sent_ns = NowNs();
    if (!conn->Send(ops[i].line)) {
      *error = "send failed";
      return false;
    }
    if (!conn->ReadFrame(&body)) {
      *error = "server closed the connection";
      return false;
    }
    t.received_ns = NowNs();
    on_response(i, body);
  }
  return true;
}

}  // namespace perfbench
