#include "net/listen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace chainsplit {

StatusOr<int> OpenListenSocket(const std::string& addr, int port,
                               int backlog) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1) {
    return InvalidArgumentError(
        StrCat("listen address '", addr, "' is not an IPv4 address"));
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    Status status = InternalError(
        StrCat("bind ", addr, ":", port, ": ", std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) < 0) {
    Status status = InternalError(StrCat("listen: ", std::strerror(errno)));
    ::close(fd);
    return status;
  }
  return fd;
}

StatusOr<int> BoundPort(int listen_fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&sa), &len) < 0) {
    return InternalError(StrCat("getsockname: ", std::strerror(errno)));
  }
  return static_cast<int>(ntohs(sa.sin_port));
}

int AcceptConnection(int listen_fd) {
  int fd = ::accept4(listen_fd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return InternalError(StrCat("fcntl O_NONBLOCK: ", std::strerror(errno)));
  }
  return Status::Ok();
}

}  // namespace chainsplit
