#ifndef CHAINSPLIT_NET_LISTEN_H_
#define CHAINSPLIT_NET_LISTEN_H_

#include <string>

#include "common/status.h"

namespace chainsplit {

/// Opens an IPv4 listening socket bound to `addr`:`port` (dotted quad;
/// port 0 picks an ephemeral port) with the given accept backlog.
/// Returns the listening fd; the caller owns it.
StatusOr<int> OpenListenSocket(const std::string& addr, int port,
                               int backlog);

/// The locally bound port of a listening socket (after an ephemeral
/// bind).
StatusOr<int> BoundPort(int listen_fd);

/// Accepts one pending connection on `listen_fd` as a non-blocking,
/// close-on-exec socket with TCP_NODELAY set, so a response is sent as
/// soon as it is written instead of waiting out Nagle's algorithm
/// behind the client's delayed ACK. Returns the new fd, or -1 with
/// errno set as by accept4 (EAGAIN once the backlog is drained).
int AcceptConnection(int listen_fd);

/// Sets O_NONBLOCK on `fd`.
Status SetNonBlocking(int fd);

}  // namespace chainsplit

#endif  // CHAINSPLIT_NET_LISTEN_H_
