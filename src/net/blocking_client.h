#ifndef CHAINSPLIT_NET_BLOCKING_CLIENT_H_
#define CHAINSPLIT_NET_BLOCKING_CLIENT_H_

#include <string>

namespace chainsplit {

/// A minimal blocking client for the "."-framed line protocol, shared
/// by the server tests and the network benches. Not part of the
/// serving path.
class BlockingClient {
 public:
  BlockingClient() = default;
  /// Connects to `addr`:`port` (IPv4 dotted quad).
  BlockingClient(const std::string& addr, int port) { Connect(addr, port); }
  ~BlockingClient() { Close(); }
  BlockingClient(BlockingClient&& other) noexcept;
  BlockingClient& operator=(BlockingClient&& other) noexcept;
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  bool Connect(const std::string& addr, int port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Hard-closes with an RST (SO_LINGER zero) — exercises the server's
  /// failed-send paths.
  void Abort();

  /// Sends raw bytes; false on any short write.
  bool Send(const std::string& data);

  /// Reads until the lone "." terminator line; returns the frame body
  /// without it. Empty string on disconnect.
  std::string ReadFrame();

  /// Reads every byte until the peer closes (for transcript tests).
  std::string ReadUntilClose();

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_NET_BLOCKING_CLIENT_H_
