#ifndef CHAINSPLIT_NET_FRAME_H_
#define CHAINSPLIT_NET_FRAME_H_

#include <cstddef>
#include <string>

namespace chainsplit {

/// Splits a TCP byte stream into protocol lines, enforcing a maximum
/// request-line size: CRLF stripping, pipelined segments and oversize
/// rejection for the epoll engine, kept apart from its socket handling
/// so net_frame_test can drive it byte by byte.
///
/// Draining is amortized linear: Next() walks a read offset through
/// the buffer and compacts once per Append, never erase-per-line (a
/// pipelined client can put hundreds of lines in one segment).
class LineFramer {
 public:
  /// `max_line_bytes` bounds one request line (terminator excluded);
  /// 0 means unlimited.
  explicit LineFramer(size_t max_line_bytes = 0)
      : max_line_bytes_(max_line_bytes) {}

  /// Appends raw bytes received from the socket.
  void Append(const char* data, size_t n);

  enum class Result {
    kLine,      // *line holds the next complete line (no \n, no \r)
    kNeedMore,  // no complete line buffered; read more
    kOversize,  // line limit exceeded — reject and close the connection
  };

  /// Extracts the next complete line. After kOversize the framer is
  /// poisoned: every further call returns kOversize (the stream has no
  /// recoverable framing).
  Result Next(std::string* line);

  /// Bytes currently buffered and not yet returned as lines.
  size_t buffered_bytes() const { return buffer_.size() - start_; }

  size_t max_line_bytes() const { return max_line_bytes_; }

 private:
  std::string buffer_;
  size_t start_ = 0;
  size_t max_line_bytes_;
  bool poisoned_ = false;
};

/// The error frame written before closing an oversize-line connection.
std::string OversizeFrame(size_t max_line_bytes);

/// The admission-control rejection frame: written when the bounded
/// request queue is full; the connection stays open.
inline const char* OverloadFrame() { return "% overloaded\n.\n"; }

}  // namespace chainsplit

#endif  // CHAINSPLIT_NET_FRAME_H_
