#ifndef CHAINSPLIT_SERVICE_SESSION_H_
#define CHAINSPLIT_SERVICE_SESSION_H_

#include <string>

#include "net/net_counters.h"
#include "service/query_service.h"

namespace chainsplit {

/// One client session over a QueryService: the line protocol shared by
/// the csdd REPL and the TCP server (docs/service.md has the grammar).
///
/// Input is line oriented. A line starting with ':' is a command;
/// anything else accumulates into a clause buffer until a line ends
/// with '.', at which point the buffered statement(s) are executed
/// (queries run, facts/rules are added). Output is appended to the
/// caller-supplied string; in TCP mode each handled input additionally
/// ends with a lone "." terminator line so clients can frame
/// responses.
struct SessionOptions {
  /// Frame every response with a trailing "." line (TCP protocol).
  bool tcp_mode = false;
  bool show_plan = false;
  bool show_stats = false;
  /// Chained into every request (the TCP server passes its shutdown
  /// token so Stop() cancels in-flight evaluations).
  const CancelToken* cancel = nullptr;
  /// Front-end telemetry rendered by `:net`; the TCP server wires its
  /// counters in, the plain REPL has none.
  const NetCounters* net = nullptr;
};

class Session {
 public:
  Session(QueryService* service, SessionOptions options = {});

  /// Handles one input line, appending any response text to `*out`.
  /// Returns false when the session asked to end (:quit).
  bool HandleLine(const std::string& line, std::string* out);

  /// True while a multi-line clause is buffered (REPL shows a
  /// continuation prompt).
  bool has_pending() const { return !pending_.empty(); }

  /// Number of failed statements/commands so far (parse errors,
  /// evaluation errors, unopenable files); batch mode exits nonzero
  /// when this is > 0.
  int error_count() const { return error_count_; }

  static const char* HelpText();

 private:
  bool HandleCommand(const std::string& line, std::string* out);
  void Consume(const std::string& text, std::string* out);
  void AppendQueryResponse(const QueryResponse& response, std::string* out);
  void Finish(std::string* out);

  QueryService* service_;
  SessionOptions options_;
  RequestOptions request_;
  std::string pending_;
  int error_count_ = 0;
};

}  // namespace chainsplit

#endif  // CHAINSPLIT_SERVICE_SESSION_H_
