#ifndef CHAINSPLIT_OBS_TRACE_H_
#define CHAINSPLIT_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace chainsplit {

/// Trace — the span tree of one query evaluation (docs/
/// observability.md §Traces).
///
/// A Trace is created per request by the query service and threaded by
/// pointer through the planner and the evaluators, riding the same
/// options seam as CancelToken. Every instrumentation site takes a
/// nullable Trace*: a null pointer means tracing is off and the whole
/// site reduces to one branch — the hot paths stay unaffected unless a
/// trace was requested (`:trace on` or an armed slow-query log).
///
/// A Trace is confined to the evaluating thread (one query evaluates
/// on one thread), so it needs no synchronization.
///
/// Storage is tuned so recording stays invisible next to evaluation:
/// spans and attributes are flat PODs held inline in the Trace object
/// (first kInlineSpans spans; kMaxAttrs attributes per span), so a
/// typical query trace does no heap allocation at all while the query
/// runs. That matters beyond the allocation cost itself: a per-query
/// heap block living across the whole evaluation measurably slowed the
/// *evaluator's* own allocation reuse (~5 us/query on glibc). Long
/// fixpoints spill extra spans into a vector; attribute overflow
/// beyond kMaxAttrs is dropped (sites use at most 5).
class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  /// First spans stored inline (no heap); more spill to a vector.
  static constexpr int kInlineSpans = 24;
  /// Attributes per span; SetAttr beyond this is dropped.
  static constexpr int kMaxAttrs = 6;

  explicit Trace(std::string name);

  /// Opens a span as a child of the innermost still-open span (the
  /// root when none). Returns the span id for EndSpan/attributes.
  /// `name` must outlive the Trace — every site passes a string
  /// literal; storing the pointer keeps span open/close to a couple of
  /// clock reads and a POD store (no per-span string allocation).
  int BeginSpan(const char* name);
  void EndSpan(int id);

  /// Attaches an attribute to a span; rendered into the Chrome trace
  /// "args" object. `key` and string `value` must outlive the Trace —
  /// every site passes literals or *ToString statics.
  void SetAttr(int id, const char* key, int64_t value);
  void SetAttr(int id, const char* key, const char* value);

  /// Closes the root span. Idempotent; called by the service when the
  /// request finishes (also closes any spans left open by an error
  /// unwind).
  void Finish();

  /// Wall time of the root span so far (or final once finished).
  std::chrono::microseconds duration() const;

  /// The trace as a Chrome trace_event JSON object
  /// ({"traceEvents": [...]}, "X" complete events, microsecond
  /// timestamps) — loadable in chrome://tracing / Perfetto.
  std::string ToChromeJson() const;

  int num_spans() const { return num_spans_; }

 private:
  struct Attr {
    const char* key = "";
    const char* string_value = nullptr;  // null = int attribute
    int64_t int_value = 0;
  };
  struct Span {
    const char* name = "";  // static-lifetime; the root uses root_name_
    int parent = -1;
    int num_attrs = 0;
    int64_t start_us = 0;
    int64_t end_us = -1;  // -1 = still open
    Attr attrs[kMaxAttrs];
  };

  int64_t NowUs() const;
  Span& span(int id) {
    return id < kInlineSpans ? inline_spans_[id]
                             : extra_spans_[id - kInlineSpans];
  }
  const Span& span(int id) const {
    return id < kInlineSpans ? inline_spans_[id]
                             : extra_spans_[id - kInlineSpans];
  }

  Clock::time_point t0_;
  std::string root_name_;  // the root span's (dynamic) name
  int num_spans_ = 0;
  Span inline_spans_[kInlineSpans];
  std::vector<Span> extra_spans_;  // spans_[kInlineSpans:]
  std::vector<int> open_;  // innermost-last stack of open span ids
};

/// RAII span: opens on construction, closes on destruction. All
/// methods are no-ops when `trace` is null, so instrumentation sites
/// cost one pointer test when tracing is off.
class TraceSpan {
 public:
  TraceSpan(Trace* trace, const char* name)
      : trace_(trace),
        id_(trace == nullptr ? -1 : trace->BeginSpan(name)) {}
  ~TraceSpan() { End(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void Attr(const char* key, int64_t value) {
    if (trace_ != nullptr) trace_->SetAttr(id_, key, value);
  }
  void Attr(const char* key, const char* value) {
    if (trace_ != nullptr) trace_->SetAttr(id_, key, value);
  }

  /// Closes the span before scope exit (e.g. to exclude trailing work).
  /// Further Attr/End calls become no-ops.
  void End() {
    if (trace_ != nullptr) {
      trace_->EndSpan(id_);
      trace_ = nullptr;
    }
  }

  Trace* trace() const { return trace_; }

 private:
  Trace* trace_;
  int id_;
};

/// Escapes `text` for embedding in a JSON string literal (quotes,
/// backslashes, control characters). Shared by the trace renderer and
/// the session's structured-output mode.
std::string JsonEscape(std::string_view text);

}  // namespace chainsplit

#endif  // CHAINSPLIT_OBS_TRACE_H_
