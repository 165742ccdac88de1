#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// One closed span: a named interval on the steady clock, the span that
/// caused it (0 = root) and the request it belongs to.
struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span buffer. Spans are recorded only in the benchmark's own
/// code, around calls into the library's public functions; nothing inside
/// the library is instrumented. A disabled tracer records nothing and
/// reads no clock, so untraced runs pay one branch per span site.
///
/// Thread-safety: Record/Scope may be used from any thread. Nesting is
/// tracked per thread: a Scope's parent is the innermost Scope still open
/// on the same thread (cross-thread causality is passed explicitly).
class Tracer {
 public:
  explicit Tracer(bool enabled, size_t max_spans = 4'000'000)
      : enabled_(enabled), max_spans_(max_spans) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  static int64_t NowNs();

  /// A fresh span id (also used as a request id).
  uint64_t NewId();

  /// Records a span whose bounds the caller measured (cross-thread spans);
  /// the caller assigns its id (NewId) so children can name it as parent.
  void Record(const SpanRecord& span);

  /// RAII span on the calling thread.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint64_t id() const { return record_.id; }

   private:
    Tracer* tracer_;  // null when tracing is off
    SpanRecord record_;
  };

  /// Spans recorded so far, in completion order.
  std::vector<SpanRecord> Spans() const;
  /// Spans dropped because the buffer was full.
  size_t dropped() const;

  /// Writes every span as a JSON array of
  /// {name, id, parent, request, start_ns, end_ns}.
  sparqlsim::util::Status WriteJson(const std::string& path) const;

  /// Mean cost of one enabled Scope (open + close + record), measured on a
  /// private tracer — the tracing overhead per span.
  static double CalibrateSpanSeconds();

 private:
  const bool enabled_;
  const size_t max_spans_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  size_t dropped_ = 0;             // guarded by mutex_
  uint64_t next_id_ = 1;           // guarded by mutex_
};

/// Per span name: how many, total duration, and self time (duration minus
/// the part of the interval its child spans cover).
struct LayerTotals {
  size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
};

std::map<std::string, LayerTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
