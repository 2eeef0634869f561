// In-memory span recording and the sample statistics the benchmark
// reports.
//
// A span marks one call from benchmark code into a flor layer: a name
// ("session.record", "env.write", ...), start and end on the steady clock,
// the span that was open on the same thread when it began (its parent),
// and a request id shared by every span of one benchmark operation. Spans
// stay in memory until the run ends; SelfTimes() then charges each span's
// duration minus the part of it that its children cover to the span's
// name. A span begun on a thread with no open span (a background worker's
// filesystem call, say) is a root span.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Seconds on the steady clock.
double Now();

struct Span {
  std::string name;
  double start = 0;
  double end = 0;  ///< 0 while the span is open
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 for a root span
  int64_t request = 0;
};

/// Thread-safe span store. Recording is off until set_enabled(true), so one
/// recorder can serve an untraced and a traced phase of the same run.
class SpanRecorder {
 public:
  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  /// Opens a span on the calling thread and returns its id, or -1 when
  /// recording is off. The parent is the innermost span this recorder has
  /// open on the thread; the request id is the parent's, else the thread's
  /// current request (RequestScope).
  int64_t Begin(const std::string& name);
  /// Closes span `id` (a no-op for -1). Spans close in LIFO order per
  /// thread.
  void End(int64_t id);

  std::vector<Span> Spans() const;
  void Clear();

  /// Writes every span as a tab-separated line:
  /// id, parent, request, name, start, end (seconds, relative to the first
  /// span's start).
  flor::Status WriteTsv(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // indexed by id
};

/// RAII span; inert when `rec` is null or recording is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int64_t id_;
};

/// Tags the root spans the calling thread opens while in scope with
/// `request` (restores the previous tag on exit).
class RequestScope {
 public:
  explicit RequestScope(int64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  int64_t saved_;
};

/// Per-name totals derived from closed spans.
struct SpanTotals {
  double self_seconds = 0;   ///< duration minus child-covered time
  int64_t count = 0;
};

/// Self time by span name. A span's self time is its duration minus the
/// union of its children's intervals clipped to the span (children may
/// nest or overlap each other). Open spans are ignored.
std::map<std::string, SpanTotals> SelfTimes(const std::vector<Span>& spans);

/// Median (mean of the middle pair for even counts); error when empty.
flor::Result<double> Median(std::vector<double> samples);

/// Nearest-rank percentile `p` in (0.5, 1). Refused unless at least ten
/// samples lie beyond it, so a tail figure always rests on real tail
/// samples.
flor::Result<double> TailPercentile(std::vector<double> samples, double p);

/// Minimum sample count for TailPercentile(p) to succeed.
size_t MinSamplesForTail(double p);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
