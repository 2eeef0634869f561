#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

/// Spans open on this thread, innermost last, tagged with their recorder.
thread_local std::vector<std::pair<const SpanRecorder*, int64_t>> open_spans;
thread_local int64_t current_request = 0;

size_t NearestRank(double p, size_t n) {
  const double k = std::ceil(p * static_cast<double>(n) - 1e-9);
  return static_cast<size_t>(std::max(1.0, k));
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanRecorder::Begin(const std::string& name) {
  if (!enabled()) return -1;
  Span span;
  span.name = name;
  span.request = current_request;
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this) {
      span.parent = it->second;
      break;
    }
  }
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (span.parent >= 0)
      span.request = spans_[static_cast<size_t>(span.parent)].request;
    id = static_cast<int64_t>(spans_.size());
    span.id = id;
    span.start = Now();
    spans_.push_back(std::move(span));
  }
  open_spans.emplace_back(this, id);
  return id;
}

void SpanRecorder::End(int64_t id) {
  if (id < 0) return;
  const double end = Now();
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this && it->second == id) {
      open_spans.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

flor::Status SpanRecorder::WriteTsv(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return flor::Status::IOError("cannot write " + path);
  const double t0 = spans.empty() ? 0 : spans.front().start;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_s\tend_s\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%lld\t%lld\t%lld\t%s\t%.9f\t%.9f\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name.c_str(),
                 s.start - t0, s.end > 0 ? s.end - t0 : -1.0);
  }
  return std::fclose(f) == 0 ? flor::Status::OK()
                             : flor::Status::IOError("short write " + path);
}

RequestScope::RequestScope(int64_t request) : saved_(current_request) {
  current_request = request;
}

RequestScope::~RequestScope() { current_request = saved_; }

std::map<std::string, SpanTotals> SelfTimes(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end > 0)
      children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    if (s.end <= 0) continue;
    double covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0, cur_hi = -1;
      for (const auto& [lo_raw, hi_raw] : iv) {
        const double lo = std::max(lo_raw, s.start);
        const double hi = std::min(hi_raw, s.end);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    SpanTotals& t = out[s.name];
    t.self_seconds += (s.end - s.start) - covered;
    ++t.count;
  }
  return out;
}

flor::Result<double> Median(std::vector<double> samples) {
  if (samples.empty())
    return flor::Status::InvalidArgument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

size_t MinSamplesForTail(double p) {
  size_t n = 1;
  while (n - NearestRank(p, n) < 10) ++n;
  return n;
}

flor::Result<double> TailPercentile(std::vector<double> samples, double p) {
  if (!(p > 0.5 && p < 1))
    return flor::Status::InvalidArgument("tail percentile must be in (0.5, 1)");
  const size_t n = samples.size();
  const size_t rank = NearestRank(p, std::max<size_t>(n, 1));
  if (n < rank || n - rank < 10) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "p%g needs %zu samples (10 beyond it), have %zu", p * 100,
                  MinSamplesForTail(p), n);
    return flor::Status::FailedPrecondition(buf);
  }
  std::sort(samples.begin(), samples.end());
  return samples[rank - 1];
}

}  // namespace perfbench
