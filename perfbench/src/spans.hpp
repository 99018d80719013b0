// Host-time spans recorded by the benchmark around its own calls
// into the library. Spans stay in memory until the run ends; the per-layer
// report is derived from them (self time = duration minus the part of the
// interval covered by child spans).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  const char* name = "";  // string literal
  double start_s = 0;     // seconds since the recorder's epoch
  double end_s = 0;
  std::int64_t id = 0;
  std::int64_t parent = kNoParent;
  std::uint32_t campaign = 0;
  std::uint32_t thread = 0;  // small per-process thread index

  double duration_s() const { return end_s - start_s; }
};

/// Thread-safe span store. Spans are appended when they end.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  double now_s() const;
  std::int64_t next_id() { return next_id_.fetch_add(1); }
  void record(const Span& span);
  /// Spans recorded so far; call only while no span is open.
  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as a Chrome trace-event JSON file (one "X" event per
  /// span; pid = campaign, tid = thread). Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::int64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Records one span over its lifetime.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::int64_t parent,
             std::uint32_t campaign);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return span_.id; }

 private:
  SpanRecorder& recorder_;
  Span span_;
};

/// Per-campaign span totals.
struct CampaignSpans {
  std::map<std::string, double> self_s;   // summed self time by span name
  std::map<std::string, double> total_s;  // summed duration by span name
};

/// Self and total times of every span of `campaign`.
CampaignSpans summarize(const std::vector<Span>& spans, std::uint32_t campaign);

}  // namespace perfbench
