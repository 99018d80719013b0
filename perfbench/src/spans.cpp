#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Length of the union of `intervals` clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

double SpanRecorder::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void SpanRecorder::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
                 "\"args\":{\"id\":%lld,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, s.start_s * 1e6,
                 s.duration_s() * 1e6, s.campaign, s.thread,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, const char* name,
                       std::int64_t parent, std::uint32_t campaign)
    : recorder_(recorder) {
  span_.name = name;
  span_.id = recorder.next_id();
  span_.parent = parent;
  span_.campaign = campaign;
  span_.thread = thread_index();
  span_.start_s = recorder.now_s();
}

ScopedSpan::~ScopedSpan() {
  span_.end_s = recorder_.now_s();
  recorder_.record(span_);
}

CampaignSpans summarize(const std::vector<Span>& spans,
                        std::uint32_t campaign) {
  std::unordered_map<std::int64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.campaign == campaign && s.parent != kNoParent) {
      children[s.parent].emplace_back(s.start_s, s.end_s);
    }
  }
  CampaignSpans out;
  for (const Span& s : spans) {
    if (s.campaign != campaign) continue;
    double self = s.duration_s();
    if (const auto it = children.find(s.id); it != children.end()) {
      self -= covered(it->second, s.start_s, s.end_s);
    }
    out.self_s[s.name] += self;
    out.total_s[s.name] += s.duration_s();
  }
  return out;
}

}  // namespace perfbench
