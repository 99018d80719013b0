#include "obs/memory.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#if defined(__linux__)
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

#ifndef DYNCDN_MEM_TRACK
#define DYNCDN_MEM_TRACK 1
#endif

namespace dyncdn::obs {

namespace {

// The shared totals. Threads fold into them in batches (see ThreadCounts),
// so they are written a few times per thousand allocations, not on each.
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

#if DYNCDN_MEM_TRACK

inline std::size_t usable_size(void* p) {
#if defined(__linux__)
  return malloc_usable_size(p);
#else
  (void)p;
  return 0;
#endif
}

/// A thread's pending live bytes stay within [0, kMemoryFoldBytes]: an
/// allocation that takes them above folds, and so does a free that takes
/// them below zero. Each such fold leaves kFoldKeep pending (borrowed from
/// or lent to g_live), so a thread that allocates and frees in a steady
/// state folds about once per kFoldKeep bytes of drift either way.
constexpr std::int64_t kFoldKeep = kMemoryFoldBytes / 2;
/// Counts fold at least this often, so a long-running thread's
/// allocations show up in the totals while it runs.
constexpr std::uint32_t kFoldOps = 4096;

enum : std::uint8_t { kFresh = 0, kActive = 1, kGone = 2 };

/// One thread's counts not yet folded into the totals. Trivially
/// destructible, so it can be read and written for the whole life of the
/// thread, including after ThreadExit (below) has run: from then on every
/// new and delete goes straight to the totals.
struct ThreadCounts {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  /// Live bytes of this thread not yet in g_live. True live bytes are
  /// g_live plus every thread's pending, and each pending is >= 0, so
  /// g_live + this thread's pending never exceeds the truth.
  std::int64_t pending = 0;
  /// Highest g_live + pending this thread has seen; published to g_peak
  /// at each fold.
  std::int64_t peak = 0;
  std::uint32_t ops = 0;
  std::uint8_t state = kFresh;
};

constinit thread_local ThreadCounts t_counts;

void publish_peak(std::int64_t candidate) {
  if (candidate <= 0) return;
  const auto value = static_cast<std::uint64_t>(candidate);
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (value > peak && !g_peak.compare_exchange_weak(
                             peak, value, std::memory_order_relaxed)) {
  }
}

/// Move the thread's counts into the totals, leaving `keep` bytes pending.
void fold(ThreadCounts& t, std::int64_t keep) {
  if (t.allocs != 0) g_allocs.fetch_add(t.allocs, std::memory_order_relaxed);
  if (t.frees != 0) g_frees.fetch_add(t.frees, std::memory_order_relaxed);
  // Unsigned wrap-around is intended: with other threads' pending bytes
  // lent out, g_live alone may dip below zero for a while.
  g_live.fetch_add(static_cast<std::uint64_t>(t.pending - keep),
                   std::memory_order_relaxed);
  t.allocs = 0;
  t.frees = 0;
  t.pending = keep;
  t.ops = 0;
  publish_peak(t.peak);
}

/// Folds everything at thread exit and switches the thread to the totals.
struct ThreadExit {
  bool armed = false;
  ~ThreadExit() {
    fold(t_counts, 0);
    t_counts.state = kGone;
  }
};

thread_local ThreadExit t_exit;

std::int64_t live_estimate(const ThreadCounts& t) {
  return static_cast<std::int64_t>(g_live.load(std::memory_order_relaxed)) +
         t.pending;
}

/// The slow path: a fresh thread registers its exit fold (glibc allocates
/// that registration with malloc, not operator new, so this cannot recurse),
/// and a thread past its exit fold uses the totals directly.
[[gnu::noinline]] bool thread_counts_usable(ThreadCounts& t) {
  if (t.state == kGone) return false;
  t.state = kActive;
  t_exit.armed = true;
  return true;
}

inline void note_alloc(std::size_t bytes) {
  ThreadCounts& t = t_counts;
  if (t.state != kActive && !thread_counts_usable(t)) [[unlikely]] {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t live =
        g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    publish_peak(static_cast<std::int64_t>(live));
    return;
  }
  ++t.allocs;
  t.pending += static_cast<std::int64_t>(bytes);
  const std::int64_t estimate = live_estimate(t);
  if (estimate > t.peak) t.peak = estimate;
  if (++t.ops >= kFoldOps || t.pending > kMemoryFoldBytes) [[unlikely]] {
    fold(t, kFoldKeep);
  }
}

inline void note_free(std::size_t bytes) {
  ThreadCounts& t = t_counts;
  if (t.state != kActive && !thread_counts_usable(t)) [[unlikely]] {
    g_frees.fetch_add(1, std::memory_order_relaxed);
    g_live.fetch_sub(bytes, std::memory_order_relaxed);
    return;
  }
  ++t.frees;
  t.pending -= static_cast<std::int64_t>(bytes);
  if (++t.ops >= kFoldOps || t.pending < 0) [[unlikely]] fold(t, kFoldKeep);
}

/// Fold all of the calling thread's pending counts (snapshot and reset).
void fold_caller() {
  ThreadCounts& t = t_counts;
  if (t.state == kActive) fold(t, 0);
}

void* tracked_alloc(std::size_t size) {
  void* p = std::malloc(size);
  if (p != nullptr) note_alloc(usable_size(p));
  return p;
}

void* tracked_aligned_alloc(std::size_t size, std::size_t alignment) {
  void* p = nullptr;
#if defined(__linux__)
  if (posix_memalign(&p, alignment, size) != 0) p = nullptr;
#else
  p = std::aligned_alloc(alignment, size);
#endif
  if (p != nullptr) note_alloc(usable_size(p));
  return p;
}

void tracked_free(void* p) {
  if (p == nullptr) return;
  note_free(usable_size(p));
  std::free(p);
}

#endif  // DYNCDN_MEM_TRACK

}  // namespace

MemorySnapshot memory_snapshot() {
#if DYNCDN_MEM_TRACK
  fold_caller();
#endif
  MemorySnapshot s;
  s.live_bytes = g_live.load(std::memory_order_relaxed);
  s.peak_live_bytes = g_peak.load(std::memory_order_relaxed);
  s.allocations = g_allocs.load(std::memory_order_relaxed);
  s.frees = g_frees.load(std::memory_order_relaxed);
  return s;
}

void reset_peak_live_bytes() {
#if DYNCDN_MEM_TRACK
  fold_caller();
  t_counts.peak = 0;
#endif
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

bool memory_tracking_enabled() {
#if DYNCDN_MEM_TRACK
  return true;
#else
  return false;
#endif
}

std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
#else
  return 0;
#endif
}

std::uint64_t current_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

}  // namespace dyncdn::obs

#if DYNCDN_MEM_TRACK

// Global allocation hooks. Each form funnels into the tracker above; sizes
// are measured via malloc_usable_size at both ends, so new/delete pairs
// balance exactly even when the sized-delete hint differs from the usable
// size.
void* operator new(std::size_t size) {
  void* p = dyncdn::obs::tracked_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = dyncdn::obs::tracked_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return dyncdn::obs::tracked_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return dyncdn::obs::tracked_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* p = dyncdn::obs::tracked_aligned_alloc(
      size, static_cast<std::size_t>(alignment));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  void* p = dyncdn::obs::tracked_aligned_alloc(
      size, static_cast<std::size_t>(alignment));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { dyncdn::obs::tracked_free(p); }
void operator delete[](void* p) noexcept { dyncdn::obs::tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  dyncdn::obs::tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  dyncdn::obs::tracked_free(p);
}

#endif  // DYNCDN_MEM_TRACK
