// Process-wide memory accounting for the campaign pipeline.
//
// Two complementary views:
//
//   * Allocation tracker — global operator new/delete replacements
//     (compiled when DYNCDN_MEM_TRACK=1, the default) count live bytes,
//     peak live bytes, allocations and frees. Byte sizes come from
//     malloc_usable_size, so the numbers reflect what the allocator
//     actually holds, not what was requested. reset_peak_live_bytes()
//     rebases the high-water mark to the current live size, which lets a
//     bench isolate the peak of one phase (e.g. one campaign) inside a
//     long-lived process where RSS is monotonic.
//
//   * OS view — peak/current RSS from getrusage / /proc, for whole-process
//     reporting in BENCH.json.
//
// The tracker counts per thread. Each thread keeps its allocations, frees
// and live-byte change in plain thread-owned fields and folds them into
// process-wide relaxed atomics only now and then: when its pending bytes
// leave [0, kMemoryFoldBytes], every few thousand operations, and when the
// thread exits, so threads do not contend for one cache line on every
// new and delete (docs/PERF.md "Memory accounting"). memory_snapshot() and
// reset_peak_live_bytes() fold the calling thread's pending counts first.
// A new or delete that runs after its thread's exit fold (a thread_local
// destructor that frees, say) goes straight to the atomics. So:
//
//   * allocations, frees and live_bytes are exact whenever no other thread
//     is running: on one thread, or after every other thread has joined;
//   * peak_live_bytes is exact on one thread. With N threads alive it may
//     read low, by at most (N-1) * kMemoryFoldBytes (the other threads'
//     pending bytes), and never high;
//   * while other threads run, the counts lag by their pending batches.
//
// Its numbers are NOT deterministic across thread counts (allocation
// interleaving moves the peak), so they belong in bench reports and CLI
// summaries — never in the merged experiment registries whose exports are
// compared byte-identical across thread counts. For deterministic
// accounting of the dominant campaign consumers, see
// capture::PacketTrace::retained_bytes() and
// analysis::StreamingAnalyzer::peak_live_bytes(), surfaced through
// testbed::Scenario::collect_memory_metrics().
#pragma once

#include <cstdint>

namespace dyncdn::obs {

/// A thread's live bytes not yet folded into the totals stay within
/// [0, kMemoryFoldBytes]; this bounds how low the peak can read (above).
inline constexpr std::int64_t kMemoryFoldBytes = 256 << 10;

struct MemorySnapshot {
  std::uint64_t live_bytes = 0;       // currently allocated via new
  std::uint64_t peak_live_bytes = 0;  // high-water mark since last reset
  std::uint64_t allocations = 0;      // cumulative operator-new calls
  std::uint64_t frees = 0;            // cumulative operator-delete calls
};

/// Current tracker counters, after folding the calling thread's pending
/// counts. All zeros when tracking is compiled out.
MemorySnapshot memory_snapshot();

/// Rebase the live-bytes high-water mark to the current live size. Call it
/// while no other thread allocates: a thread that is running keeps the
/// high-water mark it saw before the reset and publishes it at its next
/// fold.
void reset_peak_live_bytes();

/// True when the allocation tracker was compiled in (DYNCDN_MEM_TRACK=1).
bool memory_tracking_enabled();

/// Process peak resident set size (VmHWM), bytes. 0 if unavailable.
std::uint64_t peak_rss_bytes();

/// Process current resident set size, bytes. 0 if unavailable.
std::uint64_t current_rss_bytes();

}  // namespace dyncdn::obs
