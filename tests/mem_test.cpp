// Unit tests for the hot-path memory subsystem (src/mem/): SlabPool /
// TypedSlab block recycling, BlockCache hand-back across threads, Arena
// bump allocation and reset, FlatMap open-addressing semantics and
// determinism; the allocation tracker's per-thread counts (obs/memory.hpp)
// across joins, thread teardown and the peak bound — plus, under ASan builds,
// death tests proving that use-after-release of slab/arena memory faults
// (the free lists are poisoned, so stale pointers behave like a heap
// use-after-free instead of silently reading recycled state).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <malloc.h>
#endif

#include "mem/arena.hpp"
#include "mem/flat_table.hpp"
#include "mem/slab.hpp"
#include "obs/memory.hpp"

namespace dyncdn::mem {
namespace {

TEST(SlabPool, RecyclesBlocksLifo) {
  SlabPool pool(32, /*blocks_per_chunk=*/4);
  void* a = pool.allocate();
  void* b = pool.allocate();
  EXPECT_NE(a, b);
  pool.deallocate(b);
  pool.deallocate(a);
  // LIFO free list: the most recently released block comes back first.
  EXPECT_EQ(pool.allocate(), a);
  EXPECT_EQ(pool.allocate(), b);
  pool.deallocate(a);
  pool.deallocate(b);
}

TEST(SlabPool, HandsOutAscendingAddressesWithinAChunk) {
  SlabPool pool(64, /*blocks_per_chunk=*/8);
  void* prev = pool.allocate();
  std::vector<void*> owned{prev};
  for (int i = 1; i < 8; ++i) {
    void* p = pool.allocate();
    EXPECT_LT(prev, p);
    EXPECT_EQ(static_cast<std::byte*>(p) - static_cast<std::byte*>(prev),
              static_cast<std::ptrdiff_t>(pool.block_size()));
    prev = p;
    owned.push_back(p);
  }
  EXPECT_EQ(pool.chunk_count(), 1u);
  void* ninth = pool.allocate();  // forces a second chunk
  owned.push_back(ninth);
  EXPECT_EQ(pool.chunk_count(), 2u);
  for (void* p : owned) {
    EXPECT_TRUE(pool.owns(p));
    pool.deallocate(p);
  }
}

TEST(SlabPool, RoundsBlockSizeUpToMaxAlign) {
  SlabPool pool(1);
  EXPECT_GE(pool.block_size(), alignof(std::max_align_t));
  EXPECT_EQ(pool.block_size() % alignof(std::max_align_t), 0u);
}

// Blocks released on another thread go back to the home of the cache that
// carved them, at most two batches at a time while that thread runs and
// the rest when it exits; the carving cache reuses them before it carves
// another chunk.
TEST(BlockCache, BlocksGoHomeToTheCacheThatCarvedThem) {
  BlockCache carver(64, /*batch=*/4);
  std::vector<void*> blocks;
  for (int i = 0; i < 20; ++i) blocks.push_back(carver.allocate());
  EXPECT_EQ(carver.free_count(), 0u);  // five whole chunks handed out
  std::thread([&blocks] {
    BlockCache releaser(64, /*batch=*/4);
    for (void* p : blocks) {
      releaser.deallocate(p);
      EXPECT_LE(releaser.free_count(), 8u);
    }
  }).join();
  std::set<void*> again;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    again.insert(carver.allocate());
  }
  EXPECT_EQ(again, std::set<void*>(blocks.begin(), blocks.end()));
  for (void* p : again) carver.deallocate(p);
}

TEST(TypedSlab, RunsConstructorAndDestructor) {
  struct Probe {
    explicit Probe(int* counter) : counter_(counter) { ++*counter_; }
    ~Probe() { --*counter_; }
    int* counter_;
  };
  int live = 0;
  TypedSlab<Probe> slab(/*blocks_per_chunk=*/4);
  Probe* a = slab.create(&live);
  Probe* b = slab.create(&live);
  EXPECT_EQ(live, 2);
  slab.destroy(a);
  EXPECT_EQ(live, 1);
  slab.destroy(b);
  EXPECT_EQ(live, 0);
  slab.destroy(nullptr);  // no-op
  // The released blocks are back on the free list for reuse.
  EXPECT_EQ(slab.free_count(), 4u);
}

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena(/*chunk_bytes=*/512);
  auto* a = static_cast<std::byte*>(arena.allocate(100));
  auto* b = static_cast<std::byte*>(arena.allocate(100));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % alignof(std::max_align_t),
            0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(std::max_align_t),
            0u);
  EXPECT_TRUE(b >= a + 100 || a >= b + 100);
  std::memset(a, 0xAA, 100);
  std::memset(b, 0xBB, 100);
  EXPECT_EQ(a[99], std::byte{0xAA});  // neighbours don't overlap
  EXPECT_EQ(arena.bytes_allocated(), 200u);
}

TEST(Arena, CopyPreservesBytesAndAcceptsEmpty) {
  Arena arena;
  const std::string src = "boundary probe pending bytes";
  const void* copied = arena.copy(src.data(), src.size());
  EXPECT_EQ(std::memcmp(copied, src.data(), src.size()), 0);
  EXPECT_NE(arena.copy(nullptr, 0), nullptr);  // zero-size copy is valid
}

TEST(Arena, ResetRetainsChunkStorage) {
  Arena arena(/*chunk_bytes=*/256);
  for (int i = 0; i < 64; ++i) arena.allocate(64);
  const std::size_t chunks = arena.chunk_count();
  EXPECT_GT(chunks, 1u);
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // A second identical cycle reuses the retained chunks: no growth.
  for (int i = 0; i < 64; ++i) arena.allocate(64);
  EXPECT_EQ(arena.chunk_count(), chunks);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk) {
  Arena arena(/*chunk_bytes=*/256);
  auto* big = static_cast<std::byte*>(arena.allocate(10000));
  std::memset(big, 0x5A, 10000);  // the whole span must be addressable
  EXPECT_EQ(big[9999], std::byte{0x5A});
}

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint64_t, int> map;
  EXPECT_EQ(map.find(7), nullptr);
  auto [v, inserted] = map.try_emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 70);
  auto [v2, inserted2] = map.try_emplace(7, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 70);  // existing value untouched
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.erase(7));
  EXPECT_FALSE(map.erase(7));
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(FlatMap, SurvivesRehashAndTombstoneChurn) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  // Insert/erase churn forces both growth rehashes and tombstone reuse.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    map.try_emplace(i, i * 3);
    if (i % 3 == 0) map.erase(i / 2);
  }
  std::size_t expected = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    // Key i was erased iff some j % 3 == 0 with j / 2 == i ran, i.e. one
    // of {2i, 2i+1} is divisible by 3 and lies inside the loop range.
    const bool gone = ((2 * i) % 3 == 0 && 2 * i < 1000) ||
                      ((2 * i + 1) % 3 == 0 && 2 * i + 1 < 1000);
    const std::uint64_t* v = map.find(i);
    if (gone) {
      EXPECT_EQ(v, nullptr) << "key " << i;
    } else {
      ASSERT_NE(v, nullptr) << "key " << i;
      EXPECT_EQ(*v, i * 3);
      ++expected;
    }
  }
  EXPECT_EQ(map.size(), expected);
}

TEST(FlatMap, IdenticalOperationHistoryYieldsIdenticalIteration) {
  // Determinism contract: no per-process salt, so two maps fed the same
  // operations traverse in the same slot order. PDES replay relies on this.
  const auto build = [] {
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t i = 0; i < 200; ++i) m.try_emplace(i * 7919, 1);
    for (std::uint64_t i = 0; i < 200; i += 3) m.erase(i * 7919);
    std::vector<std::uint64_t> order;
    m.for_each([&order](std::uint64_t k, int) { order.push_back(k); });
    return order;
  };
  EXPECT_EQ(build(), build());
}

// ---- Allocation tracker (obs/memory.hpp) --------------------------------
//
// Each thread folds its counts into the totals in batches. Between the
// snapshots below a test allocates only through ::operator new, into
// storage reserved before the first snapshot, so every count it expects is
// exact; a thread's own start-up allocations are measured by an identical
// run that allocates nothing.

constexpr int kTrackerThreads = 4;

bool tracker_counts() {
#if defined(__linux__)
  return obs::memory_tracking_enabled();
#else
  return false;
#endif
}

std::uint64_t usable(void* p) {
#if defined(__linux__)
  return malloc_usable_size(p);
#else
  (void)p;
  return 0;
#endif
}

struct TrackerDelta {
  std::int64_t allocations = 0;
  std::int64_t frees = 0;
  std::int64_t live_bytes = 0;
};

TrackerDelta tracker_delta(const obs::MemorySnapshot& before,
                           const obs::MemorySnapshot& after) {
  return {static_cast<std::int64_t>(after.allocations - before.allocations),
          static_cast<std::int64_t>(after.frees - before.frees),
          static_cast<std::int64_t>(after.live_bytes - before.live_bytes)};
}

/// Thread i allocates `per_thread` blocks of mixed sizes (enough to fold
/// on the byte threshold and on the operation count) and frees half of
/// them; after a join, thread i frees the other half of thread (i+1)'s.
TrackerDelta allocate_here_free_there(std::size_t per_thread) {
  std::vector<std::vector<void*>> blocks(kTrackerThreads,
                                         std::vector<void*>(per_thread));
  const obs::MemorySnapshot before = obs::memory_snapshot();
  const auto run_all = [](auto body) {
    std::array<std::thread, kTrackerThreads> pool;
    for (int i = 0; i < kTrackerThreads; ++i) pool[i] = std::thread(body, i);
    for (std::thread& t : pool) t.join();
  };
  run_all([&blocks, per_thread](int i) {
    std::vector<void*>& mine = blocks[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < per_thread; ++k) {
      mine[k] = ::operator new(16 + (k * 37) % 700);
    }
    for (std::size_t k = 0; k < per_thread; k += 2) ::operator delete(mine[k]);
  });
  run_all([&blocks, per_thread](int i) {
    std::vector<void*>& theirs =
        blocks[static_cast<std::size_t>((i + 1) % kTrackerThreads)];
    for (std::size_t k = 1; k < per_thread; k += 2) {
      ::operator delete(theirs[k]);
    }
  });
  return tracker_delta(before, obs::memory_snapshot());
}

TEST(AllocationTracker, CountsAreExactAfterThreadsJoin) {
  if (!tracker_counts()) GTEST_SKIP() << "allocation tracking compiled out";
  const TrackerDelta idle = allocate_here_free_there(0);
  constexpr std::size_t kPerThread = 10000;
  const TrackerDelta busy = allocate_here_free_there(kPerThread);
  const std::int64_t blocks = kTrackerThreads * kPerThread;
  EXPECT_EQ(busy.allocations - idle.allocations, blocks);
  EXPECT_EQ(busy.frees - idle.frees, blocks);
  EXPECT_EQ(idle.live_bytes, 0);
  EXPECT_EQ(busy.live_bytes, 0);
}

/// Constructed before its thread's first allocation, so it is destroyed
/// after the tracker's exit fold: what it frees and allocates then must
/// reach the totals directly.
struct TeardownAllocator {
  void* held = nullptr;
  ~TeardownAllocator() {
    ::operator delete(held);
    ::operator delete(::operator new(5000));
  }
};

TEST(AllocationTracker, TeardownAllocationsStillBalance) {
  if (!tracker_counts()) GTEST_SKIP() << "allocation tracking compiled out";
  const obs::MemorySnapshot before = obs::memory_snapshot();
  std::thread([] {
    thread_local TeardownAllocator late;
    late.held = ::operator new(3000);
    for (int i = 0; i < 100; ++i) ::operator delete(::operator new(100));
  }).join();
  const TrackerDelta d = tracker_delta(before, obs::memory_snapshot());
  EXPECT_EQ(d.live_bytes, 0);
  EXPECT_EQ(d.allocations, d.frees);
  EXPECT_GE(d.allocations, 102);
}

TEST(AllocationTracker, PeakIsExactOnOneThread) {
  if (!tracker_counts()) GTEST_SKIP() << "allocation tracking compiled out";
  // About 2.5 fold thresholds of blocks, then a partial release and a
  // smaller second rise, so the peak falls between two folds.
  std::array<void*, 600> blocks{};
  obs::reset_peak_live_bytes();
  const obs::MemorySnapshot before = obs::memory_snapshot();
  std::uint64_t live = 0;
  std::uint64_t peak = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    blocks[i] = ::operator new(1000 + (i * 53) % 1200);
    live += usable(blocks[i]);
    peak = std::max(peak, live);
  }
  for (std::size_t i = 0; i < 400; i += 3) {
    live -= usable(blocks[i]);
    ::operator delete(blocks[i]);
  }
  for (std::size_t i = 400; i < blocks.size(); ++i) {
    blocks[i] = ::operator new(900);
    live += usable(blocks[i]);
    peak = std::max(peak, live);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i >= 400 || i % 3 != 0) ::operator delete(blocks[i]);
  }
  const obs::MemorySnapshot after = obs::memory_snapshot();
  EXPECT_GT(peak, 2u * obs::kMemoryFoldBytes);
  EXPECT_EQ(after.peak_live_bytes, before.live_bytes + peak);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
}

TEST(AllocationTracker, FreshThreadPeakStartsFromTheLiveTotal) {
  if (!tracker_counts()) GTEST_SKIP() << "allocation tracking compiled out";
  // The main thread holds a megabyte; a new thread's allocations, below
  // one fold threshold, stack on top of it.
  void* held = ::operator new(1 << 20);
  obs::reset_peak_live_bytes();
  const obs::MemorySnapshot before = obs::memory_snapshot();
  std::uint64_t added = 0;
  std::thread([&added] {
    std::array<void*, 50> blocks{};
    for (void*& b : blocks) {
      b = ::operator new(2000);
      added += usable(b);
    }
    for (void* b : blocks) ::operator delete(b);
  }).join();
  const obs::MemorySnapshot after = obs::memory_snapshot();
  ::operator delete(held);
  ASSERT_LT(added, static_cast<std::uint64_t>(obs::kMemoryFoldBytes));
  EXPECT_GE(after.peak_live_bytes, before.live_bytes + added);
  // Only the thread's own start-up allocations may add to that.
  EXPECT_LE(after.peak_live_bytes, before.live_bytes + added + 4096);
}

TEST(AllocationTracker, PeakOfFourThreadsIsWithinTheStatedBound) {
  if (!tracker_counts()) GTEST_SKIP() << "allocation tracking compiled out";
  constexpr std::size_t kBlocks = 128;  // of 16 KiB: 2 MiB per thread
  std::vector<std::array<void*, kBlocks>> blocks(kTrackerThreads);
  std::array<std::uint64_t, kTrackerThreads> held{};
  std::atomic<int> holding{0};
  obs::reset_peak_live_bytes();
  const obs::MemorySnapshot before = obs::memory_snapshot();
  std::array<std::thread, kTrackerThreads> pool;
  for (int i = 0; i < kTrackerThreads; ++i) {
    pool[static_cast<std::size_t>(i)] = std::thread([&, i] {
      const auto n = static_cast<std::size_t>(i);
      for (void*& b : blocks[n]) {
        b = ::operator new(16 << 10);
        held[n] += usable(b);
      }
      holding.fetch_add(1, std::memory_order_acq_rel);
      while (holding.load(std::memory_order_acquire) < kTrackerThreads) {
        std::this_thread::yield();
      }
      // All four hold their blocks now: one more allocation on each thread
      // sees every other thread's folded bytes.
      ::operator delete(::operator new(64));
      for (void* b : blocks[n]) ::operator delete(b);
    });
  }
  for (std::thread& t : pool) t.join();
  const obs::MemorySnapshot after = obs::memory_snapshot();
  std::uint64_t all_held = 0;
  for (std::uint64_t h : held) all_held += h;
  const std::uint64_t bound =
      (kTrackerThreads - 1) * static_cast<std::uint64_t>(obs::kMemoryFoldBytes);
  EXPECT_GE(after.peak_live_bytes + bound, before.live_bytes + all_held);
  // Never high: only the threads' own start-up allocations and the probes
  // add to what they held.
  EXPECT_LE(after.peak_live_bytes, before.live_bytes + all_held + 16384);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
}

#if DYNCDN_MEM_ASAN
// Use-after-release must fault, not silently read recycled memory. Death
// tests fork, so the ASan report in the child is the expected "death".
TEST(SlabPoolDeathTest, UseAfterReleaseFaultsUnderAsan) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SlabPool pool(64);
        auto* p = static_cast<volatile std::uint64_t*>(pool.allocate());
        *p = 42;
        pool.deallocate(const_cast<std::uint64_t*>(p));
        (void)*p;  // poisoned: ASan aborts here
      },
      "use-after-poison");
}

TEST(ArenaDeathTest, UseAfterResetFaultsUnderAsan) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Arena arena;
        auto* p = static_cast<volatile std::uint64_t*>(arena.allocate(8));
        *p = 42;
        arena.reset();
        (void)*p;  // previous cycle's bytes are poisoned
      },
      "use-after-poison");
}
#endif  // DYNCDN_MEM_ASAN

}  // namespace
}  // namespace dyncdn::mem
