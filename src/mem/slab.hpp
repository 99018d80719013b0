// Fixed-size block allocators for hot-path simulation state.
//
// A SlabPool hands out fixed-size blocks from a free list refilled in
// chunks, so steady-state acquire/release is a vector pop/push instead of
// a heap round trip. A SlabPool owns its chunks and frees them when it is
// destroyed; it is NOT thread-safe, so it serves state with one owner
// (a TcpStack's sockets, an analyzer's timelines) that is touched by one
// thread between barriers and dies with its owner.
//
// Blocks that outlive the thread that acquired them, or are released on
// another one, need a different owner: a packet is acquired on the
// sender's shard and released on the receiver's, and a shard worker's
// thread exits at the end of every windowed run while the scenario (and
// its packets) lives on. Those blocks come from a thread_local BlockCache:
// a lock-free free list whose chunks belong to a BlockHome, the thread's
// share of that block size. A block released on another thread goes back
// to its home in batches; a home outlives its thread until all of its
// blocks are back, and only then frees its chunks. So a block stays valid
// while anyone holds it, a thread reuses the memory it carved itself, and
// a run's chunks are freed once the run's threads and blocks are gone.
//
// Only a home's own thread refills from it. While one block of an exited
// thread is still held (a retained capture buffer, say), every chunk of
// that thread's home stays allocated and its free blocks stay unused. So
// memory is bounded by each thread's own peak use plus two batches per
// cache, as with one pool per thread, and not by the peak live set: a
// scenario that runs many windows on fresh workers, and holds a block of
// each, keeps the chunks of each of those workers.
//
// Under AddressSanitizer (DYNCDN_SANITIZE builds) every free-listed block
// is poisoned, so use-after-release of slab state faults exactly like a
// heap use-after-free would.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DYNCDN_MEM_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define DYNCDN_MEM_ASAN 1
#endif

#ifndef DYNCDN_MEM_ASAN
#define DYNCDN_MEM_ASAN 0
#endif

#if DYNCDN_MEM_ASAN
#include <sanitizer/asan_interface.h>
#define DYNCDN_MEM_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define DYNCDN_MEM_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define DYNCDN_MEM_POISON(p, n) ((void)(p), (void)(n))
#define DYNCDN_MEM_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace dyncdn::mem {

/// Block sizes are rounded up to max_align_t alignment so any object that
/// fits can live in a block.
inline std::size_t round_up_block(std::size_t n) {
  const std::size_t a = alignof(std::max_align_t);
  return n < a ? a : (n + a - 1) / a * a;
}

class SlabPool {
 public:
  /// `block_size` is rounded up to max_align_t alignment so any object that
  /// fits can live in a block. `blocks_per_chunk` controls refill
  /// granularity: one heap allocation buys that many blocks.
  explicit SlabPool(std::size_t block_size, std::size_t blocks_per_chunk = 64)
      : block_size_(round_up_block(block_size)),
        blocks_per_chunk_(blocks_per_chunk == 0 ? 1 : blocks_per_chunk) {}

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() {
    for (void* chunk : chunks_) {
      DYNCDN_MEM_UNPOISON(chunk, chunk_bytes());
      ::operator delete(chunk);
    }
  }

  void* allocate() {
    if (free_.empty()) refill();
    void* p = free_.back();
    free_.pop_back();
    DYNCDN_MEM_UNPOISON(p, block_size_);
    return p;
  }

  void deallocate(void* p) {
    if (p == nullptr) return;
    DYNCDN_MEM_POISON(p, block_size_);
    free_.push_back(p);
  }

  std::size_t block_size() const { return block_size_; }
  std::size_t free_count() const { return free_.size(); }
  std::size_t chunk_count() const { return chunks_.size(); }

  /// Whether `p` lies inside one of this pool's chunks (tests only; O(chunks)).
  bool owns(const void* p) const {
    const auto* b = static_cast<const std::byte*>(p);
    for (void* chunk : chunks_) {
      const auto* c = static_cast<const std::byte*>(chunk);
      if (b >= c && b < c + chunk_bytes()) return true;
    }
    return false;
  }

 private:
  std::size_t chunk_bytes() const { return block_size_ * blocks_per_chunk_; }

  void refill() {
    auto* chunk = static_cast<std::byte*>(::operator new(chunk_bytes()));
    chunks_.push_back(chunk);
    free_.reserve(free_.size() + blocks_per_chunk_);
    // Push in reverse so the pool hands out blocks in ascending address
    // order — deterministic layout, friendlier prefetch.
    for (std::size_t i = blocks_per_chunk_; i-- > 0;) {
      std::byte* block = chunk + i * block_size_;
      DYNCDN_MEM_POISON(block, block_size_);
      free_.push_back(block);
    }
  }

  std::size_t block_size_;
  std::size_t blocks_per_chunk_;
  std::vector<void*> free_;   // external free list: never reads freed blocks
  std::vector<void*> chunks_;
};

/// One thread's share of one block size: the chunks its BlockCache carved,
/// and those of its blocks that other caches handed back. It outlives its
/// thread until every one of its blocks has come home; the last cache to
/// hand one back then frees the chunks and the home. It keeps the geometry
/// it carved with, so whichever cache frees it frees the right bytes.
struct BlockHome {
  BlockHome(std::size_t block_size, std::size_t batch)
      : block_size(block_size), batch(batch) {}

  const std::size_t block_size;  // bytes per block, header included
  const std::size_t batch;       // blocks per chunk
  std::mutex mu;
  std::vector<void*> returned;  // free blocks, back from any cache
  std::vector<std::byte*> chunks;
  bool orphaned = false;  // its thread has exited
};

/// One thread's free list of blocks of one size (see the header comment).
/// allocate/deallocate are a vector pop/push with no lock; a block may be
/// released on any thread's cache of the same object size and batch
/// (asserted). Every block starts with a header naming its BlockHome, so a
/// cache that holds more than two batches hands one batch back to the
/// homes of its blocks, and an empty cache refills from its own home
/// (everything handed back there) before it carves a chunk. Instances are
/// thread_local: destruction (thread exit) hands every block home and
/// orphans the thread's home.
class BlockCache {
 public:
  /// `batch` blocks per chunk, and per hand-back.
  BlockCache(std::size_t object_size, std::size_t batch)
      : block_size_(kHeader + round_up_block(object_size)),
        batch_(batch == 0 ? 1 : batch) {}

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  ~BlockCache() {
    if (!free_.empty()) hand_back(free_.size());
    if (home_ == nullptr) return;
    std::unique_lock<std::mutex> lock(home_->mu);
    home_->orphaned = true;
    release_if_done(home_, lock);
  }

  void* allocate() {
    if (free_.empty()) refill();
    std::byte* block = static_cast<std::byte*>(free_.back());
    free_.pop_back();
    DYNCDN_MEM_UNPOISON(block + kHeader, block_size_ - kHeader);
    return block + kHeader;
  }

  void deallocate(void* p) {
    if (p == nullptr) return;
    std::byte* block = static_cast<std::byte*>(p) - kHeader;
    assert(home_of(block)->block_size == block_size_ &&
           home_of(block)->batch == batch_);
    DYNCDN_MEM_POISON(p, block_size_ - kHeader);
    free_.push_back(block);
    if (free_.size() > 2 * batch_) hand_back(batch_);
  }

  std::size_t free_count() const { return free_.size(); }

  /// Hand one block straight to its home, bypassing any cache: for a
  /// release on a thread whose caches are already destroyed (a
  /// thread_local destructor that runs after them at thread exit).
  static void hand_home(void* p) {
    std::byte* block = static_cast<std::byte*>(p) - kHeader;
    BlockHome* home = home_of(block);
    DYNCDN_MEM_POISON(p, home->block_size - kHeader);
    std::unique_lock<std::mutex> lock(home->mu);
    home->returned.push_back(block);
    release_if_done(home, lock);
  }

 private:
  static constexpr std::size_t kHeader = alignof(std::max_align_t);

  static BlockHome*& home_of(void* block) {
    return *static_cast<BlockHome**>(block);
  }

  void refill() {
    if (home_ == nullptr) home_ = new BlockHome(block_size_, batch_);
    std::lock_guard<std::mutex> lock(home_->mu);
    if (!home_->returned.empty()) {
      free_.swap(home_->returned);
      return;
    }
    auto* chunk =
        static_cast<std::byte*>(::operator new(block_size_ * batch_));
    home_->chunks.push_back(chunk);
    // Reverse push, so the cache hands out ascending addresses.
    for (std::size_t i = batch_; i-- > 0;) {
      std::byte* block = chunk + i * block_size_;
      home_of(block) = home_;
      DYNCDN_MEM_POISON(block + kHeader, block_size_ - kHeader);
      free_.push_back(block);
    }
  }

  /// Hand the last `n` cached blocks to their homes, one lock per home.
  void hand_back(std::size_t n) {
    const auto first = free_.end() - static_cast<std::ptrdiff_t>(n);
    std::sort(first, free_.end(), [](void* a, void* b) {
      return std::less<BlockHome*>()(home_of(a), home_of(b));
    });
    for (auto it = first; it != free_.end();) {
      BlockHome* home = home_of(*it);
      auto end = it;
      while (end != free_.end() && home_of(*end) == home) ++end;
      std::unique_lock<std::mutex> lock(home->mu);
      home->returned.insert(home->returned.end(), it, end);
      it = end;
      release_if_done(home, lock);
    }
    free_.erase(first, free_.end());
  }

  /// Frees an orphaned home once all of its blocks are back: no cache or
  /// object can hold one of them any more.
  static void release_if_done(BlockHome* home,
                              std::unique_lock<std::mutex>& lock) {
    if (!home->orphaned ||
        home->returned.size() != home->chunks.size() * home->batch) {
      return;
    }
    for (std::byte* chunk : home->chunks) {
      DYNCDN_MEM_UNPOISON(chunk, home->block_size * home->batch);
      ::operator delete(chunk);
    }
    lock.unlock();
    delete home;
  }

  std::size_t block_size_;
  std::size_t batch_;
  BlockHome* home_ = nullptr;  // created on the first refill
  std::vector<void*> free_;    // external free list of whole blocks
};

/// Typed facade over SlabPool: placement-constructs T in a slab block and
/// destroys it on release. One instance per owning component (per-stack
/// socket slab, per-analyzer timeline slab, ...).
template <class T>
class TypedSlab {
 public:
  explicit TypedSlab(std::size_t blocks_per_chunk = 64)
      : pool_(sizeof(T), blocks_per_chunk) {}

  template <class... Args>
  T* create(Args&&... args) {
    void* p = pool_.allocate();
    try {
      return new (p) T(std::forward<Args>(args)...);
    } catch (...) {
      pool_.deallocate(p);
      throw;
    }
  }

  void destroy(T* p) {
    if (p == nullptr) return;
    p->~T();
    pool_.deallocate(p);
  }

  std::size_t free_count() const { return pool_.free_count(); }

 private:
  SlabPool pool_;
};

}  // namespace dyncdn::mem
