// Deterministic parallel replica execution.
//
// The paper's campaigns are embarrassingly parallel: hundreds of vantage
// points, sweep points and bench repetitions, each an independent
// simulation. The ReplicaExecutor runs such replicas on a fixed set of
// worker threads. Each worker owns a contiguous block of the replica index
// space and claims from it first; once its block is empty it claims from
// the other workers' blocks, so uneven replica costs (loss sweeps, cold vs
// warm caches) never leave workers idle while one drains a long tail. A
// block is a ClaimRange: one atomic counter, so owner and thieves contend
// only on a relaxed fetch_add.
//
// Determinism is preserved because scheduling only decides *where* a
// replica runs, never *what it computes*: replica i's body sees only its
// own index and seed, and its result lands at slot i regardless of which
// worker ran it or in what order. The merged output stays bit-identical at
// any thread count — the equivalence tests in tests/parallel_test.cpp and
// tests/streaming_test.cpp hold at 1, 2 and 4 threads.
//
// Seeding: replica_seed(base, i) gives every replica its own independent,
// stable RNG universe. It is a SplitMix64-style hash, so neighbouring
// indices produce statistically unrelated streams.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace dyncdn::parallel {

/// Stable per-replica seed: hash of (base_seed, replica_index).
/// Same inputs always give the same seed, on every platform.
std::uint64_t replica_seed(std::uint64_t base_seed,
                           std::uint64_t replica_index);

/// A range of task indices [next, end) that any thread may claim from —
/// the one scheduling primitive of both parallel layers. A claim is one
/// relaxed fetch_add: the index it returns belongs to the caller alone,
/// and a value >= end means the range is empty (for good — nothing refills
/// it while threads claim). Claims order nothing else; results are
/// published by whatever joins the claimers (thread join, barrier), and
/// reset() runs only while no thread is claiming.
class ClaimRange {
 public:
  void reset(std::size_t begin, std::size_t end) {
    next_.store(begin, std::memory_order_relaxed);
    end_ = end;
  }
  bool claim(std::size_t& out) {
    out = next_.fetch_add(1, std::memory_order_relaxed);
    return out < end_;
  }

 private:
  std::atomic<std::size_t> next_{0};
  std::size_t end_ = 0;
};

struct ExecutorConfig {
  /// Worker count. 0 = use DYNCDN_THREADS if it is a positive integer
  /// (sim::parse_number; other values are ignored), else
  /// std::thread::hardware_concurrency().
  std::size_t threads = 0;
};

/// Thread count an ExecutorConfig resolves to (env var / hardware probe
/// applied, floor of 1).
std::size_t resolve_threads(const ExecutorConfig& config);

/// Scheduling counters from the most recent run() (not part of the result
/// contract — purely observability).
struct ExecutorStats {
  std::uint64_t tasks = 0;    // replicas run
  std::uint64_t steals = 0;   // replicas claimed from another worker's block
  std::size_t workers = 0;    // threads actually spawned (1 = inline)
  // Per-worker breakdowns (index = worker id) for the telemetry layer;
  // the inline path reports one pseudo-worker. Wall-clock free, but the
  // split across workers is scheduling-dependent — runtime telemetry
  // only, never part of the deterministic result contract.
  std::vector<std::uint64_t> tasks_by_worker;
  std::vector<std::uint64_t> steals_by_worker;
};

class ReplicaExecutor {
 public:
  explicit ReplicaExecutor(ExecutorConfig config = {})
      : threads_(resolve_threads(config)) {}

  std::size_t threads() const { return threads_; }
  const ExecutorStats& last_stats() const { return stats_; }

  /// Run fn(0) .. fn(count-1), returning results in index order. With one
  /// thread (or one replica) everything runs inline on the caller — the
  /// serial path is literally the same code. Exceptions propagate: the
  /// lowest-index replica's exception is rethrown after all workers join.
  template <class Fn>
  auto run(std::size_t count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(!std::is_void_v<R>,
                  "ReplicaExecutor::run requires a result per replica");

    std::vector<std::optional<R>> slots(count);
    const std::size_t workers = std::min(threads_, count);
    stats_ = ExecutorStats{};
    stats_.tasks = count;
    stats_.workers = workers > 0 ? workers : 1;

    if (workers <= 1) {
      for (std::size_t i = 0; i < count; ++i) slots[i].emplace(fn(i));
      stats_.tasks_by_worker.assign(1, count);
      stats_.steals_by_worker.assign(1, 0);
    } else {
      std::vector<std::exception_ptr> errors(count);
      std::vector<std::uint64_t> tasks_by_worker(workers, 0);
      std::vector<std::uint64_t> steals_by_worker(workers, 0);
      // Worker w owns the contiguous block [w*count/workers,
      // (w+1)*count/workers); the thread fork publishes the resets.
      std::vector<ClaimRange> blocks(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        blocks[w].reset(w * count / workers, (w + 1) * count / workers);
      }

      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&, w]() {
          std::uint64_t my_tasks = 0;
          std::uint64_t my_steals = 0;
          // Own block first, then the others in (w + k) % workers order.
          // An empty block stays empty, so after one sweep every block
          // has been drained and the worker exits.
          for (std::size_t k = 0; k < workers; ++k) {
            ClaimRange& block = blocks[(w + k) % workers];
            std::size_t i = 0;
            while (block.claim(i)) {
              try {
                slots[i].emplace(fn(i));
              } catch (...) {
                errors[i] = std::current_exception();
              }
              ++my_tasks;
              if (k > 0) ++my_steals;
            }
          }
          // Single writer per index; join() publishes to the coordinator.
          tasks_by_worker[w] = my_tasks;
          steals_by_worker[w] = my_steals;
        });
      }
      for (std::thread& t : pool) t.join();
      for (const std::uint64_t s : steals_by_worker) stats_.steals += s;
      stats_.tasks_by_worker = std::move(tasks_by_worker);
      stats_.steals_by_worker = std::move(steals_by_worker);
      for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    }

    std::vector<R> out;
    out.reserve(count);
    for (std::optional<R>& s : slots) out.push_back(std::move(*s));
    return out;
  }

 private:
  std::size_t threads_;
  ExecutorStats stats_;
};

}  // namespace dyncdn::parallel
