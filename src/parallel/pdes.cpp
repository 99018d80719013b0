#include "parallel/pdes.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/network.hpp"
#include "parallel/replica.hpp"

namespace dyncdn::parallel {

ShardRunner::ShardRunner(net::Network& network,
                         std::vector<sim::Simulator*> sims,
                         ShardRunnerConfig config)
    : network_(network), sims_(std::move(sims)) {
  if (sims_.empty()) {
    throw std::invalid_argument("ShardRunner: no shard simulators");
  }
  threads_ = std::min(resolve_threads(ExecutorConfig{config.threads}),
                      sims_.size());
}

void ShardRunner::run() { run_bounded(sim::SimTime::infinity()); }

void ShardRunner::run_until(sim::SimTime deadline) { run_bounded(deadline); }

void ShardRunner::run_bounded(sim::SimTime bound) {
  if (sims_.size() == 1) {
    // Single shard: literally the serial kernel loop.
    if (bound == sim::SimTime::infinity()) {
      sims_[0]->run();
    } else {
      sims_[0]->run_until(bound);
    }
    return;
  }

  // Routes must exist before workers touch the network concurrently.
  network_.prepare_run();
  // Packets transmitted outside any window — scenario construction, host
  // code running between runs — are staged in the mailboxes. Surface them
  // before the first window so their arrivals count toward tmin (all shard
  // clocks agree here, so every staged arrival is still in the future).
  stats_.cross_shard_packets += network_.flush_mailboxes();
  stats_.lookahead = network_.cross_shard_lookahead();
  if (stats_.lookahead == sim::SimTime::zero()) {
    run_serial_fallback(bound);
  } else {
    run_windowed(bound);
  }

  if (bound == sim::SimTime::infinity()) {
    // Match serial run(): final clock = time of the last executed event.
    sim::SimTime last = sim::SimTime::zero();
    for (sim::Simulator* s : sims_) last = std::max(last, s->now());
    align_clocks(last);
  } else {
    // Match serial run_until(): force-advance to the deadline.
    align_clocks(bound);
  }
}

void ShardRunner::align_clocks(sim::SimTime t) {
  for (sim::Simulator* s : sims_) {
    if (s->now() < t) s->align_clock(t);
  }
}

void ShardRunner::run_windowed(sim::SimTime bound) {
  const std::size_t n = sims_.size();
  const sim::SimTime lookahead = stats_.lookahead;
  // Exclusive upper bound on executable event times: events at exactly the
  // run_until deadline must still run.
  const sim::SimTime limit =
      bound == sim::SimTime::infinity()
          ? bound
          : bound + sim::SimTime::nanoseconds(1);
  const auto window_after = [&](sim::SimTime tmin) {
    // Infinite lookahead = independent shards: one window to the limit.
    if (lookahead == sim::SimTime::infinity()) return limit;
    return std::min(limit, tmin + lookahead);
  };

  sim::SimTime tmin = sim::SimTime::infinity();
  for (sim::Simulator* s : sims_) tmin = std::min(tmin, s->next_event_time());
  if (tmin >= limit) return;

  struct Shared {
    sim::SimTime window_end = sim::SimTime::zero();
    bool done = false;
  } shared;
  shared.window_end = window_after(tmin);

  // Each window's shard ids, claimable by any worker. Reset in the
  // exclusive completion step.
  ClaimRange shards;
  shards.reset(0, n);

  std::vector<std::uint64_t> executed(n, 0);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<bool> abort{false};

  // Runs exclusively while every worker is blocked in the barrier; the
  // barrier release publishes all writes to the workers.
  const auto on_completion = [&]() noexcept {
    ++stats_.windows;
    for (std::size_t s = 0; s < n; ++s) {
      if (executed[s] == 0) ++stats_.barrier_stalls;
      executed[s] = 0;
    }
    // Flush before computing the next window: a staged packet may be the
    // globally earliest pending event.
    stats_.cross_shard_packets += network_.flush_mailboxes();
    if (abort.load(std::memory_order_relaxed)) {
      shared.done = true;
      return;
    }
    sim::SimTime next = sim::SimTime::infinity();
    for (sim::Simulator* s : sims_) {
      next = std::min(next, s->next_event_time());
    }
    if (next >= limit) {
      shared.done = true;
      return;
    }
    shared.window_end = window_after(next);
    shards.reset(0, n);
  };

  const std::size_t workers = std::max<std::size_t>(1, threads_);
  std::barrier barrier(static_cast<std::ptrdiff_t>(workers), on_completion);
  std::atomic<std::uint64_t> stall_wall_ns{0};

  const auto worker = [&]() {
    std::uint64_t my_stall_ns = 0;
    while (true) {
      std::size_t s = 0;
      while (shards.claim(s)) {
        try {
          executed[s] = sims_[s]->run_window(shared.window_end);
        } catch (...) {
          errors[s] = std::current_exception();
          abort.store(true, std::memory_order_relaxed);
        }
      }
      const auto wait_begin = std::chrono::steady_clock::now();
      barrier.arrive_and_wait();
      my_stall_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - wait_begin)
              .count());
      if (shared.done) {
        stall_wall_ns.fetch_add(my_stall_ns, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();  // the caller is one of the workers
  for (std::thread& t : pool) t.join();
  stats_.stall_wall_ns += stall_wall_ns.load(std::memory_order_relaxed);

  // Lowest-shard exception wins, matching ReplicaExecutor's convention.
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void ShardRunner::run_serial_fallback(sim::SimTime bound) {
  // Zero lookahead: a cross-shard packet could arrive "now", so no window
  // has positive width. Execute one globally-minimal event at a time
  // (ties broken by lowest shard index) and flush mailboxes after each, so
  // cross-shard effects become visible immediately — the serial kernel's
  // order, at serial speed, but still correct.
  while (true) {
    sim::SimTime tmin = sim::SimTime::infinity();
    std::size_t which = sims_.size();
    for (std::size_t s = 0; s < sims_.size(); ++s) {
      const sim::SimTime t = sims_[s]->next_event_time();
      if (t < tmin) {
        tmin = t;
        which = s;
      }
    }
    if (which == sims_.size() || tmin > bound) return;
    sims_[which]->run_steps(1);
    ++stats_.serial_fallbacks;
    stats_.cross_shard_packets += network_.flush_mailboxes();
  }
}

}  // namespace dyncdn::parallel
