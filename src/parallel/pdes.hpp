// Conservative parallel discrete-event execution of ONE simulation.
//
// The ReplicaExecutor (replica.hpp) parallelizes across independent
// replicas; this runner parallelizes *inside* a single scenario. The
// topology is partitioned into fixed shards, each with its own Simulator
// kernel (same seed, so named RNG streams are identical everywhere — each
// stream is consumed by exactly one component, which lives in exactly one
// shard). The minimum propagation delay over cross-shard links is the
// lookahead L: an event at time t on one shard can only influence another
// shard at t + L or later, so all shards may safely execute the window
// [tmin, tmin + L) in parallel, where tmin is the global minimum pending
// event time. At the window barrier, packets staged on cross-shard links
// (Network mailboxes) are flushed to their destination kernels in
// deterministic link-creation order, the next window is computed, and the
// cycle repeats.
//
// Scheduling: each window's shard ids form one ClaimRange (replica.hpp)
// that every worker claims from, so an expensive shard never serializes
// the cheap ones behind a static assignment. Which worker runs a shard
// never affects what it computes — determinism comes from the fixed shard
// assignment and the ordered mailbox flush, not from scheduling.
//
// Degenerate lookaheads:
//  - one shard              -> literally the serial kernel loop;
//  - L == infinity          -> no cross-shard links: every shard runs to
//                              completion independently (one window);
//  - L == 0 (zero-delay     -> conservative windows cannot make progress;
//    cross-shard link)         fall back to globally-ordered serial
//                              execution, one event at a time, flushing
//                              mailboxes after every event.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dyncdn::net {
class Network;
}  // namespace dyncdn::net

namespace dyncdn::parallel {

struct ShardRunnerConfig {
  /// Worker threads. 0 = DYNCDN_THREADS if set, else hardware concurrency;
  /// always clamped to the shard count.
  std::size_t threads = 0;
};

/// Counters from the most recent run()/run_until() (observability only —
/// never part of the simulation result contract).
struct ShardRunnerStats {
  std::uint64_t windows = 0;
  /// Shard-windows that executed zero events (the shard reached the
  /// barrier having had nothing to do in [tmin, tmin + L)).
  std::uint64_t barrier_stalls = 0;
  /// Wall-clock nanoseconds workers spent blocked in the window barrier,
  /// summed over workers. Wall time, so runtime telemetry only — never
  /// merged into deterministic exports.
  std::uint64_t stall_wall_ns = 0;
  /// Packets staged on cross-shard links and flushed at barriers.
  std::uint64_t cross_shard_packets = 0;
  /// Events executed via the zero-lookahead serial fallback.
  std::uint64_t serial_fallbacks = 0;
  /// The conservative lookahead in force (min cross-shard propagation
  /// delay); infinity when shards are independent.
  sim::SimTime lookahead = sim::SimTime::infinity();
};

class ShardRunner {
 public:
  /// `sims` are the per-shard kernels, index = shard id; `network` must
  /// have been built with Network::set_shards(sims) so cross-shard links
  /// stage into mailboxes. With a single shard every call degenerates to
  /// the serial kernel loop on sims[0].
  ShardRunner(net::Network& network, std::vector<sim::Simulator*> sims,
              ShardRunnerConfig config = {});

  /// Run until every shard's queue (and every mailbox) drains, then align
  /// all shard clocks to the globally last executed event time — the same
  /// final clock the serial kernel would report.
  void run();

  /// Run every event with time <= deadline, then align all shard clocks to
  /// exactly `deadline` (matching Simulator::run_until's force-advance).
  /// Later events stay pending.
  void run_until(sim::SimTime deadline);

  /// Stats accumulate across calls (a scenario warm-up + measurement is
  /// one logical run).
  const ShardRunnerStats& stats() const { return stats_; }

  std::size_t shard_count() const { return sims_.size(); }
  std::size_t threads() const { return threads_; }

 private:
  /// `bound` = latest event time to execute, or SimTime::infinity() to
  /// drain. Returns the global max executed-event clock.
  void run_bounded(sim::SimTime bound);
  void run_windowed(sim::SimTime bound);
  void run_serial_fallback(sim::SimTime bound);
  void align_clocks(sim::SimTime t);

  net::Network& network_;
  std::vector<sim::Simulator*> sims_;
  std::size_t threads_;
  ShardRunnerStats stats_;
};

}  // namespace dyncdn::parallel
