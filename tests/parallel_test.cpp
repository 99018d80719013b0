// Parallel replica engine: executor ordering/exception semantics, seed-hash
// stability, and the headline determinism contract — the same sharded
// experiment produces byte-identical results at 1, 2 and N threads, and a
// single-shard plan reproduces the legacy serial path bit-for-bit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/export_chrome.hpp"
#include "obs/export_prometheus.hpp"
#include "parallel/replica.hpp"
#include "search/keywords.hpp"
#include "testbed/experiment.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn {
namespace {

using namespace dyncdn::sim::literals;

TEST(ReplicaSeed, StableAndDistinct) {
  EXPECT_EQ(parallel::replica_seed(1, 0), parallel::replica_seed(1, 0));
  EXPECT_NE(parallel::replica_seed(1, 0), parallel::replica_seed(1, 1));
  EXPECT_NE(parallel::replica_seed(1, 0), parallel::replica_seed(2, 0));
  // Neighbouring indices must not produce near-identical seeds.
  const std::uint64_t a = parallel::replica_seed(7, 100);
  const std::uint64_t b = parallel::replica_seed(7, 101);
  EXPECT_GT(__builtin_popcountll(a ^ b), 8);
}

TEST(ReplicaExecutor, ResultsLandInIndexOrder) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    parallel::ReplicaExecutor exec({threads});
    const auto out =
        exec.run(17, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 17u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ReplicaExecutor, EachIndexRunsExactlyOnceUnderContention) {
  // Many cheap replicas keep owners and thieves racing on the same block
  // counters: every index must still run exactly once, and the per-worker
  // counters must add up to the totals.
  constexpr std::size_t kTasks = 20000;
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    std::vector<std::atomic<int>> hits(kTasks);
    parallel::ReplicaExecutor exec({threads});
    const auto out = exec.run(kTasks, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      return i;
    });
    ASSERT_EQ(out.size(), kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "task " << i << " at " << threads;
      ASSERT_EQ(out[i], i);
    }
    const parallel::ExecutorStats& st = exec.last_stats();
    EXPECT_EQ(st.workers, threads);
    EXPECT_EQ(st.tasks, kTasks);
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    for (const std::uint64_t t : st.tasks_by_worker) tasks += t;
    for (const std::uint64_t t : st.steals_by_worker) steals += t;
    EXPECT_EQ(tasks, st.tasks);
    EXPECT_EQ(steals, st.steals);
  }
}

TEST(ReplicaExecutor, StealsFromBlockedWorkersBlock) {
  // Worker 3 owns the block {6, 7}. Whoever claims 6 blocks inside it
  // until 7 has run. If worker 3 claimed 6, then 7 can only run on another
  // worker; otherwise 6 itself was claimed from worker 3's block. Either
  // way steals > 0, without timing assumptions on a loaded (or
  // single-core) runner.
  parallel::ReplicaExecutor exec({4});
  std::atomic<bool> seven_ran{false};
  const auto out = exec.run(8, [&](std::size_t i) {
    if (i == 7) seven_ran.store(true);
    if (i == 6) {
      while (!seven_ran.load()) std::this_thread::yield();
    }
    return i * 10;
  });
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 10);
  EXPECT_EQ(exec.last_stats().workers, 4u);
  EXPECT_EQ(exec.last_stats().tasks, 8u);
  EXPECT_GT(exec.last_stats().steals, 0u);
}

TEST(ReplicaExecutor, SkewedWorkloadMatchesSerialResults) {
  // Heavily skewed costs: the last block takes far longer than the rest.
  // Whatever the steal pattern, results must equal the serial run.
  parallel::ReplicaExecutor exec({4});
  const auto body = [](std::size_t i) {
    std::uint64_t acc = i;
    const std::size_t spins = (i >= 24) ? 200000 : 100;
    for (std::size_t k = 0; k < spins; ++k) acc = acc * 2862933555777941757ull + 3037000493ull;
    return acc;
  };
  const auto parallel_out = exec.run(32, body);
  parallel::ReplicaExecutor serial({1});
  const auto serial_out = serial.run(32, body);
  EXPECT_EQ(parallel_out, serial_out);
  EXPECT_EQ(exec.last_stats().tasks, 32u);
}

TEST(ReplicaExecutor, MoreThreadsThanReplicasIsFine) {
  parallel::ReplicaExecutor exec({16});
  const auto out = exec.run(3, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(out, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(ReplicaExecutor, LowestIndexExceptionPropagates) {
  parallel::ReplicaExecutor exec({4});
  try {
    exec.run(8, [](std::size_t i) -> int {
      if (i == 2 || i == 6) {
        throw std::runtime_error("replica " + std::to_string(i));
      }
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "replica 2");
  }
}

testbed::ScenarioOptions small_scenario() {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.client_count = 8;
  opt.seed = 1234;
  return opt;
}

testbed::ExperimentOptions small_experiment() {
  testbed::ExperimentOptions eo;
  eo.reps_per_node = 3;
  eo.interval = 900_ms;
  search::KeywordCatalog catalog(5);
  eo.keywords = {catalog.figure3_keywords().front()};
  return eo;
}

/// Exact equality, field by field: the determinism contract is bit-level.
void expect_identical(const testbed::ExperimentResult& a,
                      const testbed::ExperimentResult& b) {
  ASSERT_EQ(a.boundary, b.boundary);
  ASSERT_EQ(a.discovery_fetches, b.discovery_fetches);
  ASSERT_EQ(a.per_node_timings.size(), b.per_node_timings.size());
  for (std::size_t n = 0; n < a.per_node_timings.size(); ++n) {
    const auto& qa = a.per_node_timings[n];
    const auto& qb = b.per_node_timings[n];
    ASSERT_EQ(qa.size(), qb.size()) << "node " << n;
    for (std::size_t q = 0; q < qa.size(); ++q) {
      EXPECT_EQ(std::memcmp(&qa[q], &qb[q], sizeof(qa[q])), 0)
          << "node " << n << " query " << q;
    }
  }
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t n = 0; n < a.per_node.size(); ++n) {
    EXPECT_EQ(a.per_node[n].node_name, b.per_node[n].node_name);
    EXPECT_EQ(a.per_node[n].samples, b.per_node[n].samples);
    EXPECT_EQ(a.per_node[n].rtt_ms, b.per_node[n].rtt_ms);
    EXPECT_EQ(a.per_node[n].med_static_ms, b.per_node[n].med_static_ms);
    EXPECT_EQ(a.per_node[n].med_dynamic_ms, b.per_node[n].med_dynamic_ms);
    EXPECT_EQ(a.per_node[n].med_delta_ms, b.per_node[n].med_delta_ms);
  }
}

TEST(ParallelExperiment, ByteIdenticalAcrossThreadCounts) {
  const auto scenario = small_scenario();
  const auto options = small_experiment();

  testbed::ReplicaPlan plan;  // default: one shard per vantage point
  plan.executor.threads = 1;
  const auto t1 = testbed::run_fixed_fe_experiment(scenario, 0, options, plan);
  plan.executor.threads = 2;
  const auto t2 = testbed::run_fixed_fe_experiment(scenario, 0, options, plan);
  plan.executor.threads = 5;
  const auto t5 = testbed::run_fixed_fe_experiment(scenario, 0, options, plan);

  ASSERT_EQ(t1.per_node.size(), 8u);
  ASSERT_GT(t1.all().size(), 0u);
  expect_identical(t1, t2);
  expect_identical(t1, t5);
}

// Route rows are computed on demand, one Dijkstra per sending node per
// topology generation. Pinned for one replica exactly as run_sharded builds
// it (serial kernel, default plan, first vantage point), so a return to
// all-pairs rebuilds (node_count rows per topology change) fails here.
TEST(ParallelExperiment, ReplicaRouteRowsArePinned) {
  auto scenario_options = small_scenario();
  scenario_options.sim_shards = 1;  // immune to DYNCDN_SIM_SHARDS
  const testbed::ReplicaPlan plan;
  testbed::Scenario scenario(scenario_options);
  scenario.warm_up(plan.warm_up);
  const std::vector<std::size_t> first{0};
  const auto r = testbed::run_experiment_subset(
      scenario, small_experiment(), first, [](std::size_t) { return 0; });
  // 24 nodes: a single all-pairs rebuild would already compute 24 rows,
  // and the old code rebuilt after every topology change that preceded a
  // send.
  ASSERT_EQ(scenario.network().node_count(), 24u);
  EXPECT_EQ(r.kernel_metrics.counter("net_route_rows"), 37u);
}

// Satellite of the observability PR: the merged metrics registry (and its
// canonical Prometheus rendering) must be bit-identical at any thread
// count, because shards merge in index order and every collected counter
// is derived from the deterministic simulation, never from wall clocks.
TEST(ParallelExperiment, MetricsPrometheusDumpThreadCountInvariant) {
  const auto scenario = small_scenario();
  const auto options = small_experiment();

  testbed::ReplicaPlan plan;  // default: one shard per vantage point
  std::vector<std::string> dumps;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    plan.executor.threads = threads;
    const auto r = testbed::run_fixed_fe_experiment(scenario, 0, options, plan);
    EXPECT_GT(r.metrics.counter("queries_analyzed"), 0u);
    // Kernel counters live in the segregated registry: they depend on the
    // shard layout, so keeping them out of `metrics` is what lets this
    // test demand byte-identical dumps in the first place.
    EXPECT_GT(r.kernel_metrics.counter("sim_events_executed"), 0u);
    ASSERT_NE(r.metrics.histogram("query_rtt_ms"), nullptr);
    dumps.push_back(obs::export_prometheus(r.metrics));
  }
  ASSERT_EQ(dumps.size(), 3u);
  EXPECT_FALSE(dumps[0].empty());
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

// Same contract for the merged span trace: shard traces are absorbed in
// shard-index order with deterministic id remapping, so the Chrome export
// is byte-identical at any thread count.
TEST(ParallelExperiment, TraceChromeExportThreadCountInvariant) {
#if !DYNCDN_OBS
  GTEST_SKIP() << "requires span instrumentation (DYNCDN_OBS=ON)";
#endif
  auto scenario = small_scenario();
  scenario.enable_tracing = true;
  const auto options = small_experiment();

  testbed::ReplicaPlan plan;
  std::vector<std::string> dumps;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    plan.executor.threads = threads;
    const auto r = testbed::run_fixed_fe_experiment(scenario, 0, options, plan);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_GT(r.trace->spans().size(), 0u);
    dumps.push_back(obs::export_chrome_trace(*r.trace));
  }
  ASSERT_EQ(dumps.size(), 2u);
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(ParallelExperiment, SingleShardMatchesLegacySerialPath) {
  const auto scenario_options = small_scenario();
  const auto options = small_experiment();

  testbed::Scenario scenario(scenario_options);
  scenario.warm_up();
  const auto legacy = testbed::run_fixed_fe_experiment(scenario, 0, options);

  testbed::ReplicaPlan plan;
  plan.shards = 1;  // whole fleet in one simulator, like the legacy path
  plan.executor.threads = 3;
  const auto sharded =
      testbed::run_fixed_fe_experiment(scenario_options, 0, options, plan);

  expect_identical(legacy, sharded);
}

TEST(ParallelExperiment, DefaultFeShardingIsThreadCountInvariant) {
  const auto scenario = small_scenario();
  const auto options = small_experiment();

  testbed::ReplicaPlan plan;
  plan.shards = 3;  // mixed shard sizes exercise the scatter merge
  plan.executor.threads = 1;
  const auto t1 = testbed::run_default_fe_experiment(scenario, options, plan);
  plan.executor.threads = 4;
  const auto t4 = testbed::run_default_fe_experiment(scenario, options, plan);
  expect_identical(t1, t4);
}

TEST(ParallelExperiment, FetchFactoringThreadCountInvariant) {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.seed = 99;
  opt.fe_distance_sweep_miles = std::vector<double>{50, 150, 300, 450};

  const search::Keyword keyword{"network measurement study",
                                search::KeywordClass::kGranular, 5000};
  testbed::ReplicaPlan plan;
  plan.executor.threads = 1;
  const auto t1 =
      testbed::run_fetch_factoring_experiment(opt, keyword, 4, plan);
  plan.executor.threads = 4;
  const auto t4 =
      testbed::run_fetch_factoring_experiment(opt, keyword, 4, plan);

  ASSERT_EQ(t1.distances_miles.size(), 4u);
  ASSERT_EQ(t1.distances_miles, t4.distances_miles);
  ASSERT_EQ(t1.med_t_dynamic_ms, t4.med_t_dynamic_ms);
  EXPECT_EQ(t1.factoring.fit.slope, t4.factoring.fit.slope);
  EXPECT_EQ(t1.factoring.fit.intercept, t4.factoring.fit.intercept);
}

TEST(ParallelExperiment, PlannedClientCountIsSweepAware) {
  testbed::ScenarioOptions opt;
  opt.client_count = 60;
  EXPECT_EQ(testbed::planned_client_count(opt), 60u);
  opt.fe_distance_sweep_miles = std::vector<double>{10, 20, 30};
  EXPECT_EQ(testbed::planned_client_count(opt), 3u);
}

}  // namespace
}  // namespace dyncdn
