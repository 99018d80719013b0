// Workload specs and the three ways the benchmark runs one: the product entry
// point (untraced campaigns), a step-by-step traced mirror of it, and the
// scenario set-up alone. Plus the correctness digest and structural checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/replica.hpp"
#include "search/keywords.hpp"
#include "spans.hpp"
#include "testbed/parallel_experiment.hpp"

namespace perfbench {

namespace cdn = dyncdn::cdn;
namespace core = dyncdn::core;
namespace net = dyncdn::net;
namespace obs = dyncdn::obs;
namespace parallel = dyncdn::parallel;
namespace search = dyncdn::search;
namespace sim = dyncdn::sim;
namespace testbed = dyncdn::testbed;

/// Seed whose campaign results are pinned by golden digests.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct WorkloadSpec {
  testbed::ScenarioOptions scenario;
  testbed::ExperimentOptions experiment;
  testbed::ReplicaPlan plan;
  /// Datasets B (every vantage point queries this FE) when set; otherwise
  /// Datasets A (each vantage point queries its nearest FE).
  std::optional<std::size_t> fixed_fe;
  /// Seeds one round of timed campaigns covers. Seeds change the topology,
  /// the keywords and the loss draws, so a round averages over many.
  std::size_t seeds_per_round = 1;

  /// Queries the campaign schedules (boundary probes excluded).
  std::size_t queries() const {
    return testbed::planned_client_count(scenario) * experiment.reps_per_node;
  }
};

/// The campaign of workload `name` for `seed`, with `threads` executor
/// threads for replica workloads. nullopt for an unknown name.
std::optional<WorkloadSpec> make_spec(std::string_view name,
                                      std::uint64_t seed, std::size_t threads);

/// One campaign through the product entry point
/// (testbed::run_{fixed,default}_fe_experiment with the spec's plan).
testbed::ExperimentResult run_product(const WorkloadSpec& spec);

/// Host seconds to build one Scenario of the spec, warm it up and discover
/// the content boundary the campaign would use.
double measure_setup(const WorkloadSpec& spec);

/// Counters the traced mirror gathers beyond the product result.
struct TracedExtras {
  /// Scenario::collect_memory_metrics of every replica, merged.
  obs::MetricsRegistry memory;
  /// Events dispatched by testbed.run (the measured query schedule).
  std::uint64_t run_events = 0;
  std::size_t scenarios = 0;
  parallel::ExecutorStats executor;
  /// Keywords the campaign submitted, client by client.
  std::vector<search::Keyword> keywords;
};

/// The same campaign as run_product, performed here step by step
/// (replica executor, scenario build, warm-up, boundary discovery, query
/// schedule, run, analysis, merge) with a span around each step. Must give
/// the same result as run_product.
testbed::ExperimentResult run_traced(const WorkloadSpec& spec,
                                     SpanRecorder& recorder,
                                     std::uint32_t campaign,
                                     TracedExtras& extras);

/// 64-bit FNV-1a, as 16 hex digits, of the simulated statistics: the
/// boundary plus every node's rtt / T_static / T_dynamic / T_delta /
/// overall medians (exact, as hex floats) and sample count.
std::string digest(const testbed::ExperimentResult& result);

struct CheckReport {
  std::size_t valid = 0;  // per-query timings returned
  /// Queries whose first dynamic packet beat static completion
  /// (t_dynamic < t_static - 0.5 ms).
  std::size_t dynamic_before_static = 0;
  std::vector<std::string> errors;
  bool ok() const { return errors.empty(); }
};

/// Per-query structural checks: t_delta >= 0, overall > t_dynamic,
/// overall > t_static, t_dynamic >= t_static - 0.5 ms on loss- and
/// reorder-free client links, and samples == reps on every node.
CheckReport check_structure(const testbed::ExperimentResult& result,
                            const WorkloadSpec& spec);

}  // namespace perfbench
