#include "campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "cdn/deployment.hpp"
#include "sim/time.hpp"

namespace perfbench {

namespace {

using testbed::ExperimentResult;
using testbed::Scenario;

constexpr std::size_t kVantagePoints = 60;

std::size_t fe_for_client(const WorkloadSpec& spec, Scenario& scenario,
                          std::size_t i) {
  return spec.fixed_fe ? *spec.fixed_fe : scenario.clients()[i].default_fe;
}

/// Same contiguous partition as the replica engine in
/// testbed/parallel_experiment.cpp: it depends only on (clients, shards).
std::vector<std::vector<std::size_t>> partition_clients(std::size_t clients,
                                                        std::size_t shards) {
  std::vector<std::vector<std::size_t>> groups(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t i = s * clients / shards; i < (s + 1) * clients / shards;
         ++i) {
      groups[s].push_back(i);
    }
  }
  return groups;
}

/// What one traced replica hands back besides its ExperimentResult.
struct ReplicaExtras {
  obs::MetricsRegistry memory;
  std::uint64_t run_events = 0;
  std::vector<search::Keyword> keywords;
};

std::uint64_t events_executed(Scenario& scenario) {
  obs::MetricsRegistry kernel;
  scenario.collect_kernel_metrics(kernel);
  return kernel.counter("sim_events_executed");
}

/// One replica of the campaign, mirroring the replica body of
/// testbed::run_sharded and testbed::run_experiment_subset step by step.
ExperimentResult traced_replica(const WorkloadSpec& spec,
                                std::span<const std::size_t> client_indices,
                                SpanRecorder& rec, std::int64_t parent,
                                std::uint32_t campaign, ReplicaExtras& extras) {
  const testbed::ExperimentOptions& options = spec.experiment;
  std::unique_ptr<Scenario> scenario;
  {
    ScopedSpan span(rec, "testbed.build", parent, campaign);
    scenario = std::make_unique<Scenario>(spec.scenario);
  }
  {
    ScopedSpan span(rec, "testbed.warm_up", parent, campaign);
    scenario->warm_up(spec.plan.warm_up);
  }

  std::size_t boundary = 0;
  std::size_t discovery_fetches = 0;
  {
    ScopedSpan span(rec, "analysis.boundary", parent, campaign);
    const std::size_t probe_fe = fe_for_client(spec, *scenario, 0);
    boundary = testbed::discover_boundary(*scenario, 0, probe_fe);
    discovery_fetches = scenario->fes()[probe_fe].server->fetch_log().size();
    scenario->set_stream_boundary(boundary);
  }

  auto& clients = scenario->clients();
  std::uint64_t events_before = 0;
  {
    ScopedSpan span(rec, "testbed.schedule", parent, campaign);
    sim::Simulator& simulator = scenario->simulator();
    for (const std::size_t i : client_indices) {
      const std::size_t fe = fe_for_client(spec, *scenario, i);
      scenario->connect_client_to_fe(i, fe);
      const net::Endpoint endpoint = scenario->fe_endpoint(fe);
      std::vector<search::Keyword> sequence;
      if (options.zipf) {
        const search::KeywordCatalog catalog(simulator.rng().seed());
        const auto universe = catalog.generate(search::KeywordClass::kPopular,
                                               options.zipf->catalog_size);
        sim::RngStream draw_rng = simulator.rng().stream(
            "experiment/zipf/" + clients[i].vantage.name);
        sequence = search::KeywordCatalog::zipf_sample(
            universe, options.reps_per_node, options.zipf->alpha, draw_rng);
      }
      for (std::size_t r = 0; r < options.reps_per_node; ++r) {
        const search::Keyword kw =
            options.zipf ? sequence[r]
                         : options.keywords[r % options.keywords.size()];
        const sim::SimTime at =
            options.stagger * static_cast<std::int64_t>(i) +
            options.interval * static_cast<std::int64_t>(r);
        clients[i].node->simulator().schedule_in(
            at, [&clients, i, endpoint, kw]() {
              clients[i].query_client->submit(endpoint, kw,
                                              [](const cdn::QueryResult&) {});
            });
        extras.keywords.push_back(kw);
      }
    }
    events_before = events_executed(*scenario);
  }
  {
    ScopedSpan span(rec, "testbed.run", parent, campaign);
    scenario->run();
  }

  ExperimentResult result;
  result.boundary = boundary;
  result.discovery_fetches = discovery_fetches;
  {
    ScopedSpan span(rec, "analysis.reduce", parent, campaign);
    result.per_node_timings.reserve(client_indices.size());
    for (const std::size_t i : client_indices) {
      auto timings = testbed::analyze_client_trace(clients[i], boundary);
      for (const core::QueryTimings& t : timings) {
        result.metrics.add("queries_analyzed", 1);
        result.metrics.observe("query_rtt_ms", t.rtt_ms);
        result.metrics.observe("query_t_static_ms", t.t_static_ms);
        result.metrics.observe("query_t_dynamic_ms", t.t_dynamic_ms);
        result.metrics.observe("query_t_delta_ms", t.t_delta_ms);
        result.metrics.observe("query_overall_ms", t.overall_ms);
      }
      result.per_node.push_back(
          core::aggregate_node(clients[i].vantage.name, timings));
      result.per_node_timings.push_back(std::move(timings));
    }
  }
  {
    ScopedSpan span(rec, "testbed.collect", parent, campaign);
    scenario->collect_metrics(result.metrics);
    if (scenario->spilling_active()) {
      scenario->collect_spill_metrics(result.metrics, client_indices);
    }
    scenario->collect_kernel_metrics(result.kernel_metrics);
    scenario->collect_memory_metrics(extras.memory);
    extras.run_events =
        result.kernel_metrics.counter("sim_events_executed") - events_before;
    result.trace = scenario->shared_trace();
    result.timeseries = scenario->take_timeseries();
    result.flight = obs::FlightRecorder(options.flight);
  }
  {
    ScopedSpan span(rec, "testbed.teardown", parent, campaign);
    scenario.reset();
  }
  return result;
}

}  // namespace

std::optional<WorkloadSpec> make_spec(std::string_view name,
                                      std::uint64_t seed,
                                      std::size_t threads) {
  WorkloadSpec spec;
  testbed::ScenarioOptions& so = spec.scenario;
  so.client_count = kVantagePoints;
  so.seed = seed;
  // Pinned so no DYNCDN_* environment default can change the campaign.
  so.sim_shards = 1;
  testbed::ExperimentOptions& eo = spec.experiment;
  eo.interval = sim::SimTime::milliseconds(1200);
  eo.keywords = search::KeywordCatalog(seed).figure3_keywords();
  spec.plan.executor.threads = 1;

  if (name == "fleet_replicas") {
    // Datasets B on the CLI's default parallel path: one replica per
    // vantage point, each rebuilding and warming its own scenario.
    so.profile = cdn::bing_like_profile();
    so.stream_analysis = true;
    eo.reps_per_node = 15;
    spec.fixed_fe = 0;
    spec.plan.shards = 0;
    spec.plan.executor.threads = threads;
    spec.seeds_per_round = 48;
  } else if (name == "single_zipf") {
    // Datasets A in one scenario: the per-query hot path dominates.
    so.profile = cdn::google_like_profile();
    so.stream_analysis = true;
    eo.reps_per_node = 60;
    eo.zipf = testbed::ExperimentOptions::ZipfWorkload{500, 1.0};
    spec.plan.shards = 1;
    spec.seeds_per_round = 24;
  } else if (name == "lossy_spill") {
    // The lossy last hop with budgeted capture: traces spill to .dtrc and
    // the post-hoc analysis reloads them.
    so.profile = cdn::bing_like_profile();
    so.stream_analysis = false;
    so.client_link_loss = 0.02;
    so.client_link_reorder = 0.02;
    so.capture_budget = 64 * 1024;
    eo.reps_per_node = 30;
    spec.plan.shards = 1;
    spec.seeds_per_round = 32;
  } else {
    return std::nullopt;
  }
  return spec;
}

ExperimentResult run_product(const WorkloadSpec& spec) {
  if (spec.fixed_fe) {
    return testbed::run_fixed_fe_experiment(spec.scenario, *spec.fixed_fe,
                                            spec.experiment, spec.plan);
  }
  return testbed::run_default_fe_experiment(spec.scenario, spec.experiment,
                                            spec.plan);
}

double measure_setup(const WorkloadSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  Scenario scenario(spec.scenario);
  scenario.warm_up(spec.plan.warm_up);
  const std::size_t boundary = testbed::discover_boundary(
      scenario, 0, fe_for_client(spec, scenario, 0));
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (boundary == 0) throw std::runtime_error("setup: empty boundary");
  return seconds;
}

ExperimentResult run_traced(const WorkloadSpec& spec, SpanRecorder& rec,
                            std::uint32_t campaign, TracedExtras& extras) {
  ScopedSpan root(rec, "campaign", kNoParent, campaign);
  const std::size_t clients = testbed::planned_client_count(spec.scenario);
  const std::size_t shards = std::min(
      spec.plan.shards == 0 ? clients : spec.plan.shards, clients);
  const auto groups = partition_clients(clients, shards);

  std::vector<ReplicaExtras> replica_extras(shards);
  std::vector<ExperimentResult> shard_results;
  {
    ScopedSpan run(rec, "parallel.run", root.id(), campaign);
    parallel::ReplicaExecutor executor(spec.plan.executor);
    shard_results = executor.run(shards, [&](std::size_t s) {
      ScopedSpan replica(rec, "parallel.replica", run.id(), campaign);
      return traced_replica(spec, groups[s], rec, replica.id(), campaign,
                            replica_extras[s]);
    });
    extras.executor = executor.last_stats();
  }

  ScopedSpan merge(rec, "parallel.merge", root.id(), campaign);
  ExperimentResult merged;
  merged.boundary = shard_results.front().boundary;
  merged.discovery_fetches = shard_results.front().discovery_fetches;
  merged.flight = obs::FlightRecorder(spec.experiment.flight);
  merged.per_node.resize(clients);
  merged.per_node_timings.resize(clients);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t k = 0; k < groups[s].size(); ++k) {
      merged.per_node[groups[s][k]] = std::move(shard_results[s].per_node[k]);
      merged.per_node_timings[groups[s][k]] =
          std::move(shard_results[s].per_node_timings[k]);
    }
    merged.metrics.merge(shard_results[s].metrics);
    merged.kernel_metrics.merge(shard_results[s].kernel_metrics);
    merged.timeseries.merge(shard_results[s].timeseries);
    merged.attribution.merge(shard_results[s].attribution);
    merged.flight.merge(shard_results[s].flight);
    extras.memory.merge(replica_extras[s].memory);
    extras.run_events += replica_extras[s].run_events;
    extras.keywords.insert(extras.keywords.end(),
                           replica_extras[s].keywords.begin(),
                           replica_extras[s].keywords.end());
  }
  merged.executor_stats = extras.executor;
  extras.scenarios = shards;
  return merged;
}

std::string digest(const ExperimentResult& result) {
  std::string text = "boundary " + std::to_string(result.boundary) + "\n";
  char line[512];
  for (const core::NodeAggregate& n : result.per_node) {
    std::snprintf(line, sizeof line, "%s %a %a %a %a %a %zu\n",
                  n.node_name.c_str(), n.rtt_ms, n.med_static_ms,
                  n.med_dynamic_ms, n.med_delta_ms, n.med_overall_ms,
                  n.samples);
    text += line;
  }
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

CheckReport check_structure(const ExperimentResult& result,
                            const WorkloadSpec& spec) {
  CheckReport report;
  const auto fail = [&](std::string message) {
    if (report.errors.size() < 8) report.errors.push_back(std::move(message));
  };
  const std::size_t clients = testbed::planned_client_count(spec.scenario);
  if (result.per_node.size() != clients ||
      result.per_node_timings.size() != clients) {
    fail("expected " + std::to_string(clients) + " nodes, got " +
         std::to_string(result.per_node.size()));
    return report;
  }
  if (result.boundary == 0) fail("content boundary is 0");
  // t4 is when the static portion is complete and t5 when the first
  // dynamic packet arrives. A lost or delayed static segment legitimately
  // puts t5 before t4, so that ordering is checked on clean paths only.
  const bool clean_path = spec.scenario.client_link_loss == 0 &&
                          spec.scenario.client_link_reorder == 0;
  for (std::size_t i = 0; i < clients; ++i) {
    const core::NodeAggregate& node = result.per_node[i];
    const auto& timings = result.per_node_timings[i];
    report.valid += timings.size();
    if (node.samples != spec.experiment.reps_per_node ||
        timings.size() != node.samples) {
      fail(node.node_name + ": " + std::to_string(node.samples) +
           " samples, expected " +
           std::to_string(spec.experiment.reps_per_node));
    }
    for (const core::QueryTimings& t : timings) {
      const bool static_first = t.t_dynamic_ms >= t.t_static_ms - 0.5;
      if (!static_first) ++report.dynamic_before_static;
      if (!(t.t_delta_ms >= 0) || !(t.overall_ms > t.t_dynamic_ms) ||
          !(t.overall_ms > t.t_static_ms) || (clean_path && !static_first)) {
        fail(node.node_name + ": implausible query " + t.to_string());
      }
    }
  }
  return report;
}

}  // namespace perfbench
