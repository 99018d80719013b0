// Campaign benchmark. One process runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA] [--spans-out FILE]
//
// Every process first runs one untimed campaign on the default seed and
// compares it with the workload's golden digest (for fleet_replicas at 1
// and at the benchmark's thread count). The timed campaigns then cover the
// workload's round seeds, derived from --seed, in whole rounds for about S
// seconds of host time:
//
//   --trace 0  product campaigns, each preceded by one timed scenario
//              set-up; reports the end-to-end metrics.
//   --trace 1  each untraced product campaign followed by the benchmark's
//              traced mirror of it; reports the per-layer metrics.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "campaign.hpp"
#include "obs/memory.hpp"
#include "search/content_model.hpp"

namespace {

namespace cdn = dyncdn::cdn;
namespace obs = dyncdn::obs;
namespace parallel = dyncdn::parallel;
namespace search = dyncdn::search;
namespace sim = dyncdn::sim;
using perfbench::WorkloadSpec;
using Result = dyncdn::testbed::ExperimentResult;

/// Digests of the default-seed campaign (perfbench::kDefaultSeed). A
/// change that only makes the program faster leaves them unchanged.
const std::map<std::string, std::string>& golden_digests() {
  static const std::map<std::string, std::string> digests = {
      {"fleet_replicas", "692a82c31a57c3ff"},
      {"single_zipf", "f954ab6764fc72b0"},
      {"lossy_spill", "d33f81b8892cf91b"},
  };
  return digests;
}

/// Executor threads for replica workloads: 4, never more than the cores.
constexpr std::size_t kMaxThreads = 4;
/// Accepted range of bench.span_coverage in a traced run.
constexpr double kMinSpanCoverage = 0.95;

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string loadavg() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "null";
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%.2f, %.2f, %.2f]", load[0], load[1],
                load[2]);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// What one timed campaign produced.
struct Outcome {
  double valid = 0;   // per-query timings returned (0 when it failed)
  double wall_s = 0;  // host seconds of the whole campaign call
};

/// Outcome bookkeeping shared by both modes.
struct Tally {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void problem(const std::string& what) {
    correct = false;
    std::printf("# FAIL %s\n", what.c_str());
  }

  /// Times one campaign and checks it. A campaign that throws or fails a
  /// check counts all of its queries as failed. `expected` pins the digest
  /// of every campaign of one spec in a run (empty = set by this one).
  Outcome campaign(const WorkloadSpec& spec, std::string& expected,
                   const std::function<Result()>& body,
                   Result* out = nullptr) {
    const std::size_t queries = spec.queries();
    attempted += queries;
    const auto start = std::chrono::steady_clock::now();
    try {
      Result result = body();
      const double wall = seconds_since(start);
      const perfbench::CheckReport report =
          perfbench::check_structure(result, spec);
      const std::string d = perfbench::digest(result);
      if (expected.empty()) expected = d;
      for (const std::string& e : report.errors) problem(e);
      if (d != expected) problem("digest " + d + " != " + expected);
      if (!report.ok() || d != expected) {
        failed += queries;
        return {0, wall};
      }
      failed += queries - report.valid;
      if (out != nullptr) *out = std::move(result);
      return {static_cast<double>(report.valid), wall};
    } catch (const std::exception& e) {
      problem(std::string("campaign threw: ") + e.what());
      failed += queries;
      return {0, seconds_since(start)};
    }
  }
};

/// Untimed default-seed campaign: warms the process and pins the golden
/// digest (for replica workloads also at one thread).
void golden_check(const Args& args, std::size_t threads, Tally& tally) {
  const std::string& golden = golden_digests().at(args.workload);
  std::vector<WorkloadSpec> specs = {
      *perfbench::make_spec(args.workload, perfbench::kDefaultSeed, threads)};
  if (specs.front().plan.executor.threads > 1) {
    specs.push_back(specs.front());
    specs.back().plan.executor.threads = 1;
  }
  for (const WorkloadSpec& spec : specs) {
    try {
      const Result result = perfbench::run_product(spec);
      const perfbench::CheckReport report =
          perfbench::check_structure(result, spec);
      for (const std::string& e : report.errors) tally.problem(e);
      const std::string d = perfbench::digest(result);
      std::printf("# golden seed=%llu threads=%zu digest=%s expected=%s %s "
                  "(dynamic_before_static=%zu)\n",
                  static_cast<unsigned long long>(perfbench::kDefaultSeed),
                  spec.plan.executor.threads, d.c_str(), golden.c_str(),
                  d == golden ? "OK" : "MISMATCH",
                  report.dynamic_before_static);
      if (d != golden) tally.problem("golden digest mismatch");
    } catch (const std::exception& e) {
      tally.problem(std::string("golden campaign threw: ") + e.what());
    }
  }
}

/// The campaigns of one round: the workload on each of its round seeds,
/// derived from --seed.
std::vector<WorkloadSpec> round_specs(const Args& args, std::size_t threads) {
  const std::size_t n =
      perfbench::make_spec(args.workload, args.seed, threads)->seeds_per_round;
  std::vector<WorkloadSpec> specs;
  for (std::size_t k = 0; k < n; ++k) {
    specs.push_back(*perfbench::make_spec(
        args.workload, parallel::replica_seed(args.seed, k),
        threads));
  }
  return specs;
}

/// Runs whole rounds until another one would end after `seconds` (at
/// least one round).
void run_rounds(double seconds, const std::function<void()>& round) {
  const auto start = std::chrono::steady_clock::now();
  std::size_t rounds = 0;
  do {
    round();
    ++rounds;
  } while (seconds_since(start) * static_cast<double>(rounds + 1) /
               static_cast<double>(rounds) <=
           seconds);
}

std::string summary(const std::vector<double>& xs) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "n=%zu min=%.6g median=%.6g max=%.6g",
                xs.size(), *std::min_element(xs.begin(), xs.end()), median(xs),
                *std::max_element(xs.begin(), xs.end()));
  return buf;
}

std::vector<Metric> run_untraced(const Args& args,
                                 const std::vector<WorkloadSpec>& specs,
                                 Tally& tally) {
  std::vector<double> qps, setup;
  std::vector<std::string> expected(specs.size());
  run_rounds(args.seconds, [&] {
    for (std::size_t k = 0; k < specs.size(); ++k) {
      try {
        setup.push_back(perfbench::measure_setup(specs[k]));
      } catch (const std::exception& e) {
        tally.problem(std::string("setup threw: ") + e.what());
      }
      const Outcome o =
          tally.campaign(specs[k], expected[k],
                         [&] { return perfbench::run_product(specs[k]); });
      qps.push_back(o.valid / o.wall_s);
    }
  });
  const double failed_share = static_cast<double>(tally.failed) /
                              static_cast<double>(tally.attempted);
  std::printf("# campaigns (%zu seeds): queries_per_s %s\n", specs.size(),
              summary(qps).c_str());
  if (!setup.empty()) std::printf("# setup_s %s\n", summary(setup).c_str());
  std::printf("# failed_query_share %.6f (%llu of %llu queries)\n",
              failed_share, static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  return {
      {"queries_per_s", median(qps), "1/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb",
       static_cast<double>(obs::peak_rss_bytes()) /
           (1024.0 * 1024.0),
       "MB"},
  };
}

/// Appends one traced campaign's per-layer figures to `s`.
void record_layers(const perfbench::CampaignSpans& spans,
                   const perfbench::TracedExtras& extras, const Result& result,
                   std::map<std::string, std::vector<double>>& s) {
  const auto self = [&](const char* name) {
    const auto it = spans.self_s.find(name);
    return it == spans.self_s.end() ? 0.0 : it->second;
  };
  const auto total = [&](const char* name) {
    const auto it = spans.total_s.find(name);
    return it == spans.total_s.end() ? 0.0 : it->second;
  };
  const auto num = [](auto v) { return static_cast<double>(v); };
  for (const char* layer :
       {"testbed.build", "testbed.warm_up", "analysis.boundary",
        "testbed.schedule", "testbed.run", "analysis.reduce", "testbed.collect",
        "testbed.teardown", "parallel.merge", "search.body"}) {
    s[std::string(layer) + "_s"].push_back(self(layer));
  }
  s["bench.span_coverage"].push_back(1.0 -
                                     self("campaign") / total("campaign"));
  s["parallel.busy_s"].push_back(total("parallel.replica"));
  s["parallel.efficiency"].push_back(
      total("parallel.replica") /
      (num(std::max<std::size_t>(1, extras.executor.workers)) *
       total("parallel.run")));
  s["parallel.tasks"].push_back(num(extras.executor.tasks));
  s["parallel.steals"].push_back(num(extras.executor.steals));
  s["testbed.scenarios"].push_back(num(extras.scenarios));
  s["sim.events"].push_back(num(extras.run_events));
  s["sim.ns_per_event"].push_back(
      self("testbed.run") * 1e9 /
      num(std::max<std::uint64_t>(1, extras.run_events)));

  const auto& m = result.metrics;
  const auto& k = result.kernel_metrics;
  const auto& mem = extras.memory;
  s["sim.heap_peak"].push_back(num(k.gauge("sim_event_heap_peak")));
  s["net.packets"].push_back(num(m.counter("net_packets_created")));
  s["net.bytes"].push_back(num(m.counter("link_bytes_delivered")));
  s["net.drops_loss"].push_back(num(m.counter("link_drops_loss")));
  s["net.reordered"].push_back(num(m.counter("link_packets_reordered")));
  s["tcp.segments"].push_back(num(m.counter("tcp_segments_sent")));
  s["tcp.rto"].push_back(num(m.counter("tcp_retransmits_rto")));
  s["tcp.fast_retx"].push_back(num(m.counter("tcp_retransmits_fast")));
  s["cdn.fe_queries"].push_back(num(m.counter("fe_queries_handled")));
  s["cdn.fe_static_hits"].push_back(num(m.counter("fe_static_cache_hits")));
  s["cdn.be_queries"].push_back(num(m.counter("be_queries_served")));
  s["cdn.fe_fetch_queue_peak"].push_back(num(m.gauge("fe_fetch_queue_peak")));
  s["analysis.late_packets"].push_back(num(mem.counter("stream_late_packets")));
  s["analysis.live_bytes_peak"].push_back(
      num(mem.gauge("analyzer_live_bytes_peak")));
  s["capture.retained_bytes_peak"].push_back(
      num(mem.gauge("capture_retained_bytes_peak")));
  s["capture.spill_bytes"].push_back(num(m.counter("spill_bytes_written")));
  s["capture.spill_blocks"].push_back(num(m.counter("spill_blocks")));
  s["capture.spill_flush_s"].push_back(num(k.counter("spill_flush_ns")) / 1e9);
}

std::vector<Metric> run_traced(const Args& args,
                               const std::vector<WorkloadSpec>& specs,
                               Tally& tally) {
  perfbench::SpanRecorder recorder;
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> qps_untraced, qps_traced;
  std::vector<std::string> expected(specs.size());
  const cdn::ServiceProfile& profile = specs.front().scenario.profile;
  const search::ContentModel content(profile.content, profile.name);
  std::uint32_t campaign = 0;
  run_rounds(args.seconds, [&] {
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const WorkloadSpec& spec = specs[k];
      // Untraced product campaign: throughput baseline, memory counters.
      obs::reset_peak_live_bytes();
      const auto mem0 = obs::memory_snapshot();
      Result product;
      const Outcome u = tally.campaign(
          spec, expected[k], [&] { return perfbench::run_product(spec); },
          &product);
      const auto mem1 = obs::memory_snapshot();
      qps_untraced.push_back(u.valid / u.wall_s);
      samples["mem.allocs_per_query"].push_back(
          static_cast<double>(mem1.allocations - mem0.allocations) /
          static_cast<double>(spec.queries()));
      samples["mem.peak_live_mb"].push_back(
          static_cast<double>(mem1.peak_live_bytes) / (1024.0 * 1024.0));

      // The benchmark's traced mirror of the same campaign.
      ++campaign;
      perfbench::TracedExtras extras;
      Result result;
      const Outcome t = tally.campaign(
          spec, expected[k],
          [&] {
            return perfbench::run_traced(spec, recorder, campaign, extras);
          },
          &result);
      qps_traced.push_back(t.valid / t.wall_s);
      if (t.valid == 0 || u.valid == 0) continue;
      if (result.metrics.counters() != product.metrics.counters()) {
        tally.problem("traced mirror counters differ from the product's");
      }
      // Paired on one seed, so seed-to-seed cost differences cancel.
      samples["bench.trace_overhead_pct"].push_back(
          (1.0 - qps_traced.back() / qps_untraced.back()) * 100.0);

      // The search layer alone: the campaign's keyword sequence through
      // the BE body synthesis, outside the campaign.
      std::size_t body_bytes = 0;
      {
        perfbench::ScopedSpan span(recorder, "search.body",
                                   perfbench::kNoParent, campaign);
        sim::RngStream rng =
            sim::RngFactory(spec.scenario.seed).stream("perfbench/search");
        for (const auto& kw : extras.keywords) {
          body_bytes += content.dynamic_body(kw, rng).size();
        }
      }
      samples["search.body_bytes"].push_back(static_cast<double>(body_bytes));
      record_layers(perfbench::summarize(recorder.spans(), campaign), extras,
                    result, samples);
    }
  });

  const double coverage = median(samples["bench.span_coverage"]);
  std::printf("# campaigns (%zu seeds): queries_per_s untraced %s\n",
              specs.size(), summary(qps_untraced).c_str());
  std::printf("# campaigns (%zu seeds): queries_per_s traced %s\n",
              specs.size(), summary(qps_traced).c_str());
  if (!(coverage >= kMinSpanCoverage && coverage <= 1.0)) {
    tally.problem("bench.span_coverage " + std::to_string(coverage) +
                  " outside [" + std::to_string(kMinSpanCoverage) + ", 1]");
  }
  if (!args.spans_out.empty() && !recorder.write_chrome_trace(args.spans_out)) {
    tally.problem("cannot write " + args.spans_out);
  }

  static const std::map<std::string, const char*> units = {
      {"bench.span_coverage", "ratio"},
      {"bench.trace_overhead_pct", "%"},
      {"parallel.efficiency", "ratio"},
      {"mem.peak_live_mb", "MB"},
      {"sim.ns_per_event", "ns"},
      {"search.body_bytes", "bytes"},
      {"net.bytes", "bytes"},
      {"analysis.live_bytes_peak", "bytes"},
      {"capture.retained_bytes_peak", "bytes"},
      {"capture.spill_bytes", "bytes"},
  };
  std::vector<Metric> out;
  for (const auto& [name, values] : samples) {
    const char* unit = "count";
    if (const auto it = units.find(name); it != units.end()) {
      unit = it->second;
    } else if (name.ends_with("_s")) {
      unit = "s";
    }
    out.push_back({name, median(values), unit});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args) ||
      golden_digests().count(args.workload) == 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "fleet_replicas|single_zipf|lossy_spill --seed N --seconds S "
                 "--trace 0|1 [--commit SHA] [--spans-out FILE]\n");
    return 2;
  }

  const bool obs_on = DYNCDN_OBS != 0;
  const bool mem_track = obs::memory_tracking_enabled();
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(kMaxThreads, nproc);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# meta {\"commit\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"DYNCDN_OBS\": %d, "
              "\"DYNCDN_MEM_TRACK\": %d, \"nproc\": %u, \"threads\": %zu, "
              "\"loadavg_start\": %s}\n",
              args.commit.c_str(), PERFBENCH_COMPILER, build_type.c_str(),
              obs_on ? 1 : 0, mem_track ? 1 : 0, nproc, threads,
              loadavg().c_str());
  if (build_type != "RelWithDebInfo" || !obs_on || !mem_track) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a non-default "
                 "build (want RelWithDebInfo, DYNCDN_OBS=ON, "
                 "DYNCDN_MEM_TRACK=ON)\n");
    return 3;
  }

  const std::vector<WorkloadSpec> specs = round_specs(args, threads);
  Tally tally;
  golden_check(args, threads, tally);
  std::vector<Metric> metrics = args.trace ? run_traced(args, specs, tally)
                                           : run_untraced(args, specs, tally);

  std::printf("# meta {\"loadavg_end\": %s}\n", loadavg().c_str());
  for (Metric& m : metrics) {
    std::printf("%-30s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    if (!std::isfinite(m.value)) {
      tally.problem(m.name + " is not a finite number");
      m.value = 0;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
