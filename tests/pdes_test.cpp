// Conservative parallel DES (sharded single-scenario execution): the
// tentpole contract is tolerance-0 equivalence — timelines, TSV rows and
// metrics exports byte-identical at 1, 2 and 4 shards, including lossy and
// reordering links — plus deterministic handling of the edge cases that
// break naive parallel simulators: same-timestamp arrivals from different
// shards, retransmissions straddling window barriers, and zero-lookahead
// topologies that must fall back to serial order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cdn/deployment.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "obs/export_prometheus.hpp"
#include "parallel/pdes.hpp"
#include "search/keywords.hpp"
#include "sim/simulator.hpp"
#include "testbed/experiment.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn {
namespace {

using sim::SimTime;
using namespace dyncdn::sim::literals;

// ---------------------------------------------------------------------------
// Unit level: raw Network + ShardRunner topologies.
// ---------------------------------------------------------------------------

/// One delivery observation: (arrival ns, packet id, payload bytes).
/// Logs are kept per node — a node belongs to exactly one shard, so its
/// log is written by one worker only and its order is deterministic.
using DeliveryLog = std::vector<std::tuple<long long, std::uint64_t, std::size_t>>;

struct ShardNet {
  std::vector<std::unique_ptr<sim::Simulator>> owned;
  std::vector<sim::Simulator*> sims;
  std::unique_ptr<net::Network> network;
  std::map<std::string, DeliveryLog> logs;

  explicit ShardNet(std::size_t shards, std::uint64_t seed = 9) {
    for (std::size_t s = 0; s < shards; ++s) {
      owned.push_back(std::make_unique<sim::Simulator>(seed));
      sims.push_back(owned.back().get());
    }
    network = std::make_unique<net::Network>(*sims[0]);
    if (shards > 1) network->set_shards(sims);
  }

  net::Node& add(const std::string& name, std::uint32_t shard) {
    net::Node& n = network->add_node(name, {}, shard);
    // Create the entry here, single-threaded: handlers on different shards
    // run concurrently, and map insertion from them would race.
    DeliveryLog& log = logs[name];
    n.set_receive_handler([&log, &n](const net::PacketPtr& p) {
      log.emplace_back(n.simulator().now().ns(), p->id, p->payload_size());
    });
    return n;
  }

  void send_at(net::Node& from, net::Node& to, SimTime at, std::size_t bytes) {
    from.simulator().schedule_in(at, [&from, &to, bytes]() {
      auto p = net::acquire_packet();
      p->dst = to.id();
      p->payload = net::PayloadRef{
          net::make_buffer(std::vector<std::uint8_t>(bytes, 0x5A)), 0, bytes};
      from.send(std::move(p));
    });
  }

  parallel::ShardRunnerStats run() {
    parallel::ShardRunner runner(*network, sims, {});
    runner.run();
    return runner.stats();
  }
};

net::LinkConfig link_ms(std::int64_t delay_ms, double bps = 8e6) {
  net::LinkConfig cfg;
  cfg.propagation_delay = SimTime::milliseconds(delay_ms);
  cfg.bandwidth_bps = bps;
  return cfg;
}

TEST(PdesUnit, CrossShardTrafficMatchesSerial) {
  // A <-> B across the shard cut, bidirectional staggered bursts.
  const auto drive = [](ShardNet& net, std::uint32_t shard_b) {
    net::Node& a = net.add("a", 0);
    net::Node& b = net.add("b", shard_b);
    net.network->connect(a, b, link_ms(10));
    for (int i = 0; i < 8; ++i) {
      net.send_at(a, b, SimTime::milliseconds(3 * i + 1), 400 + 100 * i);
      net.send_at(b, a, SimTime::milliseconds(5 * i + 2), 900 - 50 * i);
    }
  };
  ShardNet serial(1);
  drive(serial, 0);
  serial.run();
  ShardNet sharded(2);
  drive(sharded, 1);
  const auto stats = sharded.run();
  EXPECT_GT(stats.windows, 0u);
  EXPECT_EQ(stats.cross_shard_packets, 16u);
  EXPECT_EQ(serial.logs, sharded.logs);
}

TEST(PdesUnit, SameTimestampArrivalsFromTwoShardsMatchSerialOrder) {
  // A (shard 1) and B (shard 2) both deliver to C (shard 0) at the exact
  // same nanosecond. The serial kernel breaks the tie by insertion order —
  // B transmits first — so the mailbox flush must drain B before A even
  // though A's link (and mailbox) was created first.
  const auto drive = [](ShardNet& net, std::uint32_t sa, std::uint32_t sb) {
    net::Node& c = net.add("c", 0);
    net::Node& a = net.add("a", sa);
    net::Node& b = net.add("b", sb);
    net.network->connect(a, c, link_ms(5));   // mailbox created first
    net.network->connect(b, c, link_ms(10));
    net.send_at(a, c, SimTime::milliseconds(10), 1000);  // arrives at 15ms+s
    net.send_at(b, c, SimTime::milliseconds(5), 1000);   // arrives at 15ms+s
  };
  ShardNet serial(1);
  drive(serial, 0, 0);
  serial.run();

  ShardNet sharded(3);
  drive(sharded, 1, 2);
  sharded.run();

  ASSERT_EQ(serial.logs["c"].size(), 2u);
  // Same arrival instant, B's packet first (it was posted earlier).
  EXPECT_EQ(std::get<0>(serial.logs["c"][0]), std::get<0>(serial.logs["c"][1]));
  EXPECT_EQ(serial.logs, sharded.logs);

  // Determinism: a second sharded run reproduces the first bit-for-bit.
  ShardNet again(3);
  drive(again, 1, 2);
  again.run();
  EXPECT_EQ(sharded.logs, again.logs);
}

TEST(PdesUnit, ZeroLookaheadFallsBackToSerialOrder) {
  const auto drive = [](ShardNet& net, std::uint32_t shard_b) {
    net::Node& a = net.add("a", 0);
    net::Node& b = net.add("b", shard_b);
    net.network->connect(a, b, link_ms(0));  // zero-delay cross-shard link
    for (int i = 0; i < 5; ++i) {
      net.send_at(a, b, SimTime::milliseconds(2 * i), 300);
      net.send_at(b, a, SimTime::milliseconds(2 * i + 1), 500);
    }
  };
  ShardNet serial(1);
  drive(serial, 0);
  serial.run();
  ShardNet sharded(2);
  drive(sharded, 1);
  EXPECT_EQ(sharded.network->cross_shard_lookahead(), SimTime::zero());
  const auto stats = sharded.run();
  EXPECT_GT(stats.serial_fallbacks, 0u);
  EXPECT_EQ(stats.windows, 0u);  // no windowed execution happened
  EXPECT_EQ(serial.logs, sharded.logs);
}

TEST(PdesUnit, IndependentShardsNeedOneWindow) {
  // Two disjoint islands, no cross-shard link: lookahead is infinite and
  // both shards run to completion in a single window.
  const auto drive = [](ShardNet& net, std::uint32_t s2) {
    net::Node& a = net.add("a", 0);
    net::Node& b = net.add("b", 0);
    net::Node& c = net.add("c", s2);
    net::Node& d = net.add("d", s2);
    net.network->connect(a, b, link_ms(3));
    net.network->connect(c, d, link_ms(7));
    net.send_at(a, b, SimTime::milliseconds(1), 700);
    net.send_at(c, d, SimTime::milliseconds(2), 800);
  };
  ShardNet serial(1);
  drive(serial, 0);
  serial.run();
  ShardNet sharded(2);
  drive(sharded, 1);
  EXPECT_EQ(sharded.network->cross_shard_lookahead(), SimTime::infinity());
  const auto stats = sharded.run();
  EXPECT_EQ(stats.windows, 1u);
  EXPECT_EQ(stats.cross_shard_packets, 0u);
  EXPECT_EQ(serial.logs, sharded.logs);
}

// ---------------------------------------------------------------------------
// Scenario level: the acceptance contract. A full campaign sharded across
// kernels must reproduce the serial run byte-for-byte.
// ---------------------------------------------------------------------------

testbed::ScenarioOptions shard_scenario(std::size_t shards) {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.client_count = 6;
  opt.seed = 4242;
  opt.sim_shards = shards;
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

/// The exact TSV block `dyncdn_experiment` prints for a result.
std::string render_tsv(const testbed::ExperimentResult& r) {
  std::string out =
      "node\trtt_ms\tt_static_ms\tt_dynamic_ms\tt_delta_ms\toverall_ms\t"
      "samples\n";
  char row[256];
  for (const auto& n : r.per_node) {
    std::snprintf(row, sizeof(row), "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%zu\n",
                  n.node_name.c_str(), n.rtt_ms, n.med_static_ms,
                  n.med_dynamic_ms, n.med_delta_ms, n.med_overall_ms,
                  n.samples);
    out += row;
  }
  return out;
}

void expect_results_identical(const testbed::ExperimentResult& a,
                              const testbed::ExperimentResult& b) {
  ASSERT_EQ(a.boundary, b.boundary);
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
  EXPECT_EQ(render_tsv(a), render_tsv(b));
  EXPECT_EQ(obs::export_prometheus(a.metrics),
            obs::export_prometheus(b.metrics));
}

TEST(PdesScenario, ExperimentByteIdenticalAt1_2_4Shards) {
  const auto options = small_experiment();
  testbed::Scenario serial(shard_scenario(1));
  serial.warm_up();
  const auto base = testbed::run_fixed_fe_experiment(serial, 0, options);
  EXPECT_EQ(serial.shard_count(), 1u);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    testbed::Scenario sharded(shard_scenario(shards));
    EXPECT_EQ(sharded.shard_count(), shards);
    sharded.warm_up();
    const auto r = testbed::run_fixed_fe_experiment(sharded, 0, options);
    expect_results_identical(base, r);
    const auto& st = sharded.shard_stats();
    EXPECT_GT(st.windows, 0u) << shards << " shards";
    EXPECT_GT(st.cross_shard_packets, 0u) << shards << " shards";
  }
}

TEST(PdesScenario, LossAndReorderRetransmissionsStraddleBarriers) {
  // Lossy, reordering client links force RTO/fast retransmissions whose
  // timers (hundreds of ms) dwarf the cross-shard lookahead (a few ms of
  // FE<->BE propagation): every retransmission straddles many window
  // barriers and must land identically.
  const auto options = small_experiment();
  const auto lossy = [](std::size_t shards) {
    auto so = shard_scenario(shards);
    so.client_link_loss = 0.02;
    so.client_link_reorder = 0.05;
    return so;
  };
  testbed::Scenario serial(lossy(1));
  serial.warm_up();
  const auto base = testbed::run_fixed_fe_experiment(serial, 0, options);

  obs::MetricsRegistry m;
  serial.collect_metrics(m);
  EXPECT_GT(m.counter("tcp_retransmits_rto") + m.counter("tcp_retransmits_fast"),
            0u)
      << "loss regime produced no retransmissions - test is vacuous";

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    testbed::Scenario sharded(lossy(shards));
    sharded.warm_up();
    const auto r = testbed::run_fixed_fe_experiment(sharded, 0, options);
    expect_results_identical(base, r);
    EXPECT_GT(sharded.shard_stats().windows, 0u);
  }
}

TEST(PdesScenario, TraceContentMatchesSerial) {
#if !DYNCDN_OBS
  GTEST_SKIP() << "requires span instrumentation (DYNCDN_OBS=ON)";
#endif
  // Span ids and list order are shard-layout dependent (each shard records
  // into its own id range); the *content* — names, categories, timestamps,
  // parent linkage, arg/event counts — must match the serial run exactly.
  const auto fingerprint = [](obs::TraceSession& session) {
    const auto& spans = session.spans();
    std::map<obs::SpanId, const obs::SpanRecord*> by_id;
    for (const auto& s : spans) by_id[s.id] = &s;
    std::vector<std::string> out;
    out.reserve(spans.size());
    for (const auto& s : spans) {
      std::string parent = "-";
      if (auto it = by_id.find(s.parent); it != by_id.end()) {
        parent = it->second->name + "@" +
                 std::to_string(it->second->start.ns());
      }
      out.push_back(s.name + "|" + s.category + "|" +
                    std::to_string(s.start.ns()) + "|" +
                    std::to_string(s.end.ns()) + "|" +
                    std::to_string(s.args.size()) + "|" +
                    std::to_string(s.events.size()) + "|" + parent);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  const auto options = small_experiment();
  auto so = shard_scenario(1);
  so.enable_tracing = true;
  testbed::Scenario serial(so);
  serial.warm_up();
  const auto base = testbed::run_fixed_fe_experiment(serial, 0, options);
  auto so2 = shard_scenario(2);
  so2.enable_tracing = true;
  testbed::Scenario sharded(so2);
  sharded.warm_up();
  const auto r = testbed::run_fixed_fe_experiment(sharded, 0, options);

  expect_results_identical(base, r);
  ASSERT_NE(serial.trace(), nullptr);
  ASSERT_NE(sharded.trace(), nullptr);
  const auto a = fingerprint(*serial.trace());
  const auto b = fingerprint(*sharded.trace());
  ASSERT_GT(a.size(), 0u);
  EXPECT_EQ(a, b);
}

TEST(PdesScenario, KernelMetricsExposeShardCounters) {
  testbed::Scenario sharded(shard_scenario(2));
  sharded.warm_up();
  testbed::run_fixed_fe_experiment(sharded, 0, small_experiment());

  obs::MetricsRegistry km;
  sharded.collect_kernel_metrics(km);
  EXPECT_EQ(km.gauge("pdes_shards"), 2.0);
  EXPECT_GT(km.counter("sim_events_executed"), 0u);
  EXPECT_GT(km.counter("pdes_windows"), 0u);
  EXPECT_GT(km.counter("pdes_cross_shard_packets"), 0u);
}

TEST(PdesScenario, EnvVarSelectsShardsAndOptionWins) {
  setenv("DYNCDN_SIM_SHARDS", "2", 1);
  testbed::Scenario from_env(shard_scenario(0));
  EXPECT_EQ(from_env.shard_count(), 2u);
  testbed::Scenario explicit_opt(shard_scenario(3));
  EXPECT_EQ(explicit_opt.shard_count(), 3u);
  unsetenv("DYNCDN_SIM_SHARDS");
  testbed::Scenario serial(shard_scenario(0));
  EXPECT_EQ(serial.shard_count(), 1u);
}

TEST(PdesScenario, ComposesWithReplicaParallelism) {
  // Shards inside each scenario, replicas stolen across workers: every
  // combination of 1/2/4 worker threads and 1/2/4 shards must stay
  // byte-identical to the fully serial run. This doubles as the isolation
  // proof for the slab/arena allocators: packet and socket state comes
  // from per-thread slab pools, so any cross-shard reuse bug would show
  // up here as a divergent timing or metric.
  const auto options = small_experiment();
  testbed::ReplicaPlan plan;
  plan.executor.threads = 1;
  const auto base =
      testbed::run_fixed_fe_experiment(shard_scenario(1), 0, options, plan);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      if (threads == 1 && shards == 1) continue;  // the base run itself
      plan.executor.threads = threads;
      const auto r = testbed::run_fixed_fe_experiment(shard_scenario(shards),
                                                      0, options, plan);
      expect_results_identical(base, r);
    }
  }
}

}  // namespace
}  // namespace dyncdn
