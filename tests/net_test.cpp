// Unit tests for the network substrate: payload views, packet and payload
// memory across threads, loss models, links (delay, serialization,
// queuing), routing and geo math.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/geo.hpp"
#include "net/link.hpp"
#include "net/loss_model.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "obs/memory.hpp"
#include "sim/simulator.hpp"

namespace dyncdn::net {
namespace {

using sim::SimTime;
using namespace dyncdn::sim::literals;

PacketPtr make_packet(NodeId src, NodeId dst, std::size_t payload_bytes) {
  auto p = acquire_packet();
  p->src = src;
  p->dst = dst;
  if (payload_bytes > 0) {
    p->payload.buffer = make_buffer(std::vector<std::uint8_t>(payload_bytes, 0xAB));
    p->payload.length = payload_bytes;
  }
  return p;
}

TEST(PayloadRef, SliceWithinBounds) {
  Buffer buf = make_buffer("hello world");
  PayloadRef ref{buf, 0, buf->size()};
  EXPECT_EQ(ref.slice(6, 5).to_text(), "world");
  EXPECT_EQ(ref.slice(0, 5).to_text(), "hello");
}

TEST(PayloadRef, SliceClampsAtEnd) {
  Buffer buf = make_buffer("abcdef");
  PayloadRef ref{buf, 0, 6};
  EXPECT_EQ(ref.slice(4, 100).to_text(), "ef");
  EXPECT_TRUE(ref.slice(6, 1).empty());
  EXPECT_TRUE(ref.slice(99, 1).empty());
}

TEST(PayloadRef, NestedSliceUsesAbsoluteOffsets) {
  Buffer buf = make_buffer("0123456789");
  PayloadRef mid = PayloadRef{buf, 0, 10}.slice(2, 6);  // "234567"
  EXPECT_EQ(mid.slice(1, 3).to_text(), "345");
}

TEST(Packet, WireSizeIncludesHeaders) {
  auto p = make_packet(NodeId{1}, NodeId{2}, 100);
  EXPECT_EQ(p->payload_size(), 100u);
  EXPECT_EQ(p->wire_size(), 140u);
  EXPECT_FALSE(p->to_string().empty());
}

// A shard worker's thread exits at the end of every windowed run, while
// the scenario and its packets live on. Blocks acquired on such a thread
// must stay valid after it is joined, and reusing them on this thread and
// on a new one must never hand one block out twice.
TEST(PacketMemory, BlocksOutliveTheThreadThatAcquiredThem) {
  PacketPtr packet;
  Buffer buffer;
  std::thread([&packet, &buffer] {
    packet = make_packet(NodeId{1}, NodeId{2}, 100);
    buffer = make_buffer("acquired on a worker");
  }).join();
  EXPECT_EQ(packet->payload_size(), 100u);
  EXPECT_EQ(packet->payload.bytes()[99], 0xAB);
  EXPECT_EQ(PayloadRef(buffer, 0, buffer->size()).to_text(),
            "acquired on a worker");
  packet.reset();
  buffer.reset();

  // More than one batch of packet blocks on each side, so both this
  // thread's cache and the new thread's carve or refill while the joined
  // thread's blocks are back in circulation.
  constexpr std::uint64_t kBlocks = 600;
  const auto fill = [](std::vector<PacketPtr>& packets,
                       std::vector<Buffer>& buffers, std::uint64_t first) {
    for (std::uint64_t i = first; i < first + kBlocks; ++i) {
      packets.push_back(make_packet(NodeId{1}, NodeId{2}, 0));
      packets.back()->id = i;
      buffers.push_back(make_buffer(std::to_string(i)));
    }
  };
  std::vector<PacketPtr> packets;
  std::vector<Buffer> buffers;
  fill(packets, buffers, 0);
  std::vector<PacketPtr> other_packets;
  std::vector<Buffer> other_buffers;
  std::thread([&] { fill(other_packets, other_buffers, kBlocks); }).join();
  packets.insert(packets.end(), other_packets.begin(), other_packets.end());
  buffers.insert(buffers.end(), other_buffers.begin(), other_buffers.end());

  std::set<const void*> seen;
  for (std::uint64_t i = 0; i < packets.size(); ++i) {
    EXPECT_TRUE(seen.insert(packets[i].get()).second) << "packet " << i;
    EXPECT_TRUE(seen.insert(buffers[i].get()).second) << "buffer " << i;
    EXPECT_EQ(packets[i]->id, i);
    EXPECT_EQ(PayloadRef(buffers[i], 0, buffers[i]->size()).to_text(),
              std::to_string(i));
  }
}

// A thread_local constructed before the thread's first packet is destroyed
// after the thread's block caches, so the packet and buffer it holds are
// released when those caches are gone. The blocks must go home without
// touching them (under ASan a push into a destroyed cache is a
// heap-use-after-free), and stay usable by threads that come later.
struct HeldPastTheCaches {
  PacketPtr packet;
  Buffer buffer;
};

TEST(PacketMemory, ReleaseAfterTheThreadsCachesAreGone) {
  for (int round = 0; round < 3; ++round) {
    std::thread([] {
      thread_local HeldPastTheCaches held;
      held.packet = make_packet(NodeId{1}, NodeId{2}, 100);
      held.buffer = make_buffer("held until thread exit");
    }).join();
  }
  // Blocks handed home that way are reused like any other.
  PacketPtr packet;
  std::thread([&packet] {
    thread_local HeldPastTheCaches held;
    held.packet = make_packet(NodeId{3}, NodeId{4}, 100);
    packet = held.packet;
  }).join();
  EXPECT_EQ(packet.use_count(), 1u);
  EXPECT_EQ(packet->src, NodeId{3});
  EXPECT_EQ(packet->payload.bytes()[99], 0xAB);
  packet.reset();
  const PacketPtr fresh = make_packet(NodeId{5}, NodeId{6}, 100);
  EXPECT_EQ(fresh->payload.bytes()[0], 0xAB);
}

// Across a cross-shard cut the receiver's TCP reassembly keeps zero-copy
// slices of the sender's payload buffer, so two shard workers copy and
// drop references to one buffer at the same time. The count must stay
// exact, and the drop that ends the last reference frees the buffer
// exactly once.
TEST(PacketMemory, BufferCountSurvivesConcurrentCopiesAndDrops) {
  constexpr int kCopies = 200000;
  Buffer shared = make_buffer(std::string(1000, 'x'));
  std::atomic<int> ready{0};
  const auto hammer = [&ready](Buffer mine) {
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    // Round-robin over a few handles: each assignment takes a reference
    // and drops the one that slot held before.
    Buffer held[8];
    for (int i = 0; i < kCopies; ++i) held[i % 8] = mine;
  };
  std::thread a(hammer, shared);
  std::thread b(hammer, shared);
  a.join();
  b.join();
  EXPECT_EQ(shared.use_count(), 1u);

  // Each round's buffer has exactly two references, one per thread, and
  // both threads drop them at once. Above the top size class, so a free
  // is a heap delete the allocation tracker sees (when compiled in).
  constexpr std::size_t kRounds = 256;
  std::vector<Buffer> left;
  std::vector<Buffer> right;
  left.reserve(kRounds);
  right.reserve(kRounds);
  const std::uint64_t live_before = obs::memory_snapshot().live_bytes;
  for (std::size_t i = 0; i < kRounds; ++i) {
    left.push_back(Buffer::adopt(allocate_bytebuf(70000)));
    right.push_back(left.back());
  }
  ready.store(0);
  const auto drop_all = [&ready](std::vector<Buffer>& mine) {
    ready.fetch_add(1);
    while (ready.load() < 2) {
    }
    for (Buffer& buf : mine) buf.reset();
  };
  std::thread c(drop_all, std::ref(left));
  std::thread d(drop_all, std::ref(right));
  c.join();
  d.join();
  if (obs::memory_tracking_enabled()) {
    EXPECT_EQ(obs::memory_snapshot().live_bytes, live_before);
  }
}

TEST(FlowIdentity, ReverseSwapsEndpoints) {
  const FlowId f{Endpoint{NodeId{1}, 10}, Endpoint{NodeId{2}, 20}};
  const FlowId r = f.reversed();
  EXPECT_EQ(r.local.node, NodeId{2});
  EXPECT_EQ(r.remote.port, 10);
  EXPECT_EQ(r.reversed(), f);
}

TEST(LossModels, BernoulliRateIsApproximate) {
  sim::RngStream rng(7);
  BernoulliLoss loss(0.2);
  int drops = 0;
  for (int i = 0; i < 20000; ++i) {
    if (loss.should_drop(rng)) ++drops;
  }
  EXPECT_NEAR(drops / 20000.0, 0.2, 0.02);
}

TEST(LossModels, NoLossNeverDrops) {
  sim::RngStream rng(7);
  NoLoss loss;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(loss.should_drop(rng));
}

TEST(LossModels, BernoulliRejectsBadProbability) {
  EXPECT_THROW(BernoulliLoss(-0.1), std::invalid_argument);
  EXPECT_THROW(BernoulliLoss(1.5), std::invalid_argument);
}

TEST(LossModels, GilbertElliottAverageRate) {
  GilbertElliottLoss ge(0.01, 0.2, 0.0, 0.3);
  // pi_bad = 0.01/0.21, avg = pi_bad * 0.3
  EXPECT_NEAR(ge.average_loss_rate(), (0.01 / 0.21) * 0.3, 1e-9);

  sim::RngStream rng(11);
  int drops = 0;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    if (ge.should_drop(rng)) ++drops;
  }
  EXPECT_NEAR(drops / static_cast<double>(kTrials), ge.average_loss_rate(),
              0.005);
}

TEST(LossModels, GilbertElliottBursty) {
  // With sticky states, losses should cluster: measure the probability that
  // a drop is followed by another drop; it must exceed the marginal rate.
  GilbertElliottLoss ge(0.005, 0.1, 0.0, 0.5);
  sim::RngStream rng(13);
  int drops = 0, pairs = 0, prev = 0;
  const int kTrials = 300000;
  for (int i = 0; i < kTrials; ++i) {
    const int d = ge.should_drop(rng) ? 1 : 0;
    drops += d;
    if (prev && d) ++pairs;
    prev = d;
  }
  const double marginal = drops / static_cast<double>(kTrials);
  const double conditional = pairs / static_cast<double>(drops);
  EXPECT_GT(conditional, 2.0 * marginal);
}

TEST(Link, PropagationDelayOnly) {
  sim::Simulator simulator;
  SimTime arrival = SimTime::zero();
  LinkConfig cfg;
  cfg.propagation_delay = 25_ms;
  cfg.bandwidth_bps = 0;  // infinite
  Link link(simulator, cfg, [&](PacketPtr) { arrival = simulator.now(); },
            "test");
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 1000));
  simulator.run();
  EXPECT_EQ(arrival, 25_ms);
}

TEST(Link, SerializationDelayAddsUp) {
  sim::Simulator simulator;
  std::vector<SimTime> arrivals;
  LinkConfig cfg;
  cfg.propagation_delay = 10_ms;
  cfg.bandwidth_bps = 8e6;  // 8 Mbit/s -> 1000 bytes per ms
  Link link(simulator, cfg,
            [&](PacketPtr) { arrivals.push_back(simulator.now()); }, "test");
  // Two packets of 960B payload -> 1000B wire -> 1ms serialization each.
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 11_ms);  // 1ms tx + 10ms prop
  EXPECT_EQ(arrivals[1], 12_ms);  // queued behind the first
}

TEST(Link, QueueOverflowDropsTail) {
  sim::Simulator simulator;
  int delivered = 0;
  LinkConfig cfg;
  cfg.propagation_delay = 1_ms;
  cfg.bandwidth_bps = 8e6;
  cfg.queue_capacity = 4;
  Link link(simulator, cfg, [&](PacketPtr) { ++delivered; }, "test");
  for (int i = 0; i < 10; ++i) {
    link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  }
  simulator.run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(link.stats().drops_queue, 6u);
  EXPECT_EQ(link.stats().packets_delivered, 4u);
  EXPECT_EQ(link.stats().packets_offered, 10u);
}

TEST(Link, QueueDrainsOverTime) {
  sim::Simulator simulator;
  int delivered = 0;
  LinkConfig cfg;
  cfg.propagation_delay = 1_ms;
  cfg.bandwidth_bps = 8e6;
  cfg.queue_capacity = 2;
  Link link(simulator, cfg, [&](PacketPtr) { ++delivered; }, "test");
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  simulator.run();  // drain
  link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));
  simulator.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().drops_queue, 0u);
}

TEST(Link, LossModelDropsPackets) {
  sim::Simulator simulator;
  int delivered = 0;
  LinkConfig cfg;
  cfg.propagation_delay = 1_ms;
  cfg.bandwidth_bps = 0;
  cfg.queue_capacity = 2000;  // all packets enqueue before the run drains
  cfg.loss_factory = [] { return make_bernoulli_loss(0.5); };
  Link link(simulator, cfg, [&](PacketPtr) { ++delivered; }, "lossy");
  for (int i = 0; i < 1000; ++i) {
    link.transmit(make_packet(NodeId{1}, NodeId{2}, 100));
  }
  simulator.run();
  EXPECT_NEAR(delivered, 500, 80);
  EXPECT_EQ(link.stats().drops_loss + link.stats().packets_delivered, 1000u);
}

TEST(Network, DirectDelivery) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& b = network.add_node("b");
  LinkConfig cfg;
  cfg.propagation_delay = 5_ms;
  cfg.bandwidth_bps = 0;  // exact arrival-time check below
  network.connect(a, b, cfg);

  PacketPtr received;
  b.set_receive_handler([&](const PacketPtr& p) { received = p; });
  a.send(make_packet(a.id(), b.id(), 10));
  simulator.run();
  ASSERT_NE(received, nullptr);
  EXPECT_EQ(received->src, a.id());
  EXPECT_EQ(simulator.now(), 5_ms);
}

TEST(Network, MultiHopRoutingThroughRelay) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& relay = network.add_node("relay");
  Node& b = network.add_node("b");
  LinkConfig cfg;
  cfg.propagation_delay = 5_ms;
  cfg.bandwidth_bps = 0;
  network.connect(a, relay, cfg);
  network.connect(relay, b, cfg);
  // The relay node forwards anything not addressed to it.
  relay.set_receive_handler([](const PacketPtr&) {
    FAIL() << "relay must not locally deliver transit packets";
  });

  bool got = false;
  b.set_receive_handler([&](const PacketPtr&) { got = true; });
  a.send(make_packet(a.id(), b.id(), 10));
  simulator.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(simulator.now(), 10_ms);  // two 5ms hops
}

TEST(Network, ShortestPathPreferred) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& slow = network.add_node("slow");
  Node& fast = network.add_node("fast");
  Node& b = network.add_node("b");
  LinkConfig slow_cfg;
  slow_cfg.propagation_delay = 50_ms;
  slow_cfg.bandwidth_bps = 0;
  LinkConfig fast_cfg;
  fast_cfg.propagation_delay = 5_ms;
  fast_cfg.bandwidth_bps = 0;
  network.connect(a, slow, slow_cfg);
  network.connect(slow, b, slow_cfg);
  network.connect(a, fast, fast_cfg);
  network.connect(fast, b, fast_cfg);

  bool got = false;
  b.set_receive_handler([&](const PacketPtr&) { got = true; });
  a.send(make_packet(a.id(), b.id(), 10));
  simulator.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(simulator.now(), 10_ms);  // via fast path
  EXPECT_EQ(network.path_delay(a.id(), b.id()), 10_ms);
}

TEST(Network, NoRouteIncrementsDropCounter) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  network.add_node("island");
  a.send(make_packet(a.id(), NodeId{2}, 10));
  simulator.run();
  EXPECT_EQ(network.no_route_drops(), 1u);
}

TEST(Network, OnDemandRouteRowsMatchFreshNetwork) {
  // Interleave topology changes with sends on one network, so rows are
  // computed on demand at many generations, then compare every first hop
  // with a network built directly in its final shape and filled by
  // prepare_run(). Delays come from {1,2,3} ms, so equal-cost paths are
  // common and tie-breaking must agree too. Routing ignores bandwidth, so
  // each edge carries its creation index there: (source, tag) names a
  // directed link in either network.
  std::mt19937 gen(20240607);
  struct EdgeSpec {
    std::uint32_t a, b;
    LinkConfig cfg;
  };
  std::vector<EdgeSpec> edges;
  sim::Simulator lazy_sim(1);
  Network lazy(lazy_sim);
  std::uint32_t nodes = 0;
  const auto pick = [&] { return 1 + static_cast<std::uint32_t>(gen() % nodes); };
  for (int step = 0; step < 400; ++step) {
    const unsigned action = gen() % 4;
    if (nodes < 2 || (action == 0 && nodes < 40)) {
      lazy.add_node("n" + std::to_string(nodes++));
    } else if (action == 1) {
      const std::uint32_t a = pick(), b = pick();
      if (a == b) continue;
      LinkConfig cfg;
      cfg.propagation_delay = SimTime::milliseconds(1 + gen() % 3);
      cfg.bandwidth_bps = 1e9 + static_cast<double>(edges.size());
      edges.push_back(EdgeSpec{a, b, cfg});
      lazy.connect(lazy.node(NodeId{a}), lazy.node(NodeId{b}), cfg);
    } else {
      const std::uint32_t from = pick(), to = pick();
      if (from == to) continue;
      lazy.route(NodeId{from}, make_packet(NodeId{from}, NodeId{to}, 0));
    }
  }
  lazy_sim.run();  // transit hops route through on-demand rows as well

  sim::Simulator fresh_sim(1);
  Network fresh(fresh_sim);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    fresh.add_node("n" + std::to_string(n));
  }
  for (const EdgeSpec& e : edges) {
    fresh.connect(fresh.node(NodeId{e.a}), fresh.node(NodeId{e.b}), e.cfg);
  }
  fresh.prepare_run();
  EXPECT_EQ(fresh.route_rows_computed(), nodes);
  fresh.prepare_run();  // nothing is stale any more
  EXPECT_EQ(fresh.route_rows_computed(), nodes);

  std::size_t routed_pairs = 0;
  for (std::uint32_t a = 1; a <= nodes; ++a) {
    for (std::uint32_t b = 1; b <= nodes; ++b) {
      const Link* want = fresh.first_hop_link(NodeId{a}, NodeId{b});
      const Link* got = lazy.first_hop_link(NodeId{a}, NodeId{b});
      ASSERT_EQ(want == nullptr, got == nullptr) << a << "->" << b;
      if (want == nullptr) continue;
      EXPECT_EQ(want->config().bandwidth_bps, got->config().bandwidth_bps)
          << a << "->" << b;
      ++routed_pairs;
    }
  }
  EXPECT_GT(routed_pairs, 0u);
}

TEST(Network, DuplicateNodeNameThrows) {
  sim::Simulator simulator;
  Network network(simulator);
  network.add_node("x");
  EXPECT_THROW(network.add_node("x"), std::invalid_argument);
}

TEST(Network, FindNodeByName) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("alpha");
  EXPECT_EQ(network.find_node("alpha"), &a);
  EXPECT_EQ(network.find_node("missing"), nullptr);
}

TEST(Network, SendTapsAndReceiveTapsFire) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& b = network.add_node("b");
  LinkConfig cfg;
  cfg.propagation_delay = 1_ms;
  network.connect(a, b, cfg);
  int sends = 0, recvs = 0;
  a.add_send_tap([&](const PacketPtr&) { ++sends; });
  b.add_receive_tap([&](const PacketPtr&) { ++recvs; });
  b.set_receive_handler([](const PacketPtr&) {});
  a.send(make_packet(a.id(), b.id(), 5));
  simulator.run();
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
}

TEST(Network, PathDelayUnreachableIsInfinite) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& b = network.add_node("b");
  EXPECT_TRUE(network.path_delay(a.id(), b.id()).is_infinite());
  EXPECT_EQ(network.path_delay(a.id(), a.id()), SimTime::zero());
}

TEST(Link, BottleneckQueueingDelayGrowsLinearly) {
  // 10 packets into a 8Mbit/s link arrive 1ms apart: the k-th packet waits
  // k serialization slots.
  sim::Simulator simulator;
  std::vector<SimTime> arrivals;
  LinkConfig cfg;
  cfg.propagation_delay = 2_ms;
  cfg.bandwidth_bps = 8e6;  // 1000 B/ms
  Link link(simulator, cfg,
            [&](PacketPtr) { arrivals.push_back(simulator.now()); }, "bn");
  for (int i = 0; i < 10; ++i) {
    link.transmit(make_packet(NodeId{1}, NodeId{2}, 960));  // 1000B wire
  }
  simulator.run();
  ASSERT_EQ(arrivals.size(), 10u);
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    EXPECT_EQ(arrivals[k],
              SimTime::milliseconds(static_cast<std::int64_t>(k + 1)) + 2_ms)
        << k;
  }
}

TEST(Link, ReorderingDelaysSomePackets) {
  sim::Simulator simulator;
  std::vector<std::uint64_t> order;
  LinkConfig cfg;
  cfg.propagation_delay = 5_ms;
  cfg.bandwidth_bps = 0;
  cfg.reorder_probability = 0.5;
  cfg.reorder_extra_delay = 4_ms;
  Link link(simulator, cfg,
            [&](PacketPtr p) { order.push_back(p->id); }, "reord");
  for (std::uint64_t i = 1; i <= 200; ++i) {
    auto p = make_packet(NodeId{1}, NodeId{2}, 100);
    p->id = i;
    link.transmit(std::move(p));
  }
  simulator.run();
  ASSERT_EQ(order.size(), 200u);
  EXPECT_GT(link.stats().packets_reordered, 50u);
  // Delivery must NOT be in id order (some overtaking happened)...
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
  // ...but every packet arrived exactly once.
  std::vector<std::uint64_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint64_t i = 1; i <= 200; ++i) EXPECT_EQ(sorted[i - 1], i);
}

TEST(Network, AsymmetricLinkDirectionsHonored) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  Node& b = network.add_node("b");
  LinkConfig fast;
  fast.propagation_delay = 2_ms;
  fast.bandwidth_bps = 0;
  LinkConfig slow;
  slow.propagation_delay = 30_ms;
  slow.bandwidth_bps = 0;
  network.connect(a, b, fast, slow);

  SimTime a_to_b, b_to_a;
  b.set_receive_handler([&](const PacketPtr&) { a_to_b = simulator.now(); });
  a.set_receive_handler([&](const PacketPtr&) { b_to_a = simulator.now(); });
  a.send(make_packet(a.id(), b.id(), 10));
  simulator.run();
  b.send(make_packet(b.id(), a.id(), 10));
  simulator.run();
  EXPECT_EQ(a_to_b, 2_ms);
  EXPECT_EQ(b_to_a, 32_ms);
}

TEST(Network, SelfAddressedPacketDeliversLocally) {
  sim::Simulator simulator;
  Network network(simulator);
  Node& a = network.add_node("a");
  bool got = false;
  a.set_receive_handler([&](const PacketPtr&) { got = true; });
  a.send(make_packet(a.id(), a.id(), 10));
  simulator.run();
  EXPECT_TRUE(got);
}

TEST(Geo, HaversineKnownDistance) {
  // Minneapolis to Chicago is roughly 355 miles.
  const GeoPoint msp{44.98, -93.27};
  const GeoPoint chi{41.88, -87.63};
  EXPECT_NEAR(haversine_miles(msp, chi), 355.0, 15.0);
  EXPECT_NEAR(haversine_km(msp, chi), 571.0, 25.0);
}

TEST(Geo, ZeroDistanceSamePoint) {
  const GeoPoint p{40.0, -100.0};
  EXPECT_DOUBLE_EQ(haversine_miles(p, p), 0.0);
  EXPECT_EQ(propagation_delay(p, p), SimTime::zero());
}

TEST(Geo, PropagationDelayScalesWithDistance) {
  // 124 miles of fiber ~ 1ms one way.
  EXPECT_NEAR(propagation_delay_miles(124.0).to_milliseconds(), 1.0, 1e-6);
  EXPECT_NEAR(propagation_delay_miles(1240.0).to_milliseconds(), 10.0, 1e-6);
}

TEST(Geo, MilesForDelayInvertsDelay) {
  const double miles = 345.0;
  EXPECT_NEAR(miles_for_delay(propagation_delay_miles(miles)), miles, 0.01);
}

}  // namespace
}  // namespace dyncdn::net
