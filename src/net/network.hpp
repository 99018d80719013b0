// The Network owns nodes and links, computes static shortest-path routes,
// and moves packets hop by hop. Topologies here are small (star/tree), but
// routing is a full Dijkstra so arbitrary graphs work. Routes are computed
// one source row at a time, only for nodes that actually send.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace dyncdn::net {

class Network {
 public:
  explicit Network(sim::Simulator& simulator) : simulator_(simulator) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Bind shard kernels for conservative parallel simulation. `sims[0]`
  /// must be the base simulator the Network was constructed with, and the
  /// call must precede any add_node(). Every simulator must share the base
  /// seed so named RNG streams are identical in every shard (each stream
  /// is consumed by exactly one component, which lives in exactly one
  /// shard). Serial topologies never call this.
  void set_shards(std::vector<sim::Simulator*> sims);
  std::size_t shard_count() const {
    return shard_sims_.empty() ? 1 : shard_sims_.size();
  }
  sim::Simulator& shard_simulator(std::size_t shard) {
    return shard_sims_.empty() ? simulator_ : *shard_sims_.at(shard);
  }

  /// Create a node. Names must be unique; they name RNG streams and traces.
  /// `shard` selects the kernel the node's components schedule on (always
  /// 0 — the base simulator — unless set_shards() was called first).
  Node& add_node(const std::string& name, GeoPoint location = {},
                 std::uint32_t shard = 0);

  /// Connect two nodes with a bidirectional link (two unidirectional links
  /// sharing `config` but with independent loss-model instances).
  void connect(Node& a, Node& b, const LinkConfig& config);

  /// Connect with asymmetric per-direction configs (a->b, b->a).
  void connect(Node& a, Node& b, const LinkConfig& a_to_b,
               const LinkConfig& b_to_a);

  /// Route a packet from `from` towards packet->dst. Drops (with a counter)
  /// if no route exists. Computes `from`'s route row first if the topology
  /// changed since it was last computed.
  void route(NodeId from, PacketPtr packet);

  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  Node* find_node(const std::string& name);

  sim::Simulator& simulator() { return simulator_; }

  std::size_t node_count() const { return nodes_.size(); }
  std::uint64_t no_route_drops() const;

  /// Packets that entered the network (route() calls, local delivery
  /// included) and distinct packet ids issued, for the metrics layer.
  /// Both counters are kept per shard / per node so parallel shards never
  /// contend on a shared word; the totals are shard-layout invariant.
  std::uint64_t packets_routed() const;
  std::uint64_t packets_created() const;

  /// Minimum propagation delay over links whose endpoints live in
  /// different shards — the conservative lookahead. SimTime::infinity()
  /// when no such link exists (shards are fully independent); zero means
  /// windows degenerate and the runner must fall back to serial order.
  sim::SimTime cross_shard_lookahead() const { return min_cross_delay_; }

  /// Compute every stale route row. The shard runner calls this before
  /// spawning workers, so parallel route() calls only ever read rows: a
  /// row must never be computed lazily while shards execute in parallel.
  void prepare_run();

  /// Dijkstra rows computed so far (one per source node per topology
  /// generation in which it sent, or all stale rows at prepare_run()).
  std::uint64_t route_rows_computed() const { return route_rows_; }

  /// Window-barrier drain: schedule every staged cross-shard packet on its
  /// destination shard at its recorded arrival time. Packets drain sorted
  /// by (arrival, source post time) — the order the serial kernel would
  /// have inserted the delivery events — with (link creation order, FIFO)
  /// as the stable tie-break, so same-timestamp arrivals from different
  /// shards are processed exactly as in a serial run. Runs on the
  /// coordinating thread only. Returns the number of packets flushed.
  std::size_t flush_mailboxes();
  bool mailboxes_empty() const;

  /// Element-wise sum of every directed link's counters.
  LinkStats aggregate_link_stats() const;

  /// aggregate_link_stats() with delivery re-expressed at ARRIVAL time for
  /// every link. Cross-shard links count packets_delivered/bytes_delivered
  /// at transmit (the destination shard must never touch the source link's
  /// state), so the raw aggregate depends on which links straddle the
  /// shard cut while packets are in flight. This view subtracts the
  /// transmit-time cross-shard counts and adds back arrivals that have
  /// actually executed, making mid-run snapshots (the time-series sampler)
  /// identical at every shard layout. At quiescence the two views agree.
  /// Call only while no shard worker is running (e.g. at a tick barrier).
  LinkStats sampled_link_stats() const;

  /// One-way shortest-path propagation delay between two nodes (sum of link
  /// propagation delays; ignores bandwidth). Infinity if unreachable.
  sim::SimTime path_delay(NodeId a, NodeId b) const;

  /// Link carrying traffic from `a` on the first hop toward `b`, or null.
  Link* first_hop_link(NodeId a, NodeId b);

  /// Payload readers: components that look at the *bytes* of payloads on
  /// this network, not only at their lengths (a TraceRecorder capturing
  /// payloads, an FE that replays cached results). A producer whose bytes
  /// only such a reader could tell apart (the BE's dynamic body) writes
  /// real content only while the count is nonzero. A plain counter: only
  /// host code changes it, and only between runs, so shard workers only
  /// ever read it.
  void add_payload_reader() { ++payload_readers_; }
  void remove_payload_reader() { --payload_readers_; }
  std::size_t payload_readers() const { return payload_readers_; }

 private:
  struct Edge {
    NodeId to;
    std::unique_ptr<Link> link;
  };

  /// Staged cross-shard packets for one directed link, in transmit order.
  struct Mailbox {
    struct Staged {
      sim::SimTime arrival;  // delivery time on the destination clock
      sim::SimTime posted;   // source-shard clock when the link posted it
      PacketPtr packet;
    };
    Node* dst = nullptr;
    sim::Simulator* dst_sim = nullptr;
    std::vector<Staged> staged;
    /// Transmit-time delivery counts for this directed link (the amounts
    /// its Link::stats() recorded early). Written only by the source
    /// shard's thread via the post closure.
    std::uint64_t posted_packets = 0;
    std::uint64_t posted_bytes = 0;
  };

  /// Cross-shard arrivals that have executed, indexed by destination
  /// shard: each slot is written only by that shard's worker thread.
  /// Padded so neighbouring shards never share a cache line.
  struct alignas(64) ShardArrivals {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };

  using DijkstraHeap = std::vector<std::pair<std::int64_t, std::uint32_t>>;

  /// Make `src`'s route row current. The generation check is inline so the
  /// per-packet cost stays one compare; the Dijkstra runs out of line.
  void ensure_row(std::uint32_t src) {
    if (row_gen_[src] != topology_gen_) compute_row(src);
  }
  void compute_row(std::uint32_t src);
  /// The one shortest-path routine: fills `dist` (propagation ns, int64 max
  /// = unreached) from `src` and, when `first_link` is non-null, the first
  /// link of each shortest path (first_link[v], indexed by node id).
  void dijkstra(std::uint32_t src, std::vector<std::int64_t>& dist,
                DijkstraHeap& heap, Link** first_link) const;

  sim::Simulator& simulator_;
  std::vector<sim::Simulator*> shard_sims_;  // empty = serial (base only)
  std::vector<std::unique_ptr<Node>> nodes_;  // index = id - 1
  std::unordered_map<std::string, NodeId> by_name_;
  /// Outgoing edges indexed by node id value (ids are 1-based; slot 0 is
  /// unused). Dense: node ids are issued contiguously by add_node().
  std::vector<std::vector<Edge>> adjacency_;
  /// Every directed link in creation order — the flat iteration order for
  /// aggregate_link_stats(), which runs on the per-tick sampling path.
  std::vector<const Link*> all_links_;
  /// Flat next-hop matrix: next_hop_[src * stride + dst] is the link that
  /// carries traffic from src toward dst (null = no route), with
  /// stride = nodes_.size() + 1. Row src is valid only while
  /// row_gen_[src] == topology_gen_; route() is then one compare, one
  /// multiply-add and a load.
  std::vector<Link*> next_hop_;
  std::size_t next_hop_stride_ = 0;
  /// Bumped by every add_node()/connect(). row_gen_[src] (indexed by node
  /// id; slot 0 unused) is the generation row src was computed at, 0 for
  /// never. Rows are computed only from serial context (lazily by route()
  /// outside shard windows, or by prepare_run()).
  std::uint64_t topology_gen_ = 1;
  std::vector<std::uint64_t> row_gen_;
  std::uint64_t route_rows_ = 0;
  /// Dijkstra scratch reused across rows, so computing a row allocates
  /// nothing at steady state.
  std::vector<std::int64_t> dijkstra_dist_;
  DijkstraHeap dijkstra_heap_;
  /// One mailbox per cross-shard directed link, in creation order.
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<ShardArrivals> arrivals_by_shard_;
  sim::SimTime min_cross_delay_ = sim::SimTime::infinity();
  /// Indexed by the source node's shard: parallel route() calls from
  /// different shards each mutate their own slot, never a shared word.
  std::vector<std::uint64_t> no_route_by_shard_ = {0};
  std::vector<std::uint64_t> routed_by_shard_ = {0};
  std::size_t payload_readers_ = 0;

  friend class Node;
};

}  // namespace dyncdn::net
