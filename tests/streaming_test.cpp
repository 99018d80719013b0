// Streaming-analysis tests. StreamingAnalyzer is the only packet-level
// timeline extractor: post-hoc analysis (extract_all_timelines, capture-mode
// experiments) replays stored records through it and drains once with the
// boundary. These tests check that collapsing flows online, at teardown,
// gives the same timelines, experiment TSVs and metrics as that deferred
// drain at tolerance 0 — including invalid_reason strings — on clean,
// reordered, retransmitted and interleaved inputs, and at 1, 2 and 4 worker
// threads. Golden digests pin every timeline field to the answers of the
// earlier split-per-flow extractor, so the surviving path cannot drift.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/reassembly.hpp"
#include "analysis/streaming.hpp"
#include "analysis/timeline.hpp"
#include "capture/recorder.hpp"
#include "net/packet.hpp"
#include "harness.hpp"
#include "obs/export_prometheus.hpp"
#include "tcp/stack.hpp"
#include "testbed/experiment.hpp"
#include "testbed/parallel_experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn::analysis {
namespace {

using dyncdn::testing::pattern_text;
using dyncdn::testing::TwoNodeHarness;
using dyncdn::testing::TwoNodeOptions;
using sim::SimTime;
using namespace dyncdn::sim::literals;

constexpr net::Port kPort = 80;

/// Tolerance-0 comparison of every field the analysis pipeline consumes.
void expect_timeline_eq(const QueryTimeline& a, const QueryTimeline& b,
                        const char* what) {
  EXPECT_EQ(a.flow, b.flow) << what;
  EXPECT_EQ(a.valid, b.valid) << what;
  EXPECT_EQ(a.invalid_reason, b.invalid_reason) << what;
  EXPECT_EQ(a.tb, b.tb) << what;
  EXPECT_EQ(a.t_synack, b.t_synack) << what;
  EXPECT_EQ(a.t1, b.t1) << what;
  EXPECT_EQ(a.t2, b.t2) << what;
  EXPECT_EQ(a.t3, b.t3) << what;
  EXPECT_EQ(a.t4, b.t4) << what;
  EXPECT_EQ(a.t5, b.t5) << what;
  EXPECT_EQ(a.te, b.te) << what;
  EXPECT_EQ(a.response_bytes, b.response_bytes) << what;
  EXPECT_EQ(a.boundary, b.boundary) << what;
}

void expect_timelines_eq(const std::vector<QueryTimeline>& streaming,
                         const std::vector<QueryTimeline>& post_hoc) {
  ASSERT_EQ(streaming.size(), post_hoc.size());
  for (std::size_t i = 0; i < streaming.size(); ++i) {
    expect_timeline_eq(streaming[i], post_hoc[i],
                       ("flow " + std::to_string(i)).c_str());
  }
}

/// 64-bit FNV-1a; the golden digests below are pinned in it.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return h;
}

/// One canonical text line per timeline — flow, valid, invalid_reason,
/// every event time in nanoseconds, response_bytes and boundary — hashed.
/// The golden pins below were computed with the split-per-flow extractor
/// that replay through StreamingAnalyzer replaced.
std::uint64_t timelines_digest(const std::vector<QueryTimeline>& timelines) {
  std::string text;
  for (const QueryTimeline& tl : timelines) {
    text += tl.flow.to_string() + '|' + (tl.valid ? "1" : "0") + '|' +
            tl.invalid_reason;
    for (const SimTime t : {tl.tb, tl.t_synack, tl.t1, tl.t2, tl.t3, tl.t4,
                            tl.t5, tl.te}) {
      text += '|' + std::to_string(t.ns());
    }
    text += '|' + std::to_string(tl.response_bytes) + '|' +
            std::to_string(tl.boundary) + '\n';
  }
  return fnv1a(text);
}

/// The post-hoc answers for `trace` match their golden digest, and the
/// single-flow extractor agrees with the all-flows replay on every flow.
void expect_post_hoc(const capture::PacketTrace& trace,
                     const std::vector<QueryTimeline>& post_hoc,
                     std::size_t boundary, std::uint64_t golden) {
  EXPECT_EQ(timelines_digest(post_hoc), golden)
      << "actual digest 0x" << std::hex << timelines_digest(post_hoc);
  for (const QueryTimeline& tl : post_hoc) {
    expect_timeline_eq(extract_timeline(trace, tl.flow, boundary), tl,
                       "extract_timeline");
  }
}

// ---------------------------------------------------------------------------
// Harness-level equivalence: the recorder both retains the trace AND feeds
// the analyzer, so post-hoc and streaming analysis see the exact same
// capture of a real TCP exchange.
// ---------------------------------------------------------------------------

/// Serves a static burst immediately and a dynamic burst after a delay
/// (same mini front-end the analysis tests use).
struct MiniFrontEnd {
  std::string static_part;
  std::string dynamic_part;
  SimTime fetch_delay = 120_ms;
  sim::Simulator* simulator = nullptr;

  void install(tcp::TcpStack& stack) {
    simulator = &stack.simulator();
    stack.listen(kPort, [this](tcp::TcpSocket& s) {
      tcp::TcpSocket::Callbacks cb;
      cb.on_data = [this, &s](net::PayloadRef) {
        s.send_text(static_part);
        simulator->schedule_in(fetch_delay, [this, &s]() {
          s.send_text(dynamic_part);
          s.close();
        });
      };
      s.set_callbacks(std::move(cb));
    });
  }
};

struct StreamingFixture {
  explicit StreamingFixture(TwoNodeOptions opt = {}) : h(opt) {
    capture::RecorderOptions ro;  // headers-only, like campaign captures
    recorder = std::make_unique<capture::TraceRecorder>(*h.client_node,
                                                        h.simulator, ro);
    analyzer = std::make_unique<StreamingAnalyzer>(kPort);
    recorder->set_sink(analyzer.get());
  }

  void run_queries(MiniFrontEnd& fe, std::size_t concurrent) {
    fe.install(*h.server);
    for (std::size_t i = 0; i < concurrent; ++i) {
      tcp::TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
      s.send_text("GET /q HTTP/1.1\r\n\r\n");
    }
    h.simulator.run();
  }

  /// Post-hoc replay of the retained trace matches its golden digest, and
  /// the live analyzer's drain matches it at tolerance 0.
  void expect_equivalent(std::size_t boundary, std::uint64_t golden) {
    const auto post_hoc =
        extract_all_timelines(recorder->trace(), kPort, boundary);
    expect_post_hoc(recorder->trace(), post_hoc, boundary, golden);
    const auto streaming = analyzer->drain(boundary);
    expect_timelines_eq(streaming, post_hoc);
    EXPECT_EQ(analyzer->late_packets(), 0u);
  }

  TwoNodeHarness h;
  std::unique_ptr<capture::TraceRecorder> recorder;
  std::unique_ptr<StreamingAnalyzer> analyzer;
};

TEST(StreamingEquivalence, CleanFlow) {
  StreamingFixture f;
  MiniFrontEnd fe;
  fe.static_part = pattern_text(4000);
  fe.dynamic_part = pattern_text(6000);
  f.run_queries(fe, 1);
  f.expect_equivalent(4000, 0x67186b32ae4b4fdfULL);
}

TEST(StreamingEquivalence, RetransmissionAfterDrop) {
  TwoNodeOptions opt;
  opt.drop_indices_s2c = {3};  // drop one data packet -> retransmission
  StreamingFixture f(opt);
  MiniFrontEnd fe;
  fe.static_part = pattern_text(8 * 1448);
  fe.dynamic_part = pattern_text(2000);
  f.run_queries(fe, 1);
  f.expect_equivalent(8 * 1448, 0xc194c26e776c7edbULL);
}

TEST(StreamingEquivalence, HeadDropMakesDataArriveOutOfOrder) {
  TwoNodeOptions opt;
  opt.drop_indices_s2c = {2};  // first data packet retransmits after later ones
  StreamingFixture f(opt);
  MiniFrontEnd fe;
  fe.static_part = pattern_text(6 * 1448);
  fe.dynamic_part = pattern_text(1500);
  f.run_queries(fe, 1);
  f.expect_equivalent(6 * 1448, 0x98f4bda475e98335ULL);
}

TEST(StreamingEquivalence, RandomLossAndReordering) {
  TwoNodeOptions opt;
  opt.loss = 0.03;
  opt.reordering = 0.2;
  opt.seed = 77;
  StreamingFixture f(opt);
  MiniFrontEnd fe;
  fe.static_part = pattern_text(12 * 1448);
  fe.dynamic_part = pattern_text(5000);
  f.run_queries(fe, 1);
  f.expect_equivalent(12 * 1448, 0x70be45a6f48509e9ULL);
}

TEST(StreamingEquivalence, InterleavedConcurrentFlows) {
  StreamingFixture f;
  MiniFrontEnd fe;
  fe.static_part = pattern_text(3000);
  fe.dynamic_part = pattern_text(3000);
  f.run_queries(fe, 4);  // four connections share the link concurrently
  // Both sides list flows in first-appearance order.
  f.expect_equivalent(3000, 0x86f127992a093478ULL);
}

TEST(StreamingEquivalence, WrongBoundaryStillMatchesIncludingReason) {
  StreamingFixture f;
  MiniFrontEnd fe;
  fe.static_part = pattern_text(2000);
  fe.dynamic_part = pattern_text(2000);
  f.run_queries(fe, 1);
  // Boundary 0 and boundary beyond the stream both yield invalid
  // timelines; the invalid_reason strings must match the post-hoc path.
  const auto post_hoc = extract_all_timelines(f.recorder->trace(), kPort, 0);
  expect_post_hoc(f.recorder->trace(), post_hoc, 0, 0x638a4784c6c838e4ULL);
  const auto streaming = f.analyzer->drain(0);
  expect_timelines_eq(streaming, post_hoc);
  ASSERT_FALSE(streaming.empty());
  EXPECT_FALSE(streaming.front().valid);
}

// ---------------------------------------------------------------------------
// Synthetic captures: hand-built packet sequences exercise corners a real
// TCP exchange rarely produces (missing SYN, duplicate SYN, overlapping
// retransmission). Both pipelines consume the identical record list.
// ---------------------------------------------------------------------------

struct SyntheticCapture {
  net::NodeId client{10};
  net::NodeId server{20};
  net::Port client_port = 40001;

  capture::PacketTrace trace{net::NodeId{10}};
  StreamingAnalyzer analyzer{kPort};

  capture::PacketRecord make(bool sent, std::int64_t at_us, std::uint64_t seq,
                             std::uint64_t ack, std::size_t payload,
                             net::TcpFlags flags) {
    capture::PacketRecord r;
    r.timestamp = SimTime::microseconds(at_us);
    r.direction =
        sent ? capture::Direction::kSent : capture::Direction::kReceived;
    r.src = sent ? client : server;
    r.dst = sent ? server : client;
    r.tcp.src_port = sent ? client_port : kPort;
    r.tcp.dst_port = sent ? kPort : client_port;
    r.tcp.seq = seq;
    r.tcp.ack = ack;
    r.tcp.flags = flags;
    r.payload_size = payload;
    return r;
  }

  void feed(const capture::PacketRecord& r) {
    analyzer.on_packet(r);
    trace.add(r);
  }

  void handshake_and_get() {
    feed(make(true, 1000, 100, 0, 0, {.syn = true}));                // SYN
    feed(make(false, 1100, 500, 101, 0, {.syn = true, .ack = true}));  // SYNACK
    feed(make(true, 1200, 101, 501, 0, {.ack = true}));              // ACK
    feed(make(true, 1300, 101, 501, 20, {.ack = true}));             // GET
    feed(make(false, 1400, 501, 121, 0, {.ack = true}));             // ACK GET
  }

  void teardown(std::int64_t at_us, std::uint64_t srv_seq,
                std::uint64_t cli_seq) {
    feed(make(false, at_us, srv_seq, cli_seq, 0, {.ack = true, .fin = true}));
    feed(make(true, at_us + 50, cli_seq, srv_seq + 1, 0,
              {.ack = true, .fin = true}));
    feed(make(false, at_us + 100, srv_seq + 1, cli_seq + 1, 0, {.ack = true}));
  }

  void expect_equivalent(std::size_t boundary, std::uint64_t golden) {
    const auto post_hoc = extract_all_timelines(trace, kPort, boundary);
    expect_post_hoc(trace, post_hoc, boundary, golden);
    const auto streaming = analyzer.drain(boundary);
    expect_timelines_eq(streaming, post_hoc);
  }
};

TEST(StreamingSynthetic, OverlappingRetransmission) {
  SyntheticCapture c;
  c.handshake_and_get();
  // 0..999 arrives, then 500..1499 (overlaps 500 bytes), then 1500..1999.
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 2500, 1001, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 3000, 2001, 121, 500, {.ack = true}));
  c.teardown(4000, 2501, 121);
  c.expect_equivalent(1200, 0x37988efe7715a89aULL);
}

TEST(StreamingSynthetic, OutOfOrderSegments) {
  SyntheticCapture c;
  c.handshake_and_get();
  // Segments arrive 2nd, 1st, 3rd.
  c.feed(c.make(false, 2100, 1501, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 2200, 501, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 2300, 2501, 121, 700, {.ack = true}));
  c.teardown(3000, 3201, 121);
  c.expect_equivalent(1000, 0xde79429fd99af662ULL);
}

TEST(StreamingSynthetic, MissingSynFallsBackToMinSeq) {
  SyntheticCapture c;
  // Capture started late: no SYN/SYNACK, data only. Both paths must agree
  // on the (invalid) timeline and its reason.
  c.feed(c.make(true, 1300, 101, 501, 20, {.ack = true}));
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 2100, 1501, 121, 500, {.ack = true}));
  c.teardown(3000, 2001, 121);
  c.expect_equivalent(800, 0xed2be39a748eb1a8ULL);
}

TEST(StreamingSynthetic, DuplicateSynUsesLastReceivedIss) {
  SyntheticCapture c;
  c.feed(c.make(true, 1000, 100, 0, 0, {.syn = true}));
  c.feed(c.make(false, 1100, 500, 101, 0, {.syn = true, .ack = true}));
  // Retransmitted SYN-ACK (same iss — the common duplicate).
  c.feed(c.make(false, 1150, 500, 101, 0, {.syn = true, .ack = true}));
  c.feed(c.make(true, 1200, 101, 501, 0, {.ack = true}));
  c.feed(c.make(true, 1300, 101, 501, 20, {.ack = true}));
  c.feed(c.make(false, 1400, 501, 121, 0, {.ack = true}));
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.teardown(3000, 1501, 121);
  c.expect_equivalent(400, 0xf78012602d7fb460ULL);
}

TEST(StreamingSynthetic, RstTerminatedFlow) {
  SyntheticCapture c;
  c.handshake_and_get();
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.feed(c.make(false, 2500, 1501, 121, 0, {.ack = true, .rst = true}));
  c.expect_equivalent(600, 0x8d98ce4e4771179aULL);
}

TEST(StreamingSynthetic, OtherPortsAreIgnoredByBothPaths) {
  SyntheticCapture c;
  c.handshake_and_get();
  // A DNS-ish packet on another port must not create a flow.
  auto stray = c.make(true, 1500, 0, 0, 30, {});
  stray.tcp.dst_port = 53;
  c.feed(stray);
  c.feed(c.make(false, 2000, 501, 121, 800, {.ack = true}));
  c.teardown(3000, 1301, 121);
  c.expect_equivalent(500, 0xfe5f914fbba7064cULL);
  EXPECT_EQ(c.analyzer.late_packets(), 0u);
}

// ---------------------------------------------------------------------------
// Streaming boundary discovery: the probe must return exactly what
// common_prefix_boundary produces over fully reassembled responses — on
// clean, reordered, retransmitted and SYN-less inputs — while retaining
// only O(boundary) bytes once two responses diverge.
// ---------------------------------------------------------------------------

struct ProbeCapture {
  net::NodeId client{10};
  net::NodeId server{20};
  capture::PacketTrace trace{net::NodeId{10}};
  StreamingAnalyzer analyzer{kPort};

  capture::PacketRecord make(net::Port client_port, bool sent,
                             std::int64_t at_us, std::uint64_t seq,
                             std::uint64_t ack, const std::string& text,
                             net::TcpFlags flags) {
    capture::PacketRecord r;
    r.timestamp = SimTime::microseconds(at_us);
    r.direction =
        sent ? capture::Direction::kSent : capture::Direction::kReceived;
    r.src = sent ? client : server;
    r.dst = sent ? server : client;
    r.tcp.src_port = sent ? client_port : kPort;
    r.tcp.dst_port = sent ? kPort : client_port;
    r.tcp.seq = seq;
    r.tcp.ack = ack;
    r.tcp.flags = flags;
    r.payload_size = text.size();
    if (!text.empty()) {
      std::vector<std::uint8_t> bytes(text.begin(), text.end());
      r.payload =
          net::PayloadRef{net::make_buffer(std::move(bytes)), 0, text.size()};
    }
    return r;
  }

  void feed(const capture::PacketRecord& r) {
    analyzer.on_packet(r);
    trace.add(r);
  }

  void server_syn(net::Port client_port, std::int64_t at_us) {
    feed(make(client_port, false, at_us, 500, 101, "",
              {.syn = true, .ack = true}));
  }

  void data(net::Port client_port, std::int64_t at_us, std::uint64_t seq,
            const std::string& text) {
    feed(make(client_port, false, at_us, seq, 121, text, {.ack = true}));
  }

  /// Independent reference: full reassembly of every response over the
  /// identical record list, then the common prefix of their contents.
  std::size_t post_hoc_boundary() const {
    std::vector<std::string> responses;
    for (const net::FlowId& flow : trace.flows()) {
      if (flow.remote.port != kPort) continue;
      ReassembledStream stream =
          reassemble(trace, flow, capture::Direction::kReceived);
      if (!stream.empty()) responses.push_back(stream.bytes());
    }
    return common_prefix_boundary(responses);
  }
};

TEST(StreamingBoundaryProbe, MatchesPostHocAndClipsMemory) {
  ProbeCapture c;
  c.analyzer.begin_boundary_probe();
  const std::string common(200, 'S');
  const std::string tail_a(5000, 'a');
  const std::string tail_b(5000, 'b');

  c.server_syn(40001, 1000);
  c.server_syn(40002, 1100);
  c.data(40001, 2000, 501, common + tail_a);
  c.data(40002, 2100, 501, common + tail_b);
  EXPECT_EQ(c.analyzer.probe_flows(), 2u);

  // Divergence at byte 200 clipped every buffer: the analyzer holds a few
  // hundred bytes of prefix, never the ~10 KB of payload that was fed.
  EXPECT_LT(c.analyzer.live_bytes(), 2048u);

  const std::size_t expected = c.post_hoc_boundary();
  ASSERT_EQ(expected, common.size());
  EXPECT_EQ(c.analyzer.finish_boundary_probe(), expected);
  EXPECT_FALSE(c.analyzer.probing());
  EXPECT_EQ(c.analyzer.live_bytes(), 0u);
}

TEST(StreamingBoundaryProbe, OutOfOrderAndOverlappingRetransmission) {
  ProbeCapture c;
  c.analyzer.begin_boundary_probe();
  // Flow 1 arrives in order; flow 2 delivers its head last and overlaps a
  // retransmitted middle segment. The probe must not compare '\0' filler
  // under the still-open head gap.
  c.server_syn(40001, 1000);
  c.server_syn(40002, 1100);
  c.data(40001, 2000, 501, std::string(300, 'S') + std::string(100, 'x'));
  c.data(40002, 2100, 801, std::string(60, 'y'));         // offset 300 first
  c.data(40002, 2200, 601, std::string(240, 'S'));        // middle, overlaps
  c.data(40002, 2300, 501, std::string(100, 'S'));        // head arrives last
  EXPECT_EQ(c.analyzer.finish_boundary_probe(), c.post_hoc_boundary());
}

TEST(StreamingBoundaryProbe, MissingSynFallsBackToMinSeq) {
  ProbeCapture c;
  c.analyzer.begin_boundary_probe();
  // Capture started late: neither flow has a SYN, so the stream base is
  // the minimum data seq — only final when the probe finishes.
  c.data(40001, 2000, 1501, std::string(50, 'D'));  // higher seq first
  c.data(40001, 2100, 501, std::string(1000, 'S'));
  c.data(40002, 2200, 501, std::string(120, 'S') + std::string(40, 'z'));
  EXPECT_EQ(c.analyzer.finish_boundary_probe(), c.post_hoc_boundary());
}

TEST(StreamingBoundaryProbe, ShorterResponseBoundsThePrefix) {
  ProbeCapture c;
  c.analyzer.begin_boundary_probe();
  // No byte ever diverges — the prefix is limited by the shortest stream,
  // exactly like common_prefix_boundary's min-length clamp.
  c.server_syn(40001, 1000);
  c.server_syn(40002, 1100);
  c.data(40001, 2000, 501, std::string(500, 'S'));
  c.data(40002, 2100, 501, std::string(180, 'S'));
  const std::size_t expected = c.post_hoc_boundary();
  ASSERT_EQ(expected, 180u);
  EXPECT_EQ(c.analyzer.finish_boundary_probe(), expected);
}

TEST(StreamingBoundaryProbe, HeadersOnlyCaptureHasNoBoundary) {
  ProbeCapture c;
  c.analyzer.begin_boundary_probe();
  // Payload sizes without payload bytes: there is no content to compare,
  // so neither the reference nor the probe may report a prefix — not even
  // the shorter stream's length.
  c.server_syn(40001, 1000);
  c.server_syn(40002, 1100);
  capture::PacketRecord a =
      c.make(40001, false, 2000, 501, 121, "", {.ack = true});
  a.payload_size = 500;
  c.feed(a);
  capture::PacketRecord b =
      c.make(40002, false, 2100, 501, 121, "", {.ack = true});
  b.payload_size = 180;
  c.feed(b);
  EXPECT_EQ(c.analyzer.probe_flows(), 2u);
  EXPECT_EQ(c.post_hoc_boundary(), 0u);
  EXPECT_EQ(c.analyzer.finish_boundary_probe(), 0u);
}

TEST(StreamingBoundaryProbe, ThreeFlowsTakeTheEarliestDivergence) {
  ProbeCapture c;
  c.analyzer.begin_boundary_probe();
  c.server_syn(40001, 1000);
  c.server_syn(40002, 1100);
  c.server_syn(40003, 1200);
  c.data(40001, 2000, 501, std::string(400, 'S') + "AAAA");
  c.data(40002, 2100, 501, std::string(400, 'S') + "BBBB");  // diverges @400
  c.data(40003, 2200, 501, std::string(90, 'S') + "CCCC");   // diverges @90
  const std::size_t expected = c.post_hoc_boundary();
  ASSERT_EQ(expected, 90u);
  EXPECT_EQ(c.analyzer.finish_boundary_probe(), expected);
}

TEST(StreamingBoundaryProbe, ProbeTrafficNeverBecomesTimelines) {
  ProbeCapture c;
  c.analyzer.begin_boundary_probe();
  c.server_syn(40001, 1000);
  c.server_syn(40002, 1100);
  c.data(40001, 2000, 501, "STATICaaa");
  c.data(40002, 2100, 501, "STATICbbb");
  EXPECT_EQ(c.analyzer.finish_boundary_probe(), 6u);
  // Fewer than two data-bearing flows -> 0, mirroring the "not enough
  // responses" guard in discover_boundary.
  c.analyzer.begin_boundary_probe();
  c.server_syn(40004, 3000);
  c.data(40004, 3100, 501, "only one response");
  EXPECT_EQ(c.analyzer.probe_flows(), 1u);
  EXPECT_EQ(c.analyzer.finish_boundary_probe(), 0u);
  // None of the probe traffic reached the timeline flow table.
  EXPECT_TRUE(c.analyzer.drain(6).empty());
}

// ---------------------------------------------------------------------------
// Online-emission lifecycle: once the boundary is known, completed flows
// collapse to timelines at teardown and their builder state is freed.
// ---------------------------------------------------------------------------

TEST(StreamingOnline, BoundaryEnablesCollapseAtTeardown) {
  SyntheticCapture c;
  c.analyzer.set_boundary(600);
  c.handshake_and_get();
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  EXPECT_EQ(c.analyzer.timelines_emitted_online(), 0u);
  const std::size_t live_before = c.analyzer.live_bytes();
  c.teardown(3000, 1501, 121);
  EXPECT_EQ(c.analyzer.timelines_emitted_online(), 1u);
  // Collapsing frees the builder: live footprint drops to one timeline.
  EXPECT_LT(c.analyzer.live_bytes(), live_before);
  EXPECT_EQ(c.analyzer.live_bytes(), sizeof(QueryTimeline));
  c.expect_equivalent(600, 0x8d98ce4e4771179aULL);
  EXPECT_EQ(c.analyzer.late_packets(), 0u);
}

TEST(StreamingOnline, LateBoundaryCollapsesBufferedFlows) {
  SyntheticCapture c;
  c.handshake_and_get();
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.teardown(3000, 1501, 121);
  EXPECT_EQ(c.analyzer.timelines_emitted_online(), 0u);  // no boundary yet
  c.analyzer.set_boundary(600);
  EXPECT_EQ(c.analyzer.timelines_emitted_online(), 1u);
  c.expect_equivalent(600, 0x8d98ce4e4771179aULL);
}

TEST(StreamingOnline, TrailingPureAckIsInertLateDataCounts) {
  SyntheticCapture c;
  c.analyzer.set_boundary(600);
  c.handshake_and_get();
  c.feed(c.make(false, 2000, 501, 121, 1000, {.ack = true}));
  c.teardown(3000, 1501, 121);
  ASSERT_EQ(c.analyzer.timelines_emitted_online(), 1u);
  // The teardown's trailing ACK (already fed) plus one more pure ACK: inert.
  c.analyzer.on_packet(c.make(false, 3300, 1502, 122, 0, {.ack = true}));
  EXPECT_EQ(c.analyzer.late_packets(), 0u);
  // A data-bearing packet after collapse is a divergence signal.
  c.analyzer.on_packet(c.make(false, 3400, 1502, 122, 100, {.ack = true}));
  EXPECT_EQ(c.analyzer.late_packets(), 1u);
}

TEST(StreamingOnline, ConflictingBoundaryThrows) {
  StreamingAnalyzer a(kPort);
  a.set_boundary(100);
  a.set_boundary(100);  // same value is fine
  EXPECT_THROW(a.set_boundary(200), std::logic_error);
  EXPECT_THROW(a.drain(300), std::logic_error);
  EXPECT_NO_THROW(a.drain(100));
}

TEST(StreamingOnline, RecorderClearResetsAnalyzer) {
  SyntheticCapture c;
  c.analyzer.set_boundary(600);
  c.handshake_and_get();
  ASSERT_GT(c.analyzer.live_bytes(), 0u);
  const std::size_t peak = c.analyzer.peak_live_bytes();
  c.analyzer.on_clear();  // what TraceRecorder::clear() forwards
  EXPECT_EQ(c.analyzer.live_bytes(), 0u);
  EXPECT_FALSE(c.analyzer.has_boundary());
  // Peak is a campaign-wide high-water mark; it survives clears.
  EXPECT_EQ(c.analyzer.peak_live_bytes(), peak);
}

TEST(StreamingOnline, DrainKeepsBoundaryForNextPhase) {
  SyntheticCapture c;
  c.handshake_and_get();
  c.teardown(3000, 501, 121);
  c.analyzer.drain(700);
  EXPECT_TRUE(c.analyzer.has_boundary());  // multi-phase experiments reuse it
  EXPECT_NO_THROW(c.analyzer.drain(700));
}

// ---------------------------------------------------------------------------
// Experiment-level equivalence: the acceptance contract. Streaming mode
// must reproduce the retained-capture experiment byte-for-byte — timings,
// node aggregates, rendered TSV rows and the Prometheus metrics dump — at
// 1, 2 and 4 threads.
// ---------------------------------------------------------------------------

testbed::ScenarioOptions small_scenario(bool stream,
                                        std::size_t shards = 1) {
  testbed::ScenarioOptions opt;
  opt.profile = cdn::google_like_profile();
  opt.client_count = 6;
  opt.seed = 4242;
  opt.stream_analysis = stream;
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

/// The boundary and every per-query timing, doubles printed exactly (%a),
/// hashed. Pins the capture-mode experiment to the answers of the earlier
/// split-per-flow extractor.
std::uint64_t results_digest(const testbed::ExperimentResult& r) {
  std::string text = std::to_string(r.boundary) + '\n';
  char row[256];
  for (const auto& node : r.per_node_timings) {
    for (const core::QueryTimings& q : node) {
      std::snprintf(row, sizeof(row), "%a|%a|%a|%a|%a|%zu|%zu\n", q.rtt_ms,
                    q.t_static_ms, q.t_dynamic_ms, q.t_delta_ms, q.overall_ms,
                    q.static_bytes, q.dynamic_bytes);
      text += row;
    }
    text += "--\n";
  }
  return fnv1a(text);
}

TEST(StreamingExperiment, ByteIdenticalToCaptureAt1_2_4Threads) {
  const auto options = small_experiment();

  testbed::ReplicaPlan plan;
  plan.executor.threads = 1;
  const auto capture_run = testbed::run_fixed_fe_experiment(
      small_scenario(false), 0, options, plan);

  // Streaming mode keeps its per-flow state in slab/arena-backed flat
  // tables; the full 1/2/4-thread x 1/2/4-shard matrix must still match
  // the serial retained-capture run byte for byte.
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      plan.executor.threads = threads;
      const auto streaming_run = testbed::run_fixed_fe_experiment(
          small_scenario(true, shards), 0, options, plan);
      expect_results_identical(capture_run, streaming_run);
    }
  }
}

TEST(StreamingExperiment, ByteIdenticalUnderClientLinkLoss) {
  auto capture_opt = small_scenario(false);
  auto stream_opt = small_scenario(true);
  capture_opt.client_link_loss = stream_opt.client_link_loss = 0.02;
  const auto options = small_experiment();

  testbed::Scenario cap(capture_opt);
  cap.warm_up();
  const auto a = testbed::run_fixed_fe_experiment(cap, 0, options);
  EXPECT_EQ(results_digest(a), 0x1d3cc903b590e6fcULL)
      << "actual digest 0x" << std::hex << results_digest(a);
  testbed::Scenario str(stream_opt);
  str.warm_up();
  const auto b = testbed::run_fixed_fe_experiment(str, 0, options);
  expect_results_identical(a, b);
}

TEST(StreamingExperiment, DiscoverBoundaryMatchesCaptureMode) {
  // Full-stack cross-check of the probe: the streaming scenario's clipped
  // prefix reassembly must land on the very boundary the retained-trace
  // path computes from complete responses.
  testbed::Scenario cap(small_scenario(false));
  cap.warm_up();
  const std::size_t post_hoc = testbed::discover_boundary(cap, 0, 0);
  testbed::Scenario str(small_scenario(true));
  str.warm_up();
  const std::size_t probed = testbed::discover_boundary(str, 0, 0);
  EXPECT_EQ(post_hoc, 9033u);  // golden: full reassembly of each response
  EXPECT_EQ(probed, post_hoc);
}

TEST(StreamingExperiment, CachingExperimentMatchesCapturePath) {
  testbed::Scenario cap(small_scenario(false));
  cap.warm_up();
  const auto a = testbed::run_caching_experiment(cap, 0, 0, 5);
  testbed::Scenario str(small_scenario(true));
  str.warm_up();
  const auto b = testbed::run_caching_experiment(str, 0, 0, 5);

  EXPECT_EQ(a.t_dynamic_same_ms, b.t_dynamic_same_ms);
  EXPECT_EQ(a.t_dynamic_distinct_ms, b.t_dynamic_distinct_ms);
  EXPECT_EQ(a.detection.caching_detected, b.detection.caching_detected);
  EXPECT_EQ(a.fe_cache_hits, b.fe_cache_hits);
}

TEST(StreamingExperiment, StreamingModeEmitsOnlineAndBoundsMemory) {
  // The small campaign, and the 8-client, 4-rep quick campaign that
  // tests/counts_test.cpp pins the counts of.
  for (const auto& [clients, reps] :
       {std::pair<std::size_t, std::size_t>{6, 3}, {8, 4}}) {
    SCOPED_TRACE(std::to_string(clients) + " clients");
    testbed::ScenarioOptions stream_opt = small_scenario(true);
    testbed::ScenarioOptions cap_opt = small_scenario(false);
    stream_opt.client_count = cap_opt.client_count = clients;
    testbed::ExperimentOptions eo = small_experiment();
    eo.reps_per_node = reps;

    testbed::Scenario scenario(stream_opt);
    scenario.warm_up();
    const auto r = testbed::run_fixed_fe_experiment(scenario, 0, eo);
    ASSERT_GT(r.all().size(), 0u);

    obs::MetricsRegistry mem;
    scenario.collect_memory_metrics(mem);
    // Flows were reduced online (the boundary arrives right after
    // discovery, so measured-phase flows collapse at teardown)...
    EXPECT_GT(mem.counter("stream_timelines_online"), 0u);
    EXPECT_EQ(mem.counter("stream_late_packets"), 0u);
    // ...and no packets were retained outside the discovery probe phase,
    // whose handful of payload-bearing records dominates the retained peak.
    const double analyzer_peak = mem.gauge("analyzer_live_bytes_peak");
    EXPECT_GT(analyzer_peak, 0.0);

    // The capture-mode scenario retains the whole campaign: its peak must
    // dwarf the streaming analyzer's in-flight state.
    testbed::Scenario cap_scenario(cap_opt);
    cap_scenario.warm_up();
    testbed::run_fixed_fe_experiment(cap_scenario, 0, eo);
    obs::MetricsRegistry cap_mem;
    cap_scenario.collect_memory_metrics(cap_mem);
    const double capture_peak = cap_mem.gauge("capture_retained_bytes_peak");
    ASSERT_GT(capture_peak, 0.0);
    // Acceptance floor is 40% lower; construction guarantees far more.
    EXPECT_LT(analyzer_peak, 0.6 * capture_peak);
  }
}

}  // namespace
}  // namespace dyncdn::analysis
