// Capture (tcpdump-like tracing) tests.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "capture/recorder.hpp"
#include "capture/trace.hpp"
#include "harness.hpp"
#include "net/network.hpp"
#include "search/keywords.hpp"
#include "tcp/stack.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"

namespace dyncdn::capture {
namespace {

using dyncdn::testing::pattern_text;
using dyncdn::testing::TwoNodeHarness;
using dyncdn::testing::TwoNodeOptions;

constexpr net::Port kPort = 80;

struct CaptureFixture {
  explicit CaptureFixture(RecorderOptions ro = {},
                          TwoNodeOptions opt = {})
      : h(opt),
        client_rec(*h.client_node, h.simulator, ro),
        server_rec(*h.server_node, h.simulator, ro) {
    h.server->listen(kPort, [this](tcp::TcpSocket& s) {
      tcp::TcpSocket::Callbacks cb;
      cb.on_data = [&s](net::PayloadRef d) {
        s.send_text("resp:" + d.to_text());
      };
      s.set_callbacks(std::move(cb));
    });
  }

  void run_one_exchange(const std::string& msg) {
    tcp::TcpSocket& s = h.client->connect({h.server_node->id(), kPort}, {});
    s.send_text(msg);
    h.simulator.run();
  }

  TwoNodeHarness h;
  TraceRecorder client_rec;
  TraceRecorder server_rec;
};

TEST(Recorder, CapturesBothDirections) {
  CaptureFixture f;
  f.run_one_exchange("hello");
  const PacketTrace& trace = f.client_rec.trace();
  ASSERT_FALSE(trace.empty());

  std::size_t sent = 0, received = 0;
  for (const auto& r : trace.records()) {
    (r.direction == Direction::kSent ? sent : received) += 1;
  }
  EXPECT_GT(sent, 0u);
  EXPECT_GT(received, 0u);
  // Handshake: SYN out, SYN-ACK in.
  EXPECT_TRUE(trace.records()[0].tcp.flags.syn);
  EXPECT_EQ(trace.records()[0].direction, Direction::kSent);
}

TEST(Recorder, TimestampsAreMonotone) {
  CaptureFixture f;
  f.run_one_exchange("hello");
  const auto& records = f.client_rec.trace().records();
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].timestamp, records[i - 1].timestamp);
  }
}

TEST(Recorder, PayloadRetentionFollowsOption) {
  RecorderOptions with;
  with.capture_payloads = true;
  CaptureFixture f(with);
  f.run_one_exchange("payload-bytes");
  bool found = false;
  for (const auto& r : f.client_rec.trace().records()) {
    if (r.direction == Direction::kSent && r.payload_size > 0) {
      EXPECT_FALSE(r.payload.empty());
      EXPECT_NE(r.payload.to_text().find("payload-bytes"),
                std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Recorder, HeadersOnlyModeKeepsSizesButNotBytes) {
  RecorderOptions without;
  without.capture_payloads = false;
  CaptureFixture f(without);
  f.run_one_exchange("payload-bytes");
  bool saw_data = false;
  for (const auto& r : f.client_rec.trace().records()) {
    if (r.payload_size > 0) {
      saw_data = true;
      EXPECT_TRUE(r.payload.empty());
    }
  }
  EXPECT_TRUE(saw_data);
}

TEST(Recorder, PauseSuppressesRecording) {
  CaptureFixture f;
  f.client_rec.pause();
  f.run_one_exchange("quiet");
  EXPECT_TRUE(f.client_rec.trace().empty());
  f.client_rec.resume();
  f.run_one_exchange("loud");
  EXPECT_FALSE(f.client_rec.trace().empty());
}

TEST(Recorder, ClearDropsHistory) {
  CaptureFixture f;
  f.run_one_exchange("one");
  EXPECT_FALSE(f.client_rec.trace().empty());
  f.client_rec.clear();
  EXPECT_TRUE(f.client_rec.trace().empty());
}

TEST(Trace, FilterFlowSelectsOneConnection) {
  CaptureFixture f;
  f.run_one_exchange("first");
  f.run_one_exchange("second");
  const PacketTrace& trace = f.client_rec.trace();
  const auto flows = trace.flows();
  ASSERT_EQ(flows.size(), 2u);
  const PacketTrace one = trace.filter_flow(flows[0]);
  EXPECT_GT(one.size(), 0u);
  EXPECT_LT(one.size(), trace.size());
  for (const auto& r : one.records()) {
    const net::FlowId f2 = r.flow_at_capture_node();
    EXPECT_TRUE(f2 == flows[0] || f2 == flows[0].reversed());
  }
}

TEST(Trace, FilterRemotePort) {
  CaptureFixture f;
  f.run_one_exchange("x");
  const PacketTrace& trace = f.client_rec.trace();
  EXPECT_EQ(trace.filter_remote_port(kPort).size(), trace.size());
  EXPECT_EQ(trace.filter_remote_port(1234).size(), 0u);
}

TEST(Trace, FlowAtCaptureNodePutsLocalFirst) {
  CaptureFixture f;
  f.run_one_exchange("x");
  for (const auto& r : f.client_rec.trace().records()) {
    EXPECT_EQ(r.flow_at_capture_node().local.node,
              f.h.client_node->id());
  }
  for (const auto& r : f.server_rec.trace().records()) {
    EXPECT_EQ(r.flow_at_capture_node().local.node,
              f.h.server_node->id());
  }
}

TEST(Trace, ToTextRendersRecords) {
  CaptureFixture f;
  f.run_one_exchange("x");
  const std::string text = f.client_rec.trace().to_text();
  EXPECT_NE(text.find("SYN"), std::string::npos);
  EXPECT_NE(text.find("snd"), std::string::npos);
  EXPECT_NE(text.find("rcv"), std::string::npos);
}

TEST(Trace, SymmetricViewsAgreeOnPacketCounts) {
  // No loss: everything the client sends, the server receives.
  CaptureFixture f;
  f.run_one_exchange("count-check");
  std::size_t client_sent = 0, server_received = 0;
  for (const auto& r : f.client_rec.trace().records()) {
    if (r.direction == Direction::kSent) ++client_sent;
  }
  for (const auto& r : f.server_rec.trace().records()) {
    if (r.direction == Direction::kReceived) ++server_received;
  }
  EXPECT_EQ(client_sent, server_received);
}

TEST(Recorder, PayloadReaderCountFollowsCaptureAndLifetime) {
  TwoNodeHarness h;
  net::Network& network = h.network;
  RecorderOptions headers_only;
  headers_only.capture_payloads = false;
  auto payloads = std::make_unique<TraceRecorder>(*h.client_node,
                                                  h.simulator);
  auto headers = std::make_unique<TraceRecorder>(*h.server_node, h.simulator,
                                                 headers_only);
  EXPECT_EQ(network.payload_readers(), 1u);
  headers->set_capture_payloads(true);
  EXPECT_EQ(network.payload_readers(), 2u);
  headers->set_capture_payloads(true);  // no change: still one reader each
  EXPECT_EQ(network.payload_readers(), 2u);
  payloads->set_capture_payloads(false);
  payloads->set_capture_payloads(false);
  EXPECT_EQ(network.payload_readers(), 1u);
  payloads.reset();
  EXPECT_EQ(network.payload_readers(), 1u);
  headers.reset();
  EXPECT_EQ(network.payload_readers(), 0u);
}

testbed::ScenarioOptions small_capture_scenario(bool stream) {
  testbed::ScenarioOptions so;
  so.profile = cdn::google_like_profile();
  so.client_count = 4;
  so.seed = 4242;
  so.stream_analysis = stream;
  return so;
}

TEST(Recorder, DiscoverBoundaryLeavesNoPayloadReader) {
  // Discovery turns payload capture on for its probe, so the BE writes
  // real bodies for it, and turns it back off: the measured queries that
  // follow are again unread.
  for (const bool stream : {false, true}) {
    SCOPED_TRACE(stream ? "streaming" : "capture");
    testbed::Scenario scenario(small_capture_scenario(stream));
    scenario.warm_up();
    EXPECT_EQ(scenario.network().payload_readers(), 0u);
    EXPECT_GT(testbed::discover_boundary(scenario, 0, 0), 0u);
    EXPECT_EQ(scenario.network().payload_readers(), 0u);
  }
}

TEST(Recorder, PayloadCaptureSeesTheKeywordInTheDynamicPayload) {
  testbed::ScenarioOptions so = small_capture_scenario(false);
  so.capture_payloads = true;
  testbed::Scenario scenario(so);
  EXPECT_EQ(scenario.network().payload_readers(), so.client_count);
  scenario.warm_up();
  const search::KeywordCatalog catalog(5);
  const search::Keyword kw = catalog.figure3_keywords().front();
  scenario.connect_client_to_fe(0, 0);
  auto& client = scenario.clients()[0];
  client.recorder->clear();
  client.query_client->submit(scenario.fe_endpoint(0), kw,
                              [](const cdn::QueryResult&) {});
  scenario.run();
  std::string received;
  for (const auto& r : client.recorder->trace().records()) {
    if (r.direction == Direction::kReceived) received += r.payload.to_text();
  }
  const std::size_t menu = received.find("<div id=\"results-begin\">");
  const std::size_t keyword = received.find("data-q=\"" + kw.text + "\"");
  ASSERT_NE(menu, std::string::npos);
  ASSERT_NE(keyword, std::string::npos);
  EXPECT_GT(keyword, menu) << "the keyword belongs to the dynamic portion";
}

}  // namespace
}  // namespace dyncdn::capture
