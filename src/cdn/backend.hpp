// Back-end data center: generates the dynamic portion of search responses.
//
// Serves two protocols:
//  - the internal fetch protocol on `fetch_port` (persistent connections
//    from FE servers; HTTP requests tagged X-Query-Id, length-framed
//    responses), and
//  - a direct client-facing service on `direct_port` (full static+dynamic
//    page, connection-close framing) used by the no-FE baseline from
//    Pathak et al. [9].
//
// The BE records per-query ground truth (arrival, processing completion,
// bytes) that tests use to validate the paper's inference bounds — the
// analysis pipeline itself never reads these records.
//
// Response bodies are written only when something reads them. Every body
// is sized by the content model's layout, but its HTML is written only
// while the network has a payload reader (net::Network::payload_readers:
// a recorder capturing payloads, a caching FE). Otherwise the body is the
// same number of one constant byte. Neither protocol looks at body bytes
// to frame them (Content-Length to the FE, connection close to the
// client), so every simulated statistic is the same either way.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cdn/load_model.hpp"
#include "net/node.hpp"
#include "search/content_model.hpp"
#include "search/keywords.hpp"
#include "tcp/stack.hpp"

namespace dyncdn::cdn {

/// BE query-processing time model: T_proc = per-query cost drawn from a
/// LoadModel whose base scales with query word count, with an optional
/// "hot result cache" discount for very popular keywords.
struct ProcessingModel {
  double base_ms = 30.0;
  double per_word_ms = 8.0;
  LoadModel load;  // load.median_ms unused; base comes from the fields above

  /// Keywords with popularity rank <= this hit the BE's internal result
  /// cache and cost `cached_factor` of the normal time. 0 disables.
  std::size_t result_cache_top_rank = 0;
  double cached_factor = 0.3;

  /// §6 "search as you type": a query whose text strictly extends a
  /// recently processed query costs `correlated_factor` of the normal
  /// time — "the subsequent queries are highly correlated with previous
  /// queries". Off (0) by default: this models the interactive-search
  /// extension, not the paper's baseline measurement target.
  std::size_t correlation_history = 0;
  double correlated_factor = 0.45;

  double base_for(const search::Keyword& k) const {
    double ms = base_ms + per_word_ms * static_cast<double>(k.word_count());
    if (result_cache_top_rank > 0 && k.rank <= result_cache_top_rank) {
      ms *= cached_factor;
    }
    return ms;
  }
};

/// Ground-truth record of one query processed by the BE.
struct BackendQueryRecord {
  std::uint64_t query_id = 0;
  std::string keyword;
  sim::SimTime request_received;
  sim::SimTime processing_done;  // request_received + T_proc
  sim::SimTime t_proc;           // the drawn processing time
  std::size_t dynamic_bytes = 0;
  bool correlated = false;  // benefited from the §6 prefix-correlation path
};

class BackendDataCenter {
 public:
  struct Config {
    std::string name = "be";
    net::Port fetch_port = 9000;
    net::Port direct_port = 8080;
    ProcessingModel processing;
    tcp::TcpConfig tcp;  // stack config (internal links: large windows)
  };

  BackendDataCenter(net::Node& node, const search::ContentModel& content,
                    Config config);

  net::Node& node() { return node_; }
  const Config& config() const { return config_; }
  net::Endpoint fetch_endpoint() const {
    return {node_.id(), config_.fetch_port};
  }
  net::Endpoint direct_endpoint() const {
    return {node_.id(), config_.direct_port};
  }

  const std::vector<BackendQueryRecord>& query_log() const {
    return query_log_;
  }
  std::size_t queries_served() const { return query_log_.size(); }
  std::size_t active_queries() const { return active_; }
  std::size_t active_queries_peak() const { return active_peak_; }
  tcp::TcpStack& stack() { return stack_; }

 private:
  void serve_fetch(tcp::TcpSocket& socket);
  void serve_direct(tcp::TcpSocket& socket);
  /// Called when processing completes, with the query's sized (not yet
  /// written) dynamic body.
  using BodyReady = std::function<void(const search::Keyword& keyword,
                                       const search::DynamicSize& size)>;
  /// `trace_parent` is the caller's span id (from X-Trace-Span; 0 = none):
  /// the be.process span nests under the FE's fe.fetch across nodes.
  void process_query(const search::Keyword& keyword, std::uint64_t query_id,
                     std::uint64_t trace_parent, BodyReady done);
  /// Write one query's dynamic body, `size.bytes` long, at `out`: the real
  /// page while the network has a payload reader, else one constant byte.
  void write_body(const search::Keyword& keyword,
                  const search::DynamicSize& size, std::uint8_t* out) const;

  /// True when `text` extends (or repeats) a recently processed query.
  bool is_correlated(const std::string& text) const;
  void remember_query(const std::string& text);

  net::Node& node_;
  const search::ContentModel& content_;
  /// Static portion as a wire buffer for direct-connection serves,
  /// primed on first use and sent zero-copy afterwards.
  net::Buffer static_prefix_buf_;
  Config config_;
  tcp::TcpStack stack_;
  sim::RngStream proc_rng_;
  sim::RngStream content_rng_;
  std::size_t active_ = 0;
  std::size_t active_peak_ = 0;
  std::vector<BackendQueryRecord> query_log_;
  std::deque<std::string> recent_queries_;  // newest at the back
};

/// A length-framed BE response in its one wire buffer: the head is
/// written, and `body` (the buffer's tail) is left for the producer to
/// write in place before sending `wire`.
struct FramedResponse {
  net::PayloadRef wire;
  std::span<std::uint8_t> body;
};

/// The BE's fetch response to query `query_id` with a `body_len`-byte
/// body. Once the body is written, `wire` is byte-identical to
/// HttpResponse::serialize() of the same response.
FramedResponse fetch_response_wire(std::uint64_t query_id,
                                   std::size_t body_len);

/// Wire bytes of the BE's /warmup response: `bytes` of 'w' written
/// straight into the wire buffer behind the head.
net::PayloadRef warmup_response_wire(std::uint64_t query_id,
                                     std::size_t bytes);

}  // namespace dyncdn::cdn
