// Response-content model.
//
// The paper's content analysis found every search response splits into:
//  - a STATIC portion, identical across queries (HTTP header, HTML head,
//    CSS, the "Videos / News / Shopping" menu bar) — cached at the FE and
//    delivered immediately; and
//  - a DYNAMIC portion (keyword-dependent menu, results, ads) — generated
//    at the BE per query.
//
// We synthesize both deterministically. The static prefix is bit-identical
// for every query of a service, so the analyzer's cross-query common-prefix
// discovery has a real signal to find; the dynamic body embeds the keyword
// and varies in size with query complexity.
//
// One layout routine places the dynamic body's pieces. It runs against a
// sink that either only counts or writes, so a body's exact size is known
// before (or without) writing its bytes: the BE sizes every body, but
// writes its letters only while something reads payload bytes
// (cdn/backend.hpp).
#pragma once

#include <cstddef>
#include <string>

#include "search/keywords.hpp"
#include "sim/random.hpp"

namespace dyncdn::search {

struct ContentProfile {
  /// Bytes of static HTML/CSS/menu (excluding the HTTP header block).
  std::size_t static_html_bytes = 9000;
  /// Dynamic body: base size plus a per-query-word increment.
  std::size_t dynamic_base_bytes = 16000;
  std::size_t dynamic_per_word_bytes = 1500;
  /// Multiplicative lognormal noise on the dynamic size (per query).
  double dynamic_size_sigma = 0.05;
  /// Number of synthesized result entries.
  std::size_t results_per_page = 10;
};

/// One query's dynamic portion, sized but not yet written. The size draw
/// is already made, so writing the body consumes no randomness.
struct DynamicSize {
  /// The noisy size the layout aims at.
  std::size_t target = 0;
  /// Exact length of the body the layout produces for that target.
  std::size_t bytes = 0;
};

class ContentModel {
 public:
  /// `service_name` flavors the static prefix so different services have
  /// different (but internally constant) static content.
  ContentModel(ContentProfile profile, std::string service_name);

  /// The static portion: HTML head + CSS + menu bar. Identical for every
  /// query; the FE serves this from cache.
  const std::string& static_prefix() const { return static_prefix_; }

  /// The dynamic portion for one query: keyword-dependent result page.
  /// Size varies with word count and the rng draw.
  std::string dynamic_body(const Keyword& keyword, sim::RngStream& rng) const;

  /// The size of the body dynamic_body() would return, making the same
  /// single rng draw, without writing it.
  DynamicSize dynamic_size(const Keyword& keyword, sim::RngStream& rng) const;

  /// Write the body sized by dynamic_size() for the same keyword: exactly
  /// `size.bytes` bytes at `out`, equal to what dynamic_body() returns.
  void write_dynamic(const Keyword& keyword, const DynamicSize& size,
                     char* out) const;

  /// Deterministic expected size (before noise) — used by tests.
  std::size_t expected_dynamic_bytes(const Keyword& keyword) const;

  const ContentProfile& profile() const { return profile_; }
  const std::string& service_name() const { return service_name_; }

 private:
  ContentProfile profile_;
  std::string service_name_;
  std::string static_prefix_;
};

}  // namespace dyncdn::search
