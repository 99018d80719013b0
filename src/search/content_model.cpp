#include "search/content_model.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

namespace dyncdn::search {

namespace {
// The filler's letter stream is the 64-bit LCG h' = kMul*h + kInc seeded
// with the FNV-1a hash of the tag; letter n is 'a' + (h_(n+1) >> 33) % 26.
constexpr std::uint64_t kMul = 6364136223846793005ULL;
constexpr std::uint64_t kInc = 1442695040888963407ULL;
// A newline sits at every byte offset that is a positive multiple of
// kLine: 73 letters, '\n', then lines of 72 letters and '\n'.
constexpr std::size_t kLine = 73;
// Independent LCG chains interleaved over the letter stream.
constexpr std::size_t kLanes = 8;

/// The affine map h -> mul*h + inc of `steps` LCG steps.
struct Jump {
  std::uint64_t mul;
  std::uint64_t inc;
};

constexpr Jump jump(std::size_t steps) {
  Jump j{1, 0};
  for (std::size_t i = 0; i < steps; ++i) {
    j = {j.mul * kMul, j.inc * kMul + kInc};
  }
  return j;
}

constexpr std::array<Jump, kLanes> lane_starts() {
  std::array<Jump, kLanes> starts{};
  for (std::size_t k = 0; k < kLanes; ++k) starts[k] = jump(k + 1);
  return starts;
}

constexpr std::array<Jump, kLanes> kLaneStart = lane_starts();
constexpr Jump kLaneStep = jump(kLanes);

// (h >> 33) fits 32 bits; saying so lets the `% 26` use a 32-bit multiply.
inline char letter(std::uint64_t h) {
  return static_cast<char>('a' + static_cast<std::uint32_t>(h >> 33) % 26u);
}

/// Deterministic printable filler derived from a tag string, appended in
/// place. The layout runs off the filler's own offset, not out.size(), so
/// the produced bytes are identical whether out starts empty or mid-page.
///
/// Lane k produces letters k, k+8, k+16, ... by jumping its chain ahead
/// eight steps at a time, so the eight multiplies per round are independent.
/// The letters are written contiguously, then the newline slots are opened
/// from the back.
void append_filler(std::string& out, std::string_view tag, std::size_t bytes) {
  if (bytes == 0) return;
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : tag) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  const std::size_t newlines = (bytes - 1) / kLine;
  const std::size_t letters = bytes - newlines;
  const std::size_t start = out.size();
  out.resize(start + bytes);
  char* const p = out.data() + start;

  std::array<std::uint64_t, kLanes> lane;
  for (std::size_t k = 0; k < kLanes; ++k) {
    lane[k] = kLaneStart[k].mul * h + kLaneStart[k].inc;
  }
  std::size_t i = 0;
  for (; i + kLanes <= letters; i += kLanes) {
    // Unrolled, the lanes live in registers rather than on the stack.
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kLanes; ++k) {
      p[i + k] = letter(lane[k]);
      lane[k] = kLaneStep.mul * lane[k] + kLaneStep.inc;
    }
  }
  for (std::size_t k = 0; i < letters; ++i, ++k) p[i] = letter(lane[k]);

  // Newline j (1-based) sits at byte kLine*j; the letters after it shift
  // right by j. Moving the last line first never overwrites unmoved letters.
  for (std::size_t j = newlines; j > 0; --j) {
    const std::size_t from = kLine * j - (j - 1);
    const std::size_t count = j == newlines ? letters - from : kLine - 1;
    std::memmove(p + kLine * j + 1, p + from, count);
    p[kLine * j] = '\n';
  }
}

std::string filler(std::string_view tag, std::size_t bytes) {
  std::string out;
  out.reserve(bytes);
  append_filler(out, tag, bytes);
  return out;
}
}  // namespace

ContentModel::ContentModel(ContentProfile profile, std::string service_name)
    : profile_(profile), service_name_(std::move(service_name)) {
  // Build the static prefix once: doctype, head, CSS, menu bar. This is the
  // portion the FE caches; it must be byte-identical across queries.
  std::string s;
  s += "<!DOCTYPE html>\n<html>\n<head>\n<title>";
  s += service_name_;
  s += " Search</title>\n<meta charset=\"utf-8\">\n<style>\n";
  const std::string css_tag = service_name_ + "/css";
  // Reserve space for the closing boilerplate below.
  const std::size_t boilerplate = 220;
  const std::size_t css_bytes =
      profile_.static_html_bytes > s.size() + boilerplate
          ? profile_.static_html_bytes - s.size() - boilerplate
          : 0;
  s += "/*";
  s += filler(css_tag, css_bytes);
  s += "*/\n</style>\n</head>\n<body>\n";
  s += "<div id=\"menubar\">"
       "<a>Web</a><a>Videos</a><a>News</a><a>Shopping</a>"
       "<a>Images</a><a>Maps</a><a>More</a></div>\n";
  s += "<div id=\"results-begin\"></div>\n";
  static_prefix_ = std::move(s);
}

std::size_t ContentModel::expected_dynamic_bytes(const Keyword& keyword) const {
  return profile_.dynamic_base_bytes +
         profile_.dynamic_per_word_bytes * keyword.word_count();
}

std::string ContentModel::dynamic_body(const Keyword& keyword,
                                       sim::RngStream& rng) const {
  const double noise =
      profile_.dynamic_size_sigma > 0.0
          ? rng.lognormal_median(1.0, profile_.dynamic_size_sigma)
          : 1.0;
  const std::size_t target = std::max<std::size_t>(
      256, static_cast<std::size_t>(
               static_cast<double>(expected_dynamic_bytes(keyword)) * noise));

  // Everything is appended straight into `b` (no per-result temporaries):
  // this runs once per query on the backend hot path, and the chained
  // operator+ form cost half a dozen allocations per result entry.
  std::string b;
  b.reserve(target + 256);
  // Keyword-dependent dynamic menu (the paper: "keyword-dependent dynamic
  // menu bar, search results and ads").
  b += "<div id=\"dynmenu\" data-q=\"";
  b += keyword.text;
  b += "\"><a>related:";
  b += keyword.text;
  b += "</a></div>\n";

  const std::size_t per_result =
      (target > b.size() + 64)
          ? std::max<std::size_t>(64, (target - b.size() - 64) /
                                          std::max<std::size_t>(
                                              1, profile_.results_per_page))
          : 64;
  std::string tag;  // reused filler seed: "<keyword>/<i>/<service>"
  tag.reserve(keyword.text.size() + service_name_.size() + 8);
  for (std::size_t i = 0; i < profile_.results_per_page; ++i) {
    const std::size_t entry_start = b.size();
    b += "<div class=\"result\" rank=\"";
    b += std::to_string(i + 1);
    b += "\"><h3>";
    b += keyword.text;
    b += " — result ";
    b += std::to_string(i + 1);
    b += "</h3><p>";
    const std::size_t entry_size = b.size() - entry_start;
    if (entry_size + 10 < per_result) {
      tag.clear();
      tag += keyword.text;
      tag += '/';
      tag += std::to_string(i);
      tag += '/';
      tag += service_name_;
      append_filler(b, tag, per_result - entry_size - 10);
    }
    b += "</p></div>\n";
  }
  // The ads filler is sized off the body length *before* the ads div opens
  // (operand evaluation order of the old chained-+ expression).
  const std::size_t before_ads = b.size();
  b += "<div id=\"ads\">";
  tag.clear();
  tag += keyword.text;
  tag += "/ads";
  append_filler(b, tag,
                target > before_ads + 32 ? target - before_ads - 32 : 16);
  b += "</div>\n</body>\n</html>\n";
  return b;
}

}  // namespace dyncdn::search
