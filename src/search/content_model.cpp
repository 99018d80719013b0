#include "search/content_model.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <string_view>

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

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/// FNV-1a over `s`, continuing from `h`: folding a tag in pieces gives the
/// hash of the whole tag.
std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return h;
}

/// Deterministic printable filler: `bytes` bytes at `p` from the letter
/// stream seeded with `h`, the FNV-1a hash of the filler's tag. The layout
/// runs off the filler's own offset, so the bytes are the same wherever in
/// a page the filler sits.
///
/// Lane k produces letters k, k+8, k+16, ... by jumping its chain ahead
/// eight steps at a time, so the eight multiplies per round are independent.
/// The letters are written contiguously, then the newline slots are opened
/// from the back.
void write_filler(char* const p, const std::uint64_t h,
                  const std::size_t bytes) {
  if (bytes == 0) return;
  const std::size_t newlines = (bytes - 1) / kLine;
  const std::size_t letters = bytes - newlines;

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

/// Decimal text of `v` in `buf`, without allocating.
std::string_view decimal(std::array<char, 24>& buf, std::size_t v) {
  const auto end = std::to_chars(buf.data(), buf.data() + buf.size(), v).ptr;
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

/// Layout sink that only counts: the body's size, no bytes written.
class MeasureSink {
 public:
  void put(std::string_view s) { size_ += s.size(); }
  void fill(std::uint64_t /*seed*/, std::size_t bytes) { size_ += bytes; }
  std::size_t size() const { return size_; }

 private:
  std::size_t size_ = 0;
};

/// Layout sink that writes the body's bytes at `out`, which must have room
/// for everything the layout puts.
class WriteSink {
 public:
  explicit WriteSink(char* out) : out_(out) {}
  void put(std::string_view s) {
    std::memcpy(out_ + size_, s.data(), s.size());
    size_ += s.size();
  }
  void fill(std::uint64_t seed, std::size_t bytes) {
    write_filler(out_ + size_, seed, bytes);
    size_ += bytes;
  }
  std::size_t size() const { return size_; }

 private:
  char* out_;
  std::size_t size_ = 0;
};

/// The dynamic body's layout, the one place its arithmetic lives: literal
/// pieces go to `out.put`, filler runs (seeded with their tag's hash) to
/// `out.fill`. Every size below depends only on what the sink has been
/// given so far, so counting and writing produce the same layout.
template <class Sink>
void lay_out_dynamic(const Keyword& keyword, std::string_view service,
                     std::size_t results_per_page, std::size_t target,
                     Sink& out) {
  // Keyword-dependent dynamic menu (the paper: "keyword-dependent dynamic
  // menu bar, search results and ads").
  out.put("<div id=\"dynmenu\" data-q=\"");
  out.put(keyword.text);
  out.put("\"><a>related:");
  out.put(keyword.text);
  out.put("</a></div>\n");

  const std::size_t per_result =
      (target > out.size() + 64)
          ? std::max<std::size_t>(
                64, (target - out.size() - 64) /
                        std::max<std::size_t>(1, results_per_page))
          : 64;
  const std::uint64_t keyword_hash = fnv1a(kFnvBasis, keyword.text);
  std::array<char, 24> rank_buf;
  std::array<char, 24> index_buf;
  for (std::size_t i = 0; i < results_per_page; ++i) {
    const std::size_t entry_start = out.size();
    const std::string_view rank = decimal(rank_buf, i + 1);
    out.put("<div class=\"result\" rank=\"");
    out.put(rank);
    out.put("\"><h3>");
    out.put(keyword.text);
    out.put(" — result ");
    out.put(rank);
    out.put("</h3><p>");
    const std::size_t entry_size = out.size() - entry_start;
    if (entry_size + 10 < per_result) {
      // Filler tag "<keyword>/<i>/<service>".
      std::uint64_t seed = fnv1a(keyword_hash, "/");
      seed = fnv1a(seed, decimal(index_buf, i));
      seed = fnv1a(seed, "/");
      seed = fnv1a(seed, service);
      out.fill(seed, per_result - entry_size - 10);
    }
    out.put("</p></div>\n");
  }
  // The ads filler is sized off the body length *before* the ads div opens
  // (operand evaluation order of the old chained-+ expression).
  const std::size_t before_ads = out.size();
  out.put("<div id=\"ads\">");
  out.fill(fnv1a(keyword_hash, "/ads"),
           target > before_ads + 32 ? target - before_ads - 32 : 16);
  out.put("</div>\n</body>\n</html>\n");
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
  const std::size_t css_at = s.size();
  s.resize(css_at + css_bytes);
  write_filler(s.data() + css_at, fnv1a(kFnvBasis, css_tag), css_bytes);
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

DynamicSize ContentModel::dynamic_size(const Keyword& keyword,
                                       sim::RngStream& rng) const {
  const double noise =
      profile_.dynamic_size_sigma > 0.0
          ? rng.lognormal_median(1.0, profile_.dynamic_size_sigma)
          : 1.0;
  DynamicSize size;
  size.target = std::max<std::size_t>(
      256, static_cast<std::size_t>(
               static_cast<double>(expected_dynamic_bytes(keyword)) * noise));
  MeasureSink measure;
  lay_out_dynamic(keyword, service_name_, profile_.results_per_page,
                  size.target, measure);
  size.bytes = measure.size();
  return size;
}

void ContentModel::write_dynamic(const Keyword& keyword,
                                 const DynamicSize& size, char* out) const {
  WriteSink write(out);
  lay_out_dynamic(keyword, service_name_, profile_.results_per_page,
                  size.target, write);
}

std::string ContentModel::dynamic_body(const Keyword& keyword,
                                       sim::RngStream& rng) const {
  const DynamicSize size = dynamic_size(keyword, rng);
  std::string body(size.bytes, '\0');
  write_dynamic(keyword, size, body.data());
  return body;
}

}  // namespace dyncdn::search
