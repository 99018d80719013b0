// Search workload and content-model tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "cdn/deployment.hpp"
#include "search/content_model.hpp"
#include "search/keywords.hpp"

namespace dyncdn::search {
namespace {

TEST(Keywords, WordCount) {
  EXPECT_EQ((Keyword{"computer", KeywordClass::kPopular, 1}).word_count(), 1u);
  EXPECT_EQ((Keyword{"a b c", KeywordClass::kComplex, 1}).word_count(), 3u);
  EXPECT_EQ((Keyword{"", KeywordClass::kPopular, 1}).word_count(), 0u);
}

TEST(Keywords, CatalogIsDeterministic) {
  KeywordCatalog a(42), b(42);
  const auto ka = a.generate(KeywordClass::kComplex, 10);
  const auto kb = b.generate(KeywordClass::kComplex, 10);
  ASSERT_EQ(ka.size(), kb.size());
  for (std::size_t i = 0; i < ka.size(); ++i) {
    EXPECT_EQ(ka[i].text, kb[i].text);
  }
}

TEST(Keywords, DifferentSeedsDifferentCatalogs) {
  KeywordCatalog a(1), b(2);
  const auto ka = a.generate(KeywordClass::kPopular, 20);
  const auto kb = b.generate(KeywordClass::kPopular, 20);
  int same = 0;
  for (std::size_t i = 0; i < ka.size(); ++i) {
    if (ka[i].text == kb[i].text) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(Keywords, ComplexityClassesHaveExpectedLengths) {
  KeywordCatalog cat(7);
  for (const auto& k : cat.generate(KeywordClass::kPopular, 8)) {
    EXPECT_LE(k.word_count(), 2u);
  }
  for (const auto& k : cat.generate(KeywordClass::kComplex, 8)) {
    EXPECT_GE(k.word_count(), 6u);
  }
}

TEST(Keywords, MixedClassContainsAnd) {
  KeywordCatalog cat(7);
  for (const auto& k : cat.generate(KeywordClass::kMixed, 5)) {
    EXPECT_NE(k.text.find(" and "), std::string::npos) << k.text;
  }
}

TEST(Keywords, Figure3SetHasFourDistinctClasses) {
  KeywordCatalog cat(42);
  const auto kws = cat.figure3_keywords();
  ASSERT_EQ(kws.size(), 4u);
  std::set<KeywordClass> classes;
  for (const auto& k : kws) classes.insert(k.cls);
  EXPECT_EQ(classes.size(), 4u);
}

TEST(Keywords, DistinctCorpusIsDistinct) {
  KeywordCatalog cat(9);
  const auto corpus = cat.distinct_corpus(500);
  std::set<std::string> texts;
  for (const auto& k : corpus) texts.insert(k.text);
  EXPECT_EQ(texts.size(), corpus.size());
}

TEST(Keywords, ZipfSamplingFavorsLowRanks) {
  KeywordCatalog cat(3);
  const auto catalog = cat.generate(KeywordClass::kPopular, 100);
  sim::RngStream rng(11);
  const auto draws = KeywordCatalog::zipf_sample(catalog, 20000, 1.0, rng);
  std::size_t rank1 = 0, rank50 = 0;
  for (const auto& k : draws) {
    if (k.rank == 1) ++rank1;
    if (k.rank == 50) ++rank50;
  }
  EXPECT_GT(rank1, 10 * std::max<std::size_t>(rank50, 1));
}

TEST(Keywords, HigherAlphaSkewsHarder) {
  KeywordCatalog cat(3);
  const auto catalog = cat.generate(KeywordClass::kPopular, 100);
  auto top1_share = [&](double alpha) {
    sim::RngStream rng(11);
    const auto draws = KeywordCatalog::zipf_sample(catalog, 20000, alpha, rng);
    std::size_t rank1 = 0;
    for (const auto& k : draws) {
      if (k.rank == 1) ++rank1;
    }
    return static_cast<double>(rank1) / 20000.0;
  };
  EXPECT_GT(top1_share(1.5), 1.5 * top1_share(0.8));
}

TEST(Keywords, ZipfSampleEmptyCatalogSafe) {
  sim::RngStream rng(1);
  EXPECT_TRUE(KeywordCatalog::zipf_sample({}, 10, 1.0, rng).empty());
}

TEST(ContentModel, StaticPrefixIsStableAndSized) {
  ContentProfile profile;
  profile.static_html_bytes = 9000;
  ContentModel m1(profile, "TestService");
  ContentModel m2(profile, "TestService");
  EXPECT_EQ(m1.static_prefix(), m2.static_prefix());
  EXPECT_NEAR(static_cast<double>(m1.static_prefix().size()), 9000.0, 400.0);
}

TEST(ContentModel, StaticPrefixDiffersAcrossServices) {
  ContentProfile profile;
  ContentModel a(profile, "ServiceA");
  ContentModel b(profile, "ServiceB");
  EXPECT_NE(a.static_prefix(), b.static_prefix());
}

TEST(ContentModel, StaticPrefixContainsMenuBar) {
  ContentModel m(ContentProfile{}, "S");
  EXPECT_NE(m.static_prefix().find("Videos"), std::string::npos);
  EXPECT_NE(m.static_prefix().find("Shopping"), std::string::npos);
  EXPECT_NE(m.static_prefix().find("<!DOCTYPE html>"), std::string::npos);
}

TEST(ContentModel, DynamicBodyEmbedsKeyword) {
  ContentModel m(ContentProfile{}, "S");
  sim::RngStream rng(5);
  const Keyword kw{"galaxy history", KeywordClass::kGranular, 2};
  const std::string body = m.dynamic_body(kw, rng);
  EXPECT_NE(body.find("galaxy history"), std::string::npos);
}

TEST(ContentModel, DynamicBodiesDifferAcrossKeywords) {
  ContentModel m(ContentProfile{}, "S");
  sim::RngStream rng(5);
  const std::string a =
      m.dynamic_body(Keyword{"alpha", KeywordClass::kPopular, 1}, rng);
  const std::string b =
      m.dynamic_body(Keyword{"beta", KeywordClass::kPopular, 1}, rng);
  EXPECT_NE(a, b);
}

TEST(ContentModel, DynamicSizeGrowsWithWordCount) {
  ContentProfile profile;
  profile.dynamic_size_sigma = 0.0;  // deterministic sizes
  ContentModel m(profile, "S");
  sim::RngStream rng(5);
  const std::string small =
      m.dynamic_body(Keyword{"one", KeywordClass::kPopular, 1}, rng);
  const std::string large = m.dynamic_body(
      Keyword{"one two three four five six seven", KeywordClass::kComplex, 1},
      rng);
  EXPECT_GT(large.size(), small.size());
  EXPECT_NEAR(static_cast<double>(large.size()) -
                  static_cast<double>(small.size()),
              6.0 * profile.dynamic_per_word_bytes,
              0.3 * 6.0 * profile.dynamic_per_word_bytes);
}

TEST(ContentModel, ExpectedDynamicBytesFormula) {
  ContentProfile profile;
  profile.dynamic_base_bytes = 1000;
  profile.dynamic_per_word_bytes = 100;
  ContentModel m(profile, "S");
  EXPECT_EQ(m.expected_dynamic_bytes(Keyword{"a b c", {}, 1}), 1300u);
}

TEST(ContentModel, SizeNoiseIsBounded) {
  ContentProfile profile;
  profile.dynamic_size_sigma = 0.05;
  ContentModel m(profile, "S");
  sim::RngStream rng(5);
  const Keyword kw{"noise test", KeywordClass::kPopular, 1};
  const double expected =
      static_cast<double>(m.expected_dynamic_bytes(kw));
  for (int i = 0; i < 50; ++i) {
    const double size = static_cast<double>(m.dynamic_body(kw, rng).size());
    EXPECT_GT(size, expected * 0.75);
    EXPECT_LT(size, expected * 1.35);
  }
}

TEST(ContentModel, DynamicBodiesShareNoLongPrefixAcrossKeywords) {
  // The boundary-discovery invariant: responses to different keywords must
  // diverge almost immediately inside the dynamic portion.
  ContentModel m(ContentProfile{}, "S");
  sim::RngStream rng(5);
  const std::string a =
      m.dynamic_body(Keyword{"alpha", KeywordClass::kPopular, 1}, rng);
  const std::string b =
      m.dynamic_body(Keyword{"beta", KeywordClass::kPopular, 1}, rng);
  std::size_t p = 0;
  while (p < std::min(a.size(), b.size()) && a[p] == b[p]) ++p;
  EXPECT_LT(p, 64u);
}

/// 64-bit FNV-1a; the golden tables below are pinned in it.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return h;
}

/// The original filler: one serial LCG step, push_back and `% 73` per
/// byte. Kept here only as the reference the content model must match.
std::string reference_filler(std::string_view tag, std::size_t bytes) {
  std::string out;
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : tag) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  std::size_t produced = 0;
  while (produced < bytes) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    out.push_back(static_cast<char>('a' + ((h >> 33) % 26)));
    ++produced;
    if (produced % 73 == 0) {
      out.push_back('\n');
      ++produced;
    }
  }
  out.resize(out.size() - (produced - bytes));
  return out;
}

/// Offset of the CSS comment ("/*") in a service's static prefix; the
/// filler follows it and is exactly `static_html_bytes - head - 220` long.
std::size_t css_comment_offset(const std::string& service) {
  ContentProfile profile;
  profile.static_html_bytes = 0;
  return ContentModel(profile, service).static_prefix().find("/*");
}

/// A static prefix whose CSS filler is exactly `filler_bytes` long.
std::string static_prefix_with_filler(const std::string& service,
                                      std::size_t filler_bytes) {
  ContentProfile profile;
  profile.static_html_bytes =
      filler_bytes == 0 ? 0 : css_comment_offset(service) + 220 + filler_bytes;
  return ContentModel(profile, service).static_prefix();
}

TEST(ContentModelGolden, FillerMatchesSerialReferenceAtEveryLength) {
  for (const std::string service : {"GoogleLike", "BingLike"}) {
    const std::size_t at = css_comment_offset(service) + 2;
    for (std::size_t len = 0; len <= 3000; ++len) {
      const std::string prefix = static_prefix_with_filler(service, len);
      ASSERT_EQ(prefix.substr(at, len),
                reference_filler(service + "/css", len))
          << service << " length " << len;
      ASSERT_EQ(prefix.compare(at + len, 2, "*/"), 0)
          << service << " length " << len;
    }
  }
}

// Digests of the content model's bytes as produced by the original serial
// filler. Filler lengths sit just below, at and above the newline points
// (a newline at every byte offset that is a positive multiple of 73).
TEST(ContentModelGolden, StaticPrefixBytesArePinned) {
  struct Case {
    const char* service;
    std::size_t filler_bytes;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"GoogleLike", 0, 0xf5e00db1636045fULL},
      {"GoogleLike", 1, 0x2813178f2b9da004ULL},
      {"GoogleLike", 72, 0x34fe5f27dcc8aebULL},
      {"GoogleLike", 73, 0x39b29ae310f2e90fULL},
      {"GoogleLike", 74, 0xdff7a66e4319653fULL},
      {"GoogleLike", 144, 0x579d590fed5077a6ULL},
      {"GoogleLike", 145, 0x54e901613da960bfULL},
      {"GoogleLike", 146, 0xfc8e456f880dbb5aULL},
      {"GoogleLike", 147, 0x71dd1116d126f900ULL},
      {"GoogleLike", 1000, 0xa235e0d4bd8d9295ULL},
      {"BingLike", 0, 0x18e8b40cff9e3f9eULL},
      {"BingLike", 1, 0xe84bc022d0d10644ULL},
      {"BingLike", 72, 0xe13bb746c2b6350eULL},
      {"BingLike", 73, 0xf0c0886afd5befc7ULL},
      {"BingLike", 74, 0xda0203a1082903d7ULL},
      {"BingLike", 144, 0xece923977a281378ULL},
      {"BingLike", 145, 0xb304a4d9b928683ULL},
      {"BingLike", 146, 0x8b3806ba8a61f050ULL},
      {"BingLike", 147, 0x4b248f35deab873eULL},
      {"BingLike", 1000, 0x2593419927af5ea3ULL},
  };
  for (const Case& c : cases) {
    const std::string prefix =
        static_prefix_with_filler(c.service, c.filler_bytes);
    EXPECT_EQ(fnv1a(prefix), c.digest)
        << c.service << " filler " << c.filler_bytes << " got 0x" << std::hex
        << fnv1a(prefix);
  }
  const std::pair<const char*, std::uint64_t> defaults[] = {
      {"GoogleLike", 0xd6bb405a818e10b0ULL},
      {"BingLike", 0xbe3c4e2ac81dc527ULL},
  };
  for (const auto& [service, digest] : defaults) {
    const ContentModel m(ContentProfile{}, service);
    EXPECT_EQ(fnv1a(m.static_prefix()), digest)
        << service << " default profile got 0x" << std::hex
        << fnv1a(m.static_prefix());
  }
}

/// One digest over many dynamic bodies of a keyword: a single result whose
/// filler sweeps 0..~250 bytes across the newline points, then default
/// pages (ten results, size noise) from a fixed rng stream.
std::uint64_t dynamic_digest(const std::string& service,
                             const std::string& keyword) {
  const Keyword kw{keyword, KeywordClass::kGranular, 1};
  std::string all;
  for (std::size_t base = 256; base < 520; ++base) {
    ContentProfile profile;
    profile.dynamic_base_bytes = base;
    profile.dynamic_per_word_bytes = 0;
    profile.dynamic_size_sigma = 0.0;
    profile.results_per_page = 1;
    sim::RngStream rng(1);
    all += ContentModel(profile, service).dynamic_body(kw, rng);
  }
  const ContentModel m(ContentProfile{}, service);
  sim::RngStream rng(7);
  for (int i = 0; i < 4; ++i) all += m.dynamic_body(kw, rng);
  return fnv1a(all);
}

TEST(ContentModelGolden, DynamicBodyBytesArePinned) {
  struct Case {
    const char* service;
    const char* keyword;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"GoogleLike", "alpha", 0x715307c84eab1262ULL},
      {"GoogleLike", "galaxy history", 0x24b75a37369b74fbULL},
      {"GoogleLike", "computer science department at stanford", 0xb9328585e9ecb7e8ULL},
      {"BingLike", "alpha", 0x5764b3a148a6afc1ULL},
      {"BingLike", "galaxy history", 0x6448ba85d7130f19ULL},
      {"BingLike", "computer science department at stanford", 0x145cacd5ef8a3184ULL},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(dynamic_digest(c.service, c.keyword), c.digest)
        << c.service << " '" << c.keyword << "' got 0x" << std::hex
        << dynamic_digest(c.service, c.keyword);
  }
}

TEST(ContentModel, TargetJustAboveMenuSizeFallsBackToMinimumResult) {
  // An 80-character keyword makes the dynamic menu ~210 bytes, so the
  // 256-byte minimum target lands within 64 bytes of it. The per-result
  // budget must fall back to its 64-byte floor instead of wrapping.
  ContentProfile profile;
  profile.dynamic_base_bytes = 0;
  profile.dynamic_per_word_bytes = 0;
  profile.dynamic_size_sigma = 0.0;
  const ContentModel m(profile, "S");
  sim::RngStream rng(1);
  const Keyword kw{std::string(80, 'k'), KeywordClass::kComplex, 1};
  std::string body;
  ASSERT_NO_THROW(body = m.dynamic_body(kw, rng));
  EXPECT_LT(body.size(), 4096u);
  std::size_t results = 0;
  for (std::size_t at = body.find("class=\"result\""); at != std::string::npos;
       at = body.find("class=\"result\"", at + 1)) {
    ++results;
  }
  EXPECT_EQ(results, profile.results_per_page);
  EXPECT_NE(body.find("</html>"), std::string::npos);
}

TEST(ContentModel, DynamicSizeMatchesBodyAndMakesTheSameDraw) {
  // dynamic_size() lays the body out without writing it; the size must be
  // the length dynamic_body() returns, and both must leave the rng at the
  // same point. write_dynamic() must then produce dynamic_body()'s bytes.
  const std::string words = "alpha beta gamma delta epsilon zeta eta theta "
                            "iota kappa lambda mu nu xi omicron pi rho sigma";
  for (const cdn::ServiceProfile& service :
       {cdn::google_like_profile(), cdn::bing_like_profile()}) {
    for (const double sigma : {0.0, service.content.dynamic_size_sigma, 0.5}) {
      ContentProfile profile = service.content;
      profile.dynamic_size_sigma = sigma;
      const ContentModel m(profile, service.name);
      for (std::size_t len = 1; len <= 80; ++len) {
        SCOPED_TRACE(service.name + " sigma " + std::to_string(sigma) +
                     " keyword length " + std::to_string(len));
        const Keyword kw{words.substr(0, len), KeywordClass::kComplex, 1};
        sim::RngStream sized(len), built(len);
        const DynamicSize size = m.dynamic_size(kw, sized);
        const std::string body = m.dynamic_body(kw, built);
        EXPECT_EQ(size.bytes, body.size());
        EXPECT_EQ(sized.uniform01(), built.uniform01());
        // The layout fills exactly the size it measured: no byte is left
        // as it was before writing, and the page ends where it should.
        EXPECT_EQ(body.find('\0'), std::string::npos);
        EXPECT_TRUE(body.ends_with("</html>\n"));
        std::string written(size.bytes, '#');
        m.write_dynamic(kw, size, written.data());
        EXPECT_EQ(written, body);
      }
    }
  }

  // The target-just-above-menu-size case: the per-result budget's floor.
  ContentProfile floor;
  floor.dynamic_base_bytes = 0;
  floor.dynamic_per_word_bytes = 0;
  floor.dynamic_size_sigma = 0.0;
  const ContentModel m(floor, "S");
  const Keyword kw{std::string(80, 'k'), KeywordClass::kComplex, 1};
  sim::RngStream sized(1), built(1);
  EXPECT_EQ(m.dynamic_size(kw, sized).bytes, m.dynamic_body(kw, built).size());
  EXPECT_EQ(sized.uniform01(), built.uniform01());
}

}  // namespace
}  // namespace dyncdn::search
