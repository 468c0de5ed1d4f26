// Splitter edge cases beyond the paper's worked examples: separator-run
// collapsing, anchored interactions, alternation segments, and decomposed
// pieces of unusual shape.
#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "mfa/mfa.h"
#include "regex/sample.h"
#include "split/splitter.h"
#include "util/rng.h"

namespace mfa::split {
namespace {

using filter::kNone;
using mfa::testing::compile_patterns;
using mfa::testing::reference_matches;
using mfa::testing::sorted;

SplitResult split(const std::vector<std::string>& sources, Options opts = {}) {
  return split_patterns(compile_patterns(sources), opts);
}

MatchVec mfa_scan(const std::vector<std::string>& pats, const std::string& input) {
  auto m = core::build_mfa(compile_patterns(pats));
  EXPECT_TRUE(m.has_value());
  Scanner s(*m);
  return sorted(s.scan(input));
}

TEST(SeparatorRuns, AdjacentDotStarsCollapse) {
  const SplitResult r = split({".*abc.*.*xyz"});
  EXPECT_EQ(r.pieces.size(), 2u);
  EXPECT_EQ(r.stats.dot_star_splits, 1u);
}

TEST(SeparatorRuns, DotStarAbsorbsAlmostDotStar) {
  // `.*[^X]*` == `.*`: one dot-star boundary, no clear piece.
  const SplitResult r = split({".*abc.*[^\\n]*xyz"});
  EXPECT_EQ(r.pieces.size(), 2u);
  EXPECT_EQ(r.stats.almost_dot_star_splits, 0u);
}

TEST(SeparatorRuns, SameXAlmostDotStarsCollapse) {
  const SplitResult r = split({".*abc[^\\n]*[^\\n]*xyz"});
  EXPECT_EQ(r.pieces.size(), 3u);
  EXPECT_EQ(r.stats.almost_dot_star_splits, 1u);
}

TEST(SeparatorRuns, MixedXAlmostDotStarsFold) {
  // [^a]*[^b]* is not a single separator: fold, keep the pattern whole.
  const SplitResult r = split({".*zq1[^a]*[^b]*zq2"});
  EXPECT_EQ(r.pieces.size(), 1u);
}

TEST(SeparatorRuns, GapPlusAdsFolds) {
  const SplitResult r = split({".*zq1.{3,}[^\\n]*zq2"});
  EXPECT_EQ(r.pieces.size(), 1u);
  // Semantics must still be exact when folded.
  const std::vector<std::string> pat = {".*ab.{2,}[^\\n]*yz"};
  for (const std::string& input : std::vector<std::string>{
           "ab..yz", "ab.yz", "abyz", "ab...\nyz", "ab\n..yz"}) {
    EXPECT_EQ(mfa_scan(pat, input), sorted(reference_matches(pat, input))) << input;
  }
}

TEST(Segments, AlternationSegmentsSplit) {
  // Segments may be arbitrary regexes, not just strings.
  const SplitResult r = split({".*(cat|dog)qq.*(fish|bird)ww"});
  EXPECT_EQ(r.pieces.size(), 2u);
  const std::vector<std::string> pat = {".*(cat|dog)qq.*(fish|bird)ww"};
  EXPECT_EQ(mfa_scan(pat, "dogqq then birdww").size(), 1u);
  EXPECT_TRUE(mfa_scan(pat, "birdww then dogqq").empty());
  EXPECT_EQ(mfa_scan(pat, "catqq fishww dogqq birdww").size(), 2u);
}

TEST(Segments, OverlapAcrossAlternationBranches) {
  // Some branch pair overlaps (suffix "fg" = prefix of "fgh"): reject.
  const SplitResult r = split({".*(abc|efg).*(xyz|fgh)"});
  EXPECT_EQ(r.pieces.size(), 1u);
}

TEST(Segments, CountedRepeatSegments) {
  const std::vector<std::string> pat = {".*a{3}b.*c{2}d"};
  const SplitResult r = split(pat);
  EXPECT_EQ(r.pieces.size(), 2u);
  EXPECT_EQ(mfa_scan(pat, "aaab ccd").size(), 1u);
  EXPECT_TRUE(mfa_scan(pat, "aab ccd").empty());
  EXPECT_TRUE(mfa_scan(pat, "ccd aaab").empty());
}

TEST(Anchored, AnchoredDotStarHeadBecomesUnanchored) {
  // ^.*A == unanchored A.
  const SplitResult r = split({"^.*abc"});
  ASSERT_EQ(r.pieces.size(), 1u);
  EXPECT_FALSE(r.pieces[0].regex.anchored);
  EXPECT_EQ(mfa_scan({"^.*abc"}, "xxabc").size(), 1u);
}

TEST(Anchored, AnchoredAdsHeadKept) {
  const std::vector<std::string> pat = {"^[^\\n]*abc.*xyz"};
  const SplitResult r = split(pat);
  ASSERT_GE(r.pieces.size(), 2u);
  EXPECT_TRUE(r.pieces[0].regex.anchored);
  // abc on first line then xyz anywhere.
  EXPECT_EQ(mfa_scan(pat, "..abc..xyz").size(), 1u);
  EXPECT_TRUE(mfa_scan(pat, "..\nabc..xyz").empty());
}

TEST(Anchored, FullyAnchoredChain) {
  const std::vector<std::string> pat = {"^hdr.*mid.*end"};
  for (const std::string& input : std::vector<std::string>{
           "hdr mid end", "xhdr mid end", "hdr end mid", "mid hdr end",
           "hdr mid mid end end"}) {
    EXPECT_EQ(mfa_scan(pat, input), sorted(reference_matches(pat, input))) << input;
  }
}

TEST(MultiPattern, SharedSegmentsAcrossPatterns) {
  // Two patterns sharing the literal "ab" must keep independent bits.
  const std::vector<std::string> pats = {".*ab.*cd", ".*ab.*ef"};
  const SplitResult r = split(pats);
  ASSERT_EQ(r.pieces.size(), 4u);
  EXPECT_NE(r.program.actions[0].set, r.program.actions[2].set);
  for (const std::string& input : std::vector<std::string>{
           "ab cd", "ab ef", "ab cd ef", "cd ef ab", "ab ab cd ef"}) {
    EXPECT_EQ(mfa_scan(pats, input), sorted(reference_matches(pats, input))) << input;
  }
}

TEST(MultiPattern, DuplicatePatternsBothReport) {
  const std::vector<std::string> pats = {".*ab.*cd", ".*ab.*cd"};
  const MatchVec got = mfa_scan(pats, "ab cd");
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 1u);
  EXPECT_EQ(got[1].id, 2u);
  EXPECT_EQ(got[0].end, got[1].end);
}

TEST(PieceShape, WholePatternDotStar) {
  // ".*" alone: matches at every position; stays a single plain piece.
  const std::vector<std::string> pat = {".*"};
  const SplitResult r = split(pat);
  EXPECT_EQ(r.pieces.size(), 1u);
  EXPECT_EQ(mfa_scan(pat, "abc").size(), 3u);
}

TEST(PieceShape, SingleByteSegments) {
  const std::vector<std::string> pat = {".*q.*z"};
  const SplitResult r = split(pat);
  EXPECT_EQ(r.pieces.size(), 2u);
  for (const std::string& input :
       std::vector<std::string>{"qz", "zq", "q..z", "z..q..z", "qq zz"}) {
    EXPECT_EQ(mfa_scan(pat, input), sorted(reference_matches(pat, input))) << input;
  }
}

TEST(PieceShape, CaseInsensitivePattern) {
  const std::vector<std::string> pat = {"/.*AbC.*xYz/i"};
  const SplitResult r = split(pat);
  EXPECT_EQ(r.pieces.size(), 2u);
  EXPECT_EQ(mfa_scan(pat, "ABC XYZ").size(), 1u);
  EXPECT_EQ(mfa_scan(pat, "abc xyz").size(), 1u);
  EXPECT_TRUE(mfa_scan(pat, "abd xyz").empty());
}

TEST(Ordering, SetAndTestAtSamePositionAcrossPatterns) {
  // Pattern 2's B co-ends with pattern 1's A; bits are independent so both
  // behave exactly like the reference.
  const std::vector<std::string> pats = {".*abcd.*efgh", ".*ab.*cd"};
  for (const std::string& input : std::vector<std::string>{
           "abcd efgh", "ab cd", "abcd", "ababcdcd efgh"}) {
    EXPECT_EQ(mfa_scan(pats, input), sorted(reference_matches(pats, input))) << input;
  }
}

TEST(Ordering, CoEndingAandBNotAFalseMatch) {
  // B = bc is a suffix of A = abc: they co-end on "abc". The original
  // .*bc.*abc does not match "abc" (abc must come after bc), and the
  // tests-before-sets ordering preserves that.
  const std::vector<std::string> pat = {".*bc.*abc"};
  EXPECT_TRUE(mfa_scan(pat, "abc").empty());
  EXPECT_EQ(mfa_scan(pat, "bc abc").size(), 1u);
  EXPECT_EQ(mfa_scan(pat, "abc abc").size(), 1u);  // first abc supplies bc
}

class RandomSplitStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSplitStress, DecomposedAlwaysEqualsReference) {
  util::Rng rng(GetParam() * 7919);
  // Random patterns over a SMALL alphabet so overlaps/rejections are
  // frequent and both splitter paths (split and fold) get exercised.
  std::vector<std::string> pats;
  const int npat = 2 + static_cast<int>(rng.below(3));
  for (int i = 0; i < npat; ++i) {
    const auto word = [&] {
      std::string w;
      for (int j = 1 + static_cast<int>(rng.below(3)); j > 0; --j)
        w += static_cast<char>('a' + rng.below(3));
      return w;
    };
    std::string p = ".*" + word();
    for (int link = static_cast<int>(rng.below(3)); link > 0; --link) {
      p += rng.chance(0.5) ? ".*" : "[^\\n]*";
      p += word();
    }
    pats.push_back(std::move(p));
  }
  const auto inputs = compile_patterns(pats);
  auto m = core::build_mfa(inputs);
  ASSERT_TRUE(m.has_value());
  const nfa::Nfa reference = nfa::build_nfa(inputs);
  for (int round = 0; round < 25; ++round) {
    std::string input;
    for (int i = 6 + static_cast<int>(rng.below(24)); i > 0; --i)
      input += rng.chance(0.1) ? '\n' : static_cast<char>('a' + rng.below(3));
    Scanner ms(*m);
    Scanner ns(reference);
    ASSERT_EQ(sorted(ms.scan(input)), sorted(ns.scan(input)))
        << "input: " << input << " patterns: " << pats[0];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSplitStress,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace mfa::split
