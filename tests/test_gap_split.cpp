// Gap decomposition (paper Sec. VI future work): `.*A.{n,}B` splits into
// pieces whose filter records the offset of A's match and requires B to end
// at least n + |B| bytes later. The master invariant is unchanged: the MFA
// must match exactly what the NFA of the original pattern matches.
#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "regex/sample.h"
#include "split/splitter.h"
#include "util/rng.h"

namespace mfa::split {
namespace {

using filter::kNone;
using mfa::testing::compile_patterns;
using mfa::testing::reference_matches;
using mfa::testing::sorted;

TEST(GapSplit, BasicDecomposition) {
  const SplitResult r = split_patterns(compile_patterns({".*abc.{5,}xyz"}));
  ASSERT_EQ(r.pieces.size(), 2u);
  EXPECT_EQ(r.stats.gap_splits, 1u);
  EXPECT_EQ(r.program.position_slots, 1u);
  // A-piece: set bit 0, record slot 0.
  EXPECT_EQ(r.program.actions[0].set, 0);
  EXPECT_EQ(r.program.actions[0].set_slot, 0);
  // B-piece: test bit 0 with min_gap = 5 + |xyz| = 8.
  EXPECT_EQ(r.program.actions[1].test, 0);
  EXPECT_EQ(r.program.actions[1].test_slot, 0);
  EXPECT_EQ(r.program.actions[1].min_gap, 8);
  EXPECT_EQ(r.program.actions[1].report, 1);
}

TEST(GapSplit, DotPlusIsGapOne) {
  const SplitResult r = split_patterns(compile_patterns({".*abc.+xyz"}));
  ASSERT_EQ(r.pieces.size(), 2u);
  EXPECT_EQ(r.program.actions[1].min_gap, 4);  // 1 + |xyz|
}

TEST(GapSplit, VariableLengthBNotSplit) {
  // B = xy+z has no fixed length: gap cannot be translated, so fold.
  const SplitResult r = split_patterns(compile_patterns({".*abc.{5,}xy+z"}));
  EXPECT_EQ(r.pieces.size(), 1u);
  EXPECT_GE(r.stats.boundaries_rejected, 1u);
}

TEST(GapSplit, OverlappingSegmentsAreFineWithGaps) {
  // abc/bcd overlap kills a dot-star split (Sec. IV-A) but NOT a gap split:
  // the offset requirement makes overlap impossible.
  const SplitResult dot = split_patterns(compile_patterns({".*abc.*bcd"}));
  EXPECT_EQ(dot.pieces.size(), 1u);
  const SplitResult gap = split_patterns(compile_patterns({".*abc.{2,}bcd"}));
  EXPECT_EQ(gap.pieces.size(), 2u);
}

TEST(GapSplit, AblationDisable) {
  Options opts;
  opts.enable_gap = false;
  const SplitResult r = split_patterns(compile_patterns({".*abc.{5,}xyz"}), opts);
  EXPECT_EQ(r.pieces.size(), 1u);
  EXPECT_EQ(r.stats.gap_splits, 0u);
}

TEST(GapSplit, SeparatorRunsSumGaps) {
  // `.*.{2,}.+` collapses to one gap of 3.
  const SplitResult r = split_patterns(compile_patterns({".*abc.*.{2,}.+xyz"}));
  ASSERT_EQ(r.pieces.size(), 2u);
  EXPECT_EQ(r.program.actions[1].min_gap, 3 + 3);  // gap 3 + |xyz|
}

TEST(GapSplit, LeadingGapKept) {
  // `.{4,}abc` constrains distance from stream start; it must fold into the
  // first segment rather than be dropped like a leading dot-star.
  const SplitResult r = split_patterns(compile_patterns({".{4,}abc"}));
  ASSERT_EQ(r.pieces.size(), 1u);
  // Behavior check below in the MFA end-to-end tests.
}

MatchVec mfa_scan(const std::vector<std::string>& pats, const std::string& input) {
  auto m = core::build_mfa(compile_patterns(pats));
  EXPECT_TRUE(m.has_value());
  Scanner s(*m);
  return sorted(s.scan(input));
}

TEST(GapMatch, EnforcesMinimumDistance) {
  const std::vector<std::string> pat = {".*ab.{3,}yz"};
  // ab then yz with gaps 0..4 between them.
  EXPECT_TRUE(mfa_scan(pat, "abyz").empty());
  EXPECT_TRUE(mfa_scan(pat, "ab.yz").empty());
  EXPECT_TRUE(mfa_scan(pat, "ab..yz").empty());
  EXPECT_EQ(mfa_scan(pat, "ab...yz").size(), 1u);
  EXPECT_EQ(mfa_scan(pat, "ab....yz").size(), 1u);
}

TEST(GapMatch, EarliestAMatters) {
  // A occurs twice; only the earlier one satisfies the gap.
  const std::vector<std::string> pat = {".*ab.{4,}yz"};
  const MatchVec got = mfa_scan(pat, "ab..ab.yz");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got, reference_matches(pat, "ab..ab.yz"));
}

TEST(GapMatch, OverlapCannotCheat) {
  // B's bytes overlapping A must not count toward the gap.
  const std::vector<std::string> pat = {".*abc.{1,}bcd"};
  EXPECT_TRUE(mfa_scan(pat, "abcd").empty());
  EXPECT_TRUE(mfa_scan(pat, "abcbcd").empty());    // gap 0
  EXPECT_EQ(mfa_scan(pat, "abc.bcd").size(), 1u);  // gap 1
  EXPECT_EQ(mfa_scan(pat, "abc.bcd"), reference_matches(pat, "abc.bcd"));
}

TEST(GapMatch, ChainedGapAndDotStar) {
  const std::vector<std::string> pat = {".*aa.{2,}bb.*cc"};
  for (const std::string& input : std::vector<std::string>{
           "aa..bb cc", "aabb cc", "aa.bb cc", "aa...bb...cc", "cc aa..bb",
           "aa..bbcc", "bb aa cc", "aa..bb"}) {
    EXPECT_EQ(mfa_scan(pat, input), sorted(reference_matches(pat, input))) << input;
  }
}

TEST(GapMatch, AnchoredGapPattern) {
  const std::vector<std::string> pat = {"^hd.{3,}tl"};
  EXPECT_TRUE(mfa_scan(pat, "hd..tl").empty());
  EXPECT_EQ(mfa_scan(pat, "hd...tl").size(), 1u);
  EXPECT_TRUE(mfa_scan(pat, ".hd...tl").empty());  // not at start
}

TEST(GapMatch, LeadingGapSemantics) {
  const std::vector<std::string> pat = {".{4,}abc"};
  EXPECT_TRUE(mfa_scan(pat, "abc").empty());
  EXPECT_TRUE(mfa_scan(pat, "...abc").empty());   // only 3 bytes before
  EXPECT_EQ(mfa_scan(pat, "....abc").size(), 1u);
  EXPECT_EQ(mfa_scan(pat, "....abc"), reference_matches(pat, "....abc"));
}

class GapPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GapPropertyTest, RandomGapPatternsMatchReference) {
  util::Rng rng(GetParam());
  std::vector<std::string> pats;
  const int npat = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < npat; ++i) {
    std::string p = ".*" + rng.lower_string(2 + rng.below(3));
    const int links = 1 + static_cast<int>(rng.below(2));
    for (int j = 0; j < links; ++j) {
      switch (rng.below(3)) {
        case 0: p += ".*"; break;
        case 1: p += ".{" + std::to_string(1 + rng.below(5)) + ",}"; break;
        default: p += ".+"; break;
      }
      p += rng.lower_string(2 + rng.below(3));
    }
    pats.push_back(std::move(p));
  }
  const auto inputs = compile_patterns(pats);
  auto m = core::build_mfa(inputs);
  ASSERT_TRUE(m.has_value());
  const nfa::Nfa reference = nfa::build_nfa(inputs);
  for (int round = 0; round < 30; ++round) {
    std::string input;
    for (int c = 1 + static_cast<int>(rng.below(4)); c > 0; --c) {
      if (rng.chance(0.6))
        input += regex::sample_match(inputs[rng.below(inputs.size())].regex, rng);
      else
        input += rng.lower_string(rng.below(8));
    }
    Scanner ms(*m);
    Scanner ns(reference);
    EXPECT_EQ(sorted(ms.scan(input)), sorted(ns.scan(input))) << input;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GapPropertyTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

}  // namespace
}  // namespace mfa::split
