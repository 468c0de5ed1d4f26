// The paper's worked examples (Tables I-IV) as executable tests.
#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "mfa/mfa.h"
#include "split/splitter.h"

namespace mfa {
namespace {

using core::Mfa;
using filter::kNone;
using mfa::testing::compile_patterns;
using mfa::testing::reference_matches;
using mfa::testing::sorted;

// R1 from Table I: three dot-star patterns.
const std::vector<std::string> kR1 = {".*vi.*emacs", ".*bsd.*gnu", ".*abc.*mm?o.*xyz"};

TEST(PaperTable1, R1DecomposesIntoR2LikePieces) {
  // R2 of Table I is exactly the segment set {vi, emacs, bsd, gnu, abc,
  // mm?o, xyz}: splitting R1 must produce those 7 pieces.
  const split::SplitResult r = split::split_patterns(compile_patterns(kR1));
  EXPECT_EQ(r.pieces.size(), 7u);
  EXPECT_EQ(r.stats.patterns_decomposed, 3u);
  EXPECT_EQ(r.stats.dot_star_splits, 4u);
  EXPECT_EQ(r.program.memory_bits, 4u);
}

TEST(PaperTable3, FilterProgramMatchesPaper) {
  // Table III (with the chain bit the running text describes):
  //   vi:    Set b0          emacs: Test b0 to Match
  //   bsd:   Set b1          gnu:   Test b1 to Match
  //   abc:   Set b2          mm?o:  Test b2 to Set b3
  //   xyz:   Test b3 to Match
  const split::SplitResult r = split::split_patterns(compile_patterns(kR1));
  ASSERT_EQ(r.program.actions.size(), 7u);
  const auto& a = r.program.actions;
  // pattern 1: pieces 0 (vi) and 1 (emacs)
  EXPECT_EQ(a[0].set, 0);
  EXPECT_EQ(a[0].test, kNone);
  EXPECT_EQ(a[1].test, 0);
  EXPECT_EQ(a[1].report, 1);
  // pattern 2: pieces 2 (bsd) and 3 (gnu)
  EXPECT_EQ(a[2].set, 1);
  EXPECT_EQ(a[3].test, 1);
  EXPECT_EQ(a[3].report, 2);
  // pattern 3: pieces 4 (abc), 5 (mm?o), 6 (xyz)
  EXPECT_EQ(a[4].set, 2);
  EXPECT_EQ(a[5].test, 2);
  EXPECT_EQ(a[5].set, 3);
  EXPECT_EQ(a[6].test, 3);
  EXPECT_EQ(a[6].report, 3);
}

TEST(PaperTable2, MatchesOnTheExampleString) {
  // Table II's input: R1 matches on emacs, on the second gnu, and on xyz.
  const std::string input = "vi.emacs.gnu.bsd.gnu.abc.mo.xyz";
  auto m = core::build_mfa(compile_patterns(kR1));
  ASSERT_TRUE(m.has_value());
  Scanner s(*m);
  const MatchVec got = sorted(s.scan(input));
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (Match{1, 7}));   // emacs
  EXPECT_EQ(got[1], (Match{2, 19}));  // gnu (the one after bsd)
  EXPECT_EQ(got[2], (Match{3, 30}));  // xyz
  EXPECT_EQ(got, sorted(reference_matches(kR1, input)));
}

TEST(PaperTable2, FirstGnuIsFiltered) {
  // The raw piece DFA fires on both gnu occurrences; the filter must drop
  // the one before bsd. Count raw events directly on the character DFA.
  auto m = core::build_mfa(compile_patterns(kR1));
  ASSERT_TRUE(m.has_value());
  const std::string input = "vi.emacs.gnu.bsd.gnu.abc.mo.xyz";
  Scanner raw(m->character_dfa());
  const MatchVec raw_matches = raw.scan(input);
  // Raw: vi, emacs, gnu, bsd, gnu, abc, mo, xyz = 8 events.
  EXPECT_EQ(raw_matches.size(), 8u);
  Scanner s(*m);
  EXPECT_EQ(s.scan(input).size(), 3u);  // 5 of 8 filtered
}

TEST(PaperTable4, AlmostDotStarWalkthrough) {
  // Regex .*abc[^\n]*xyz on input "abc:\n:xyz\nabc:xyz\n" (Table IV):
  // raw events 1a,1b,1,1b,1a,1; only the final 1 survives the filter.
  const std::vector<std::string> pat = {".*abc[^\\n]*xyz"};
  auto m = core::build_mfa(compile_patterns(pat));
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->pieces().size(), 3u);
  const std::string input = "abc:\n:xyz\nabc:xyz\n";
  Scanner raw(m->character_dfa());
  // Table IV lists the six events 1a,1b,1,1b,1a,1; the input's trailing
  // newline produces a seventh (a final 1b clear) the table omits.
  EXPECT_EQ(raw.scan(input).size(), 7u);
  Scanner s(*m);
  const MatchVec got = s.scan(input);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].end, 16u);
  EXPECT_EQ(got, reference_matches(pat, input));
}

TEST(PaperSec4A, AbcBcdCounterexampleStaysCorrect) {
  // Sec. IV-A: .*abc.*bcd must NOT be decomposed (suffix bc = prefix bc);
  // input "abcd" must not match. Our splitter folds the boundary, so the
  // MFA still answers correctly.
  const std::vector<std::string> pat = {".*abc.*bcd"};
  auto m = core::build_mfa(compile_patterns(pat));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->pieces().size(), 1u);
  Scanner s(*m);
  EXPECT_TRUE(s.scan(std::string("abcd")).empty());
  EXPECT_EQ(s.scan(std::string("abc bcd")).size(), 1u);
}

TEST(PaperSec4B, BadXDecompositionAvoided) {
  // Sec. IV-B: .*abc[a-f]*xyz would generate a flood of clear events if
  // decomposed with X = [^a-f] (250 chars); the 128 threshold prevents it.
  const std::vector<std::string> pat = {".*abc[a-f]*xyz"};
  const split::SplitResult r = split::split_patterns(compile_patterns(pat));
  EXPECT_EQ(r.pieces.size(), 1u);
  // And matching still works, unsplit.
  auto m = core::build_mfa(compile_patterns(pat));
  ASSERT_TRUE(m.has_value());
  Scanner s(*m);
  EXPECT_EQ(s.scan(std::string("abcdefxyz")).size(), 1u);
  EXPECT_TRUE(s.scan(std::string("abc xyz")).empty());  // space not in [a-f]
}

TEST(PaperSec1C, StatelessFilteringWouldBeWrong) {
  // Sec. I-C: match 2 (gnu) is returned twice by R2 and must be filtered
  // once and passed once — only *stateful* filtering can do that. Verify
  // the two gnu events get opposite outcomes.
  const std::vector<std::string> pat = {".*bsd.*gnu"};
  auto m = core::build_mfa(compile_patterns(pat));
  ASSERT_TRUE(m.has_value());
  Scanner s(*m);
  const MatchVec got = s.scan(std::string("gnu.bsd.gnu"));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].end, 10u);  // second gnu only
}

}  // namespace
}  // namespace mfa
