#include "nfa/nfa.h"

#include <gtest/gtest.h>

#include "engine_test_util.h"

namespace mfa::nfa {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::sorted;

MatchVec scan(const std::vector<std::string>& sources, const std::string& input) {
  const Nfa n = build_nfa(compile_patterns(sources));
  Scanner s(n);
  return sorted(s.scan(input));
}

TEST(Nfa, SimpleLiteralUnanchored) {
  const MatchVec m = scan({"abc"}, "xxabcyyabc");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], (Match{1, 4}));
  EXPECT_EQ(m[1], (Match{1, 9}));
}

TEST(Nfa, AnchoredOnlyAtStart) {
  EXPECT_EQ(scan({"^abc"}, "abcabc").size(), 1u);
  EXPECT_EQ(scan({"^abc"}, "xabc").size(), 0u);
  EXPECT_EQ(scan({"^abc"}, "abc")[0], (Match{1, 2}));
}

TEST(Nfa, Alternation) {
  const MatchVec m = scan({"cat|dog"}, "a dog and a cat");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].end, 4u);
  EXPECT_EQ(m[1].end, 14u);
}

TEST(Nfa, StarAndPlus) {
  // ab*c: abbbc and ac both match.
  EXPECT_EQ(scan({"ab*c"}, "abbbc").size(), 1u);
  EXPECT_EQ(scan({"ab*c"}, "ac").size(), 1u);
  EXPECT_EQ(scan({"ab+c"}, "ac").size(), 0u);
  EXPECT_EQ(scan({"ab+c"}, "abc").size(), 1u);
}

TEST(Nfa, CountedRepeat) {
  EXPECT_EQ(scan({"a{3}"}, "aa").size(), 0u);
  EXPECT_EQ(scan({"a{3}"}, "aaa").size(), 1u);
  // In "aaaa", a{3} ends at offsets 2 and 3.
  EXPECT_EQ(scan({"a{3}"}, "aaaa").size(), 2u);
  EXPECT_EQ(scan({"a{2,3}"}, "aaa").size(), 2u);
}

TEST(Nfa, DotStarPattern) {
  const MatchVec m = scan({".*ab.*cd"}, "ab__cd__cd");
  // cd ends at 5 and 9, both after ab.
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].end, 5u);
  EXPECT_EQ(m[1].end, 9u);
  EXPECT_EQ(scan({".*ab.*cd"}, "cd__ab").size(), 0u);
}

TEST(Nfa, AlmostDotStarRespectsLineBreaks) {
  EXPECT_EQ(scan({"ab[^\\n]*cd"}, "ab xx cd").size(), 1u);
  EXPECT_EQ(scan({"ab[^\\n]*cd"}, "ab x\nx cd").size(), 0u);
}

TEST(Nfa, MultiPatternIdsIndependent) {
  const MatchVec m = scan({"foo", "bar"}, "foobar");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], (Match{1, 2}));
  EXPECT_EQ(m[1], (Match{2, 5}));
}

TEST(Nfa, OneEventPerIdPerPosition) {
  // Both branches end at the same position: one event only.
  const MatchVec m = scan({"(ab|b)c"}, "abc");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], (Match{1, 2}));
}

TEST(Nfa, OverlappingMatchesAllReported) {
  const MatchVec m = scan({"aa"}, "aaaa");
  EXPECT_EQ(m.size(), 3u);  // ends at 1, 2, 3
}

TEST(Nfa, CaseInsensitiveFlag) {
  EXPECT_EQ(scan({"/abc/i"}, "xAbCx").size(), 1u);
  EXPECT_EQ(scan({"abc"}, "xAbCx").size(), 0u);
}

TEST(Nfa, FeedInChunksMatchesWholeScan) {
  const std::vector<std::string> pats = {".*ab.*cd", "xy+z"};
  const std::string input = "abxyzcd xyyyz ab cd";
  const Nfa n = build_nfa(compile_patterns(pats));
  Scanner whole(n);
  const MatchVec expect = whole.scan(input);

  Scanner chunked(n);
  chunked.reset();
  CollectingSink sink;
  const auto* data = reinterpret_cast<const std::uint8_t*>(input.data());
  std::size_t pos = 0;
  for (const std::size_t len : {3u, 1u, 7u, 5u, 3u}) {
    chunked.feed(data + pos, len, pos, sink);
    pos += len;
  }
  EXPECT_EQ(sorted(sink.matches), sorted(expect));
}

TEST(Nfa, StateAndImageAccounting) {
  const Nfa n = build_nfa(compile_patterns({"abc", "de*f"}));
  EXPECT_GT(n.state_count(), 4u);
  EXPECT_GT(n.memory_image_bytes(), 0u);
  EXPECT_EQ(n.max_match_id(), 2u);
  EXPECT_FALSE(n.distinct_labels().empty());
}

TEST(Nfa, ContextBytesTracksStateCount) {
  const Nfa n = build_nfa(compile_patterns({"abcdefghij"}));
  Scanner s(n);
  EXPECT_EQ(s.context_bytes(), ((n.state_count() + 63) / 64) * 8);
}

TEST(Nfa, EmptyInputNoMatches) {
  EXPECT_TRUE(scan({"abc"}, "").empty());
}

TEST(Nfa, NulBytesInInput) {
  const std::string input{"a\0b", 3};
  EXPECT_EQ(scan({"a\\0b"}, input).size(), 1u);
}

}  // namespace
}  // namespace mfa::nfa
