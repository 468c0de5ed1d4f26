#include "regex/ast.h"

#include <gtest/gtest.h>

#include "regex/parser.h"
#include "regex/sample.h"
#include "util/rng.h"

namespace mfa::regex {
namespace {

NodePtr P(const std::string& src) { return parse_or_die(src).root; }

TEST(Ast, ConcatFlattens) {
  const NodePtr n = make_concat({P("ab"), P("cd")});
  ASSERT_EQ(n->kind, NodeKind::Concat);
  EXPECT_EQ(n->children.size(), 4u);
}

TEST(Ast, ConcatDropsEmpty) {
  const NodePtr n = make_concat({make_empty(), P("a"), make_empty()});
  EXPECT_EQ(n->kind, NodeKind::CharSet);
}

TEST(Ast, StarSimplifications) {
  EXPECT_EQ(make_star(make_star(P("a")))->children.size(), 1u);
  EXPECT_EQ(make_star(make_plus(P("a")))->kind, NodeKind::Star);
  EXPECT_EQ(make_star(make_optional(P("a")))->kind, NodeKind::Star);
  EXPECT_EQ(make_optional(make_plus(P("a")))->kind, NodeKind::Star);
}

TEST(Ast, RepeatNormalizations) {
  EXPECT_EQ(make_repeat(P("a"), 0, -1)->kind, NodeKind::Star);
  EXPECT_EQ(make_repeat(P("a"), 1, -1)->kind, NodeKind::Plus);
  EXPECT_EQ(make_repeat(P("a"), 0, 1)->kind, NodeKind::Optional);
  EXPECT_EQ(make_repeat(P("a"), 1, 1)->kind, NodeKind::CharSet);
  EXPECT_EQ(make_repeat(P("a"), 2, 5)->kind, NodeKind::Repeat);
}

TEST(Ast, Nullable) {
  EXPECT_TRUE(nullable(*P("a*")));
  EXPECT_TRUE(nullable(*P("a?")));
  EXPECT_TRUE(nullable(*P("(a|b*)")));
  EXPECT_TRUE(nullable(*P("a*b*")));
  EXPECT_FALSE(nullable(*P("a")));
  EXPECT_FALSE(nullable(*P("a*b")));
  EXPECT_FALSE(nullable(*P("a+")));
  EXPECT_TRUE(nullable(*P("a{0,3}")));
  EXPECT_FALSE(nullable(*P("a{2,3}")));
}

TEST(Ast, FirstChars) {
  EXPECT_TRUE(first_chars(*P("abc")).test('a'));
  EXPECT_FALSE(first_chars(*P("abc")).test('b'));
  // Nullable head exposes the next atom.
  const CharClass fc = first_chars(*P("a*bc"));
  EXPECT_TRUE(fc.test('a'));
  EXPECT_TRUE(fc.test('b'));
  EXPECT_FALSE(fc.test('c'));
  const CharClass alt = first_chars(*P("ab|cd"));
  EXPECT_TRUE(alt.test('a'));
  EXPECT_TRUE(alt.test('c'));
}

TEST(Ast, LastChars) {
  EXPECT_TRUE(last_chars(*P("abc")).test('c'));
  EXPECT_FALSE(last_chars(*P("abc")).test('b'));
  const CharClass lc = last_chars(*P("ab?")); // b optional: a or b can end
  EXPECT_TRUE(lc.test('a'));
  EXPECT_TRUE(lc.test('b'));
}

TEST(Ast, AllChars) {
  const CharClass ac = all_chars(*P("a(b|c)d*"));
  EXPECT_TRUE(ac.test('a'));
  EXPECT_TRUE(ac.test('b'));
  EXPECT_TRUE(ac.test('c'));
  EXPECT_TRUE(ac.test('d'));
  EXPECT_FALSE(ac.test('e'));
}

TEST(Ast, MatchLengths) {
  EXPECT_EQ(min_match_length(*P("abc")), 3);
  EXPECT_EQ(max_match_length(*P("abc")), 3);
  EXPECT_EQ(min_match_length(*P("a+")), 1);
  EXPECT_EQ(max_match_length(*P("a+")), -1);
  EXPECT_EQ(min_match_length(*P("a{2,5}")), 2);
  EXPECT_EQ(max_match_length(*P("a{2,5}")), 5);
  EXPECT_EQ(min_match_length(*P("ab|cde")), 2);
  EXPECT_EQ(max_match_length(*P("ab|cde")), 3);
}

TEST(Ast, ToSourceRoundTrips) {
  // to_source must produce a pattern that reparses to the same structure
  // (checked by printing twice).
  for (const char* src : {"abc", "a|b", "(ab|cd)+x", "[a-f]{2,4}", "a*b+c?",
                          ".*abc[^\\r\\n]*xyz", "\\d+\\.\\d+", "^anchored.*tail"}) {
    const Regex re1 = parse_or_die(src);
    const std::string printed = to_source(re1);
    const Regex re2 = parse_or_die(printed);
    EXPECT_EQ(printed, to_source(re2)) << src;
    EXPECT_EQ(re1.anchored, re2.anchored) << src;
  }
}

TEST(Ast, SampleMatchesAreInLanguage) {
  // Every sampled string, fed to the NFA of the same pattern, must match at
  // its final position.
  util::Rng rng(42);
  for (const char* src : {"abc", "a(b|c)d", "x[0-9]{2,4}y", "ab+c*", "(foo|bar)+"}) {
    const Regex re = parse_or_die(src);
    for (int i = 0; i < 20; ++i) {
      const std::string s = sample_match(re, rng);
      EXPECT_GE(s.size(), static_cast<std::size_t>(min_match_length(*re.root))) << src;
      const int maxlen = max_match_length(*re.root);
      if (maxlen >= 0) {
        EXPECT_LE(s.size(), static_cast<std::size_t>(maxlen)) << src;
      }
    }
  }
}

}  // namespace
}  // namespace mfa::regex
