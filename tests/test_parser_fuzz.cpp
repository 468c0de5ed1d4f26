// Parser robustness: random and mutated inputs must never crash, error
// offsets must stay in range, and accepted patterns must round-trip through
// the printer and compile cleanly.
#include <gtest/gtest.h>

#include "nfa/nfa.h"
#include "regex/parser.h"
#include "regex/sample.h"
#include "util/rng.h"

namespace mfa::regex {
namespace {

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, RandomBytesNeverCrash) {
  util::Rng rng(GetParam() * 104729);
  for (int round = 0; round < 400; ++round) {
    const std::size_t len = rng.below(40);
    std::string pattern(len, '\0');
    for (auto& c : pattern) c = static_cast<char>(rng.byte());
    const ParseResult r = parse(pattern);
    if (!r.ok()) {
      EXPECT_LE(r.error->offset, pattern.size());
      EXPECT_FALSE(r.error->message.empty());
    }
  }
}

TEST(ParserLimits, DeepGroupNestingRejectedNotStackOverflow) {
  // A hostile rule upload of 100k '(' must come back as a parse error; the
  // recursive-descent parser would otherwise ride it into a stack overflow.
  const std::string deep(100000, '(');
  const ParseResult r = parse(deep + "a" + std::string(100000, ')'));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error->message.find("nesting"), std::string::npos)
      << r.error->message;

  // Same for unbalanced prefixes (the parser must not recurse while
  // error-recovering either).
  const ParseResult unbalanced = parse(deep);
  ASSERT_FALSE(unbalanced.ok());
}

TEST(ParserLimits, ModerateNestingStillAccepted) {
  std::string pattern;
  for (int i = 0; i < 50; ++i) pattern += "(a";
  pattern += "b";
  for (int i = 0; i < 50; ++i) pattern += ")";
  const ParseResult r = parse(pattern);
  ASSERT_TRUE(r.ok()) << r.error->message;

  // The cap is configurable: the same pattern fails under a tighter one.
  ParseOptions tight;
  tight.max_nesting_depth = 10;
  EXPECT_FALSE(parse(pattern, tight).ok());
}

TEST_P(ParserFuzz, MetacharSoupNeverCrashes) {
  util::Rng rng(GetParam() * 7);
  const std::string alphabet = "ab(){}[]*+?|\\^$.-,0123456789/in";
  for (int round = 0; round < 400; ++round) {
    const std::size_t len = rng.below(30);
    std::string pattern;
    for (std::size_t i = 0; i < len; ++i) pattern += alphabet[rng.below(alphabet.size())];
    const ParseResult r = parse(pattern);
    if (r.ok()) {
      // Anything accepted must compile to an NFA without issue.
      const nfa::Nfa n =
          nfa::build_nfa({nfa::PatternInput{*r.regex, 1}});
      EXPECT_GT(n.state_count(), 0u);
    }
  }
}

TEST_P(ParserFuzz, AcceptedPatternsRoundTripStably) {
  util::Rng rng(GetParam() * 31);
  const std::string alphabet = "abc[]()*+?|.x-09";
  int accepted = 0;
  for (int round = 0; round < 500; ++round) {
    std::string pattern;
    for (std::size_t i = rng.below(16); i > 0; --i)
      pattern += alphabet[rng.below(alphabet.size())];
    const ParseResult r1 = parse(pattern);
    if (!r1.ok()) continue;
    ++accepted;
    const std::string printed1 = to_source(*r1.regex);
    const ParseResult r2 = parse(printed1);
    ASSERT_TRUE(r2.ok()) << "printed form rejected: " << printed1
                         << " (from " << pattern << ")";
    // Printing must reach a fixed point after one round.
    EXPECT_EQ(to_source(*r2.regex), printed1) << pattern;
  }
  EXPECT_GT(accepted, 10);
}

TEST_P(ParserFuzz, SampledStringsMatchTheirPattern) {
  // Parse, sample a member string, and confirm the NFA accepts it at the
  // final position — ties parser, sampler and NFA semantics together.
  util::Rng rng(GetParam() * 1009);
  const char* kPatterns[] = {
      "a(bc|de)+f",     "x[0-9]{2,4}y[a-f]*z", "(ab?c){2}",
      "q(w|e(r|t)y)+u", "[^\\n]{3}end",        "hdr\\x20\\x09val",
  };
  for (const char* src : kPatterns) {
    const Regex re = parse_or_die(src);
    const nfa::Nfa n = nfa::build_nfa({nfa::PatternInput{re, 1}});
    for (int i = 0; i < 25; ++i) {
      const std::string s = sample_match(re, rng);
      Scanner scanner(n);
      const MatchVec got = scanner.scan(s);
      const bool matched_at_end =
          std::any_of(got.begin(), got.end(),
                      [&](const Match& m) { return m.end == s.size() - 1; });
      EXPECT_TRUE(!s.empty() && matched_at_end) << src << " sample: " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace mfa::regex
