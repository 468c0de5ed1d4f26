// The master cross-engine property suite: NFA = DFA = MFA = HFA = XFA on
// the same inputs (DESIGN.md Sec. 3). Inputs mix random noise, sampled
// pattern matches, and adversarial boundary cases; pattern sets are both
// hand-picked and randomly generated.
#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "regex/sample.h"
#include "util/rng.h"

namespace mfa {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::sorted;

struct AllEngines {
  nfa::Nfa nfa;
  dfa::Dfa dfa;
  core::Mfa mfa;
  hfa::Hfa hfa;
  xfa::Xfa xfa;
};

AllEngines build_all(const std::vector<std::string>& sources) {
  const auto inputs = compile_patterns(sources);
  AllEngines e{nfa::build_nfa(inputs), {}, {}, {}, {}};
  auto d = dfa::build_dfa(e.nfa);
  auto m = core::build_mfa(inputs);
  auto h = hfa::build_hfa(inputs);
  auto x = xfa::build_xfa(inputs);
  EXPECT_TRUE(d && m && h && x);
  e.dfa = *std::move(d);
  e.mfa = *std::move(m);
  e.hfa = *std::move(h);
  e.xfa = *std::move(x);
  return e;
}

void expect_all_equal(const AllEngines& e, const std::string& input) {
  Scanner ns(e.nfa);
  Scanner ds(e.dfa);
  Scanner ms(e.mfa);
  Scanner hs(e.hfa);
  Scanner xs(e.xfa);
  const MatchVec want = sorted(ns.scan(input));
  EXPECT_EQ(sorted(ds.scan(input)), want) << "DFA vs NFA on: " << input;
  EXPECT_EQ(sorted(ms.scan(input)), want) << "MFA vs NFA on: " << input;
  EXPECT_EQ(sorted(hs.scan(input)), want) << "HFA vs NFA on: " << input;
  EXPECT_EQ(sorted(xs.scan(input)), want) << "XFA vs NFA on: " << input;
}

TEST(Equivalence, HandPickedPatternsAndInputs) {
  const std::vector<std::string> pats = {
      ".*alpha.*beta",       ".*gam1[^\\n]*del2", ".*solo",
      "^start.*finish",      ".*one.*two.*three", ".*ab+c[0-9]{1,2}d",
  };
  const AllEngines e = build_all(pats);
  for (const std::string& input : std::vector<std::string>{
           "alpha beta",
           "beta alpha beta",
           "gam1 del2",
           "gam1\ndel2",
           "gam1 del2 gam1\ndel2 del2",
           "solo solo solo",
           "start ... finish",
           "not start ... finish",
           "one two three",
           "three two one",
           "one one two two three three",
           "abc1d abbbc99d",
           "",
           "\n\n\n",
           std::string(3, '\0') + "alpha" + std::string(2, '\xff') + "beta",
       }) {
    expect_all_equal(e, input);
  }
}

TEST(Equivalence, AdversarialBoundaryInputs) {
  // Inputs crafted to stress same-position action ordering and overlap
  // handling: segments ending at identical offsets, X at segment edges.
  const std::vector<std::string> pats = {".*aabb.*ccdd", ".*eeff[^\\n]*gghh"};
  const AllEngines e = build_all(pats);
  for (const std::string input : {
           "aabbccdd",        // B right after A
           "ccddaabb",        // B before A
           "aabbaabbccddccdd",
           "eeffgghh",
           "eeff\ngghh",
           "eeffgg\nhh",
           "eeff gghh eeff\ngghh gghh",
           "aabbccddaabbccdd",
       }) {
    expect_all_equal(e, input);
  }
}

class RandomPatternEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPatternEquivalence, RandomSetsRandomInputs) {
  util::Rng rng(GetParam());
  // Generate a random pattern set in the paper's idiom.
  std::vector<std::string> pats;
  const int npat = 2 + static_cast<int>(rng.below(4));
  for (int i = 0; i < npat; ++i) {
    std::string p = ".*" + rng.lower_string(2 + rng.below(4));
    const int extra = static_cast<int>(rng.below(3));
    for (int j = 0; j < extra; ++j) {
      p += rng.chance(0.5) ? ".*" : "[^\\n]*";
      p += rng.lower_string(2 + rng.below(4));
    }
    pats.push_back(std::move(p));
  }
  const AllEngines e = build_all(pats);
  const auto compiled = compile_patterns(pats);
  for (int round = 0; round < 40; ++round) {
    std::string input;
    const int chunks = 1 + static_cast<int>(rng.below(5));
    for (int c = 0; c < chunks; ++c) {
      if (rng.chance(0.5)) {
        input += regex::sample_match(compiled[rng.below(compiled.size())].regex, rng);
      } else {
        const int len = static_cast<int>(rng.below(10));
        for (int i = 0; i < len; ++i)
          input += rng.chance(0.15) ? '\n' : static_cast<char>(rng.lower());
      }
    }
    expect_all_equal(e, input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPatternEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(Equivalence, ChunkedFeedEqualsWholeScanAcrossEngines) {
  const std::vector<std::string> pats = {".*red5.*blue7", ".*gree[^\\n]*yell"};
  const AllEngines e = build_all(pats);
  util::Rng rng(77);
  const auto compiled = compile_patterns(pats);
  std::string input;
  for (int i = 0; i < 8; ++i) {
    input += regex::sample_match(compiled[rng.below(compiled.size())].regex, rng);
    input += rng.lower_string(rng.below(8));
  }
  Scanner whole(e.mfa);
  const MatchVec want = sorted(whole.scan(input));

  Scanner chunked(e.mfa);
  CollectingSink sink;
  const auto* data = reinterpret_cast<const std::uint8_t*>(input.data());
  std::size_t pos = 0;
  while (pos < input.size()) {
    const std::size_t len = std::min<std::size_t>(1 + rng.below(7), input.size() - pos);
    chunked.feed(data + pos, len, pos, sink);
    pos += len;
  }
  EXPECT_EQ(sorted(sink.matches), want);
}

}  // namespace
}  // namespace mfa
