#include <gtest/gtest.h>

#include <set>

#include "engine_test_util.h"
#include "hfa/hfa.h"
#include "mfa/mfa.h"
#include "xfa/xfa.h"

namespace mfa {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::reference_matches;
using mfa::testing::sorted;

const std::vector<std::string> kPats = {".*atk1.*atk2", ".*hdr3[^\\n]*val4", ".*lone5"};

TEST(Hfa, MatchEquivalentToReference) {
  auto h = hfa::build_hfa(compile_patterns(kPats));
  ASSERT_TRUE(h.has_value());
  for (const std::string input :
       {"atk1 atk2", "atk2 atk1", "hdr3 val4", "hdr3\nval4", "lone5", "xyz"}) {
    Scanner s(*h);
    EXPECT_EQ(sorted(s.scan(input)), sorted(reference_matches(kPats, input))) << input;
  }
}

TEST(Hfa, WideTableImageLargerThanMfa) {
  // The HASIC cost model: 8-byte full-alphabet entries vs MFA's compressed
  // 4-byte table — the Fig. 2 image-size gap.
  const auto inputs = compile_patterns(kPats);
  auto h = hfa::build_hfa(inputs);
  auto m = core::build_mfa(inputs);
  ASSERT_TRUE(h && m);
  EXPECT_GT(h->memory_image_bytes(), 4 * m->memory_image_bytes());
}

TEST(Hfa, ContextMatchesMfaContext) {
  const auto inputs = compile_patterns(kPats);
  auto h = hfa::build_hfa(inputs);
  auto m = core::build_mfa(inputs);
  ASSERT_TRUE(h && m);
  EXPECT_EQ(h->context_bytes(), m->context_bytes());
}

TEST(Xfa, MatchEquivalentToReference) {
  auto x = xfa::build_xfa(compile_patterns(kPats));
  ASSERT_TRUE(x.has_value());
  for (const std::string input :
       {"atk1 atk2", "atk2 atk1", "hdr3 val4", "hdr3\nval4", "lone5 lone5", ""}) {
    Scanner s(*x);
    EXPECT_EQ(sorted(s.scan(input)), sorted(reference_matches(kPats, input))) << input;
  }
}

TEST(Xfa, ProgramsOnlyOnAcceptingStates) {
  auto x = xfa::build_xfa(compile_patterns(kPats));
  ASSERT_TRUE(x.has_value());
  const auto& d = x->character_dfa();
  std::size_t with_programs = 0;
  for (std::uint32_t s = 0; s < d.state_count(); ++s) {
    const auto [first, last] = x->program(s);
    if (first != last) {
      ++with_programs;
      EXPECT_LT(s, d.accepting_state_count());
    }
  }
  EXPECT_EQ(with_programs, d.accepting_state_count());
}

TEST(Xfa, InstructionLoweringCoversActionShapes) {
  // One pattern per action shape: plain report, set, test+report,
  // test+set, clear.
  const std::vector<std::string> pats = {".*aa11.*bb22.*cc33", ".*dd44[^\\n]*ee55",
                                         ".*solo99"};
  auto x = xfa::build_xfa(compile_patterns(pats));
  ASSERT_TRUE(x.has_value());
  std::set<xfa::Op> seen;
  const auto& d = x->character_dfa();
  for (std::uint32_t s = 0; s < d.accepting_state_count(); ++s) {
    const auto [first, last] = x->program(s);
    for (const auto* in = first; in != last; ++in) seen.insert(in->op);
  }
  EXPECT_TRUE(seen.count(xfa::Op::kBitSet));
  EXPECT_TRUE(seen.count(xfa::Op::kSetIfBit));
  EXPECT_TRUE(seen.count(xfa::Op::kReportIfBit));
  EXPECT_TRUE(seen.count(xfa::Op::kReport));
  EXPECT_TRUE(seen.count(xfa::Op::kBitClear));
}

TEST(Xfa, MemoryGeometryMatchesSplit) {
  const auto inputs = compile_patterns(kPats);
  auto x = xfa::build_xfa(inputs);
  auto m = core::build_mfa(inputs);
  ASSERT_TRUE(x && m);
  EXPECT_EQ(x->memory_bits(), m->program().memory_bits);
}

TEST(HfaXfa, FailWhenPieceDfaCapExceeded) {
  // Give the piece DFA an absurdly small cap: both builders must fail
  // cleanly rather than explode.
  const auto inputs = compile_patterns(kPats);
  hfa::BuildOptions h;
  h.dfa.max_states = 2;
  EXPECT_FALSE(hfa::build_hfa(inputs, h).has_value());
  xfa::BuildOptions x;
  x.dfa.max_states = 2;
  EXPECT_FALSE(xfa::build_xfa(inputs, x).has_value());
}

}  // namespace
}  // namespace mfa
