// Structural invariants checked over randomized and builtin inputs:
// byte-class consistency, DFA geometry, minimization idempotence, trace
// packetization, separator algebra.
#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "patterns/builtin.h"
#include "regex/sample.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace mfa {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::sorted;

class DfaInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(DfaInvariants, ByteClassesAreTransitionConsistent) {
  // Two bytes in the same class must behave identically from every state.
  const auto set = patterns::set_by_name(GetParam());
  const nfa::Nfa n = nfa::build_nfa(set.patterns);
  const auto [cls, count] = dfa::compute_byte_classes(n);
  // Verify against the NFA labels directly: a label must never separate
  // two bytes of one class.
  for (const auto& label : n.distinct_labels()) {
    std::array<int, 256> class_value{};
    std::fill(class_value.begin(), class_value.end(), -1);
    for (unsigned b = 0; b < 256; ++b) {
      const int in_label = label.test(static_cast<unsigned char>(b)) ? 1 : 0;
      if (class_value[cls[b]] == -1) class_value[cls[b]] = in_label;
      EXPECT_EQ(class_value[cls[b]], in_label) << "byte " << b;
    }
  }
}

TEST_P(DfaInvariants, AcceptGeometry) {
  const auto set = patterns::set_by_name(GetParam());
  const nfa::Nfa n = nfa::build_nfa(set.patterns);
  const auto d = dfa::build_dfa(n);
  ASSERT_TRUE(d.has_value());
  // Every accepting state has >= 1 id; ids are sorted unique and <= max id;
  // every transition target is in range.
  for (std::uint32_t s = 0; s < d->accepting_state_count(); ++s) {
    const auto [first, last] = d->accepts(s);
    ASSERT_LT(first, last);
    for (const auto* it = first; it != last; ++it) {
      EXPECT_LE(*it, d->max_match_id());
      if (it + 1 != last) {
        EXPECT_LT(*it, *(it + 1));
      }
    }
  }
  for (std::uint32_t s = 0; s < d->state_count(); ++s)
    for (unsigned b = 0; b < 256; ++b)
      EXPECT_LT(d->next(s, static_cast<unsigned char>(b)), d->state_count());
}

INSTANTIATE_TEST_SUITE_P(Sets, DfaInvariants, ::testing::Values("C8", "C10", "S24"));

TEST(Minimization, Idempotent) {
  const auto set = patterns::set_by_name("C8");
  const nfa::Nfa n = nfa::build_nfa(set.patterns);
  dfa::BuildOptions opts;
  opts.minimize = true;
  dfa::BuildStats s1;
  const auto d1 = dfa::build_dfa(n, opts, &s1);
  ASSERT_TRUE(d1.has_value());
  // Minimized size must be minimal: all pairs of distinct states must be
  // distinguishable. Spot check: no two states have identical rows AND
  // identical accept sets.
  std::set<std::vector<std::uint32_t>> signatures;
  for (std::uint32_t s = 0; s < d1->state_count(); ++s) {
    std::vector<std::uint32_t> sig;
    for (std::uint16_t c = 0; c < d1->column_count(); ++c) {
      // reconstruct via next() on a representative byte of column c
      for (unsigned b = 0; b < 256; ++b) {
        if (d1->byte_columns()[b] == c) {
          sig.push_back(d1->next(s, static_cast<unsigned char>(b)));
          break;
        }
      }
    }
    if (s < d1->accepting_state_count()) {
      const auto [first, last] = d1->accepts(s);
      sig.insert(sig.end(), first, last);
      sig.push_back(UINT32_MAX);  // mark accepting
    }
    EXPECT_TRUE(signatures.insert(sig).second) << "duplicate state " << s;
  }
}

TEST(Minimization, NeverLargerAndBoundedByUnminimized) {
  for (const char* name : {"C8", "S24"}) {
    const auto set = patterns::set_by_name(name);
    const nfa::Nfa n = nfa::build_nfa(set.patterns);
    const auto plain = dfa::build_dfa(n);
    dfa::BuildOptions opts;
    opts.minimize = true;
    const auto min = dfa::build_dfa(n, opts);
    ASSERT_TRUE(plain && min);
    EXPECT_LE(min->state_count(), plain->state_count()) << name;
    EXPECT_GT(min->state_count(), 0u);
  }
}

TEST(TracePackets, MtuRespectedBySynthetic) {
  const auto set = patterns::set_by_name("C8");
  const auto d = dfa::build_dfa(nfa::build_nfa(set.patterns));
  ASSERT_TRUE(d.has_value());
  const trace::Trace t = trace::make_synthetic(*d, 0.5, 50000, 1, /*mtu=*/512);
  t.for_each_packet([&](const flow::Packet& p) { EXPECT_LE(p.length, 512u); });
}

TEST(TracePackets, RealLifePacketSizesBounded) {
  const trace::Trace t = trace::make_real_life(trace::RealLifeProfile::kDarpa, 60000, 2, {});
  t.for_each_packet([&](const flow::Packet& p) {
    EXPECT_GT(p.length, 0u);
    EXPECT_LE(p.length, 1460u);
  });
}

TEST(MatchContract, EveryEngineReportsAtMostOncePerIdAndPosition) {
  const std::vector<std::string> pats = {"(a|aa)+b", ".*aa.*ab"};
  const auto inputs = compile_patterns(pats);
  const nfa::Nfa n = nfa::build_nfa(inputs);
  const auto d = dfa::build_dfa(n);
  auto m = core::build_mfa(inputs);
  ASSERT_TRUE(d && m);
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    std::string input;
    for (int j = 0; j < 30; ++j) input += "ab"[rng.below(2)];
    for (const MatchVec& got :
         {Scanner(n).scan(input), Scanner(*d).scan(input),
          Scanner(*m).scan(input)}) {
      MatchVec s = sorted(got);
      EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end())
          << "duplicate match on " << input;
    }
  }
}

TEST(ContextSizes, OrderingAcrossEngines) {
  // The paper's flow-multiplexing argument: DFA context tiny, MFA adds only
  // w bits, NFA pays a whole active-state set.
  const auto set = patterns::set_by_name("S24");
  const nfa::Nfa n = nfa::build_nfa(set.patterns);
  auto m = core::build_mfa(set.patterns);
  ASSERT_TRUE(m.has_value());
  const std::size_t dfa_ctx = m->character_dfa().context_bytes();
  const std::size_t mfa_ctx = m->context_bytes();
  const std::size_t nfa_ctx = n.context_bytes();
  EXPECT_LT(dfa_ctx, mfa_ctx);
  EXPECT_LT(mfa_ctx, nfa_ctx);
  EXPECT_LE(mfa_ctx, 64u);  // a handful of words, suitable for 1M flows
}

TEST(SeparatorAlgebra, NormalizationPreservesSemantics) {
  // Patterns whose separator runs collapse must still match exactly like
  // their verbose forms.
  const std::vector<std::pair<std::string, std::string>> kEquivalentPairs = {
      {".*ab.*.*cd", ".*ab.*cd"},
      {".*ab.*[^\\n]*cd", ".*ab.*cd"},
      {".*ab[^\\n]*[^\\n]*cd", ".*ab[^\\n]*cd"},
      {".*ab.+.{2,}cd", ".*ab.{3,}cd"},
  };
  util::Rng rng(9);
  for (const auto& [verbose, simple] : kEquivalentPairs) {
    auto mv = core::build_mfa(compile_patterns({verbose}));
    auto ms = core::build_mfa(compile_patterns({simple}));
    ASSERT_TRUE(mv && ms);
    for (int i = 0; i < 40; ++i) {
      std::string input;
      for (int j = 0; j < 24; ++j) {
        const char* alphabet = "abcd.\n";
        input += alphabet[rng.below(6)];
      }
      input += rng.chance(0.5) ? "ab" : "cd";
      Scanner sv(*mv);
      Scanner ss(*ms);
      EXPECT_EQ(sorted(sv.scan(input)), sorted(ss.scan(input)))
          << verbose << " vs " << simple << " on " << input;
    }
  }
}

}  // namespace
}  // namespace mfa
