#include "mfa/mfa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "engine_test_util.h"
#include "flow/tiered.h"
#include "patterns/builtin.h"
#include "regex/sample.h"
#include "util/binio.h"
#include "util/rng.h"

namespace mfa::core {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::reference_matches;
using mfa::testing::sorted;

Mfa build(const std::vector<std::string>& sources, BuildOptions opts = {}) {
  auto m = build_mfa(compile_patterns(sources), opts);
  EXPECT_TRUE(m.has_value());
  return *std::move(m);
}

MatchVec scan(const Mfa& m, const std::string& input) {
  Scanner s(m);
  return sorted(s.scan(input));
}

TEST(Mfa, DotStarFiltered) {
  const Mfa m = build({".*abc.*xyz"});
  EXPECT_TRUE(scan(m, "xyz only").empty());
  EXPECT_TRUE(scan(m, "abc only").empty());
  EXPECT_TRUE(scan(m, "xyz then abc").empty());
  const MatchVec hit = scan(m, "abc then xyz");
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0], (Match{1, 11}));
}

TEST(Mfa, MatchesEqualOriginalSemantics) {
  const std::vector<std::string> pats = {".*abc.*xyz", ".*q1q2[^\\r\\n]*w3w4",
                                         ".*plainstring", "^anchored.*tail"};
  const Mfa m = build(pats);
  for (const std::string input :
       {"abc xyz", "xyz abc xyz", "q1q2 w3w4", "q1q2\nw3w4", "plainstring",
        "anchored then tail", "then anchored tail", "nothing at all",
        "abcxyzabcxyz", "q1q2 q1q2 w3w4 w3w4"}) {
    EXPECT_EQ(scan(m, input), sorted(reference_matches(pats, input))) << input;
  }
}

TEST(Mfa, StateSpaceFarSmallerThanDfa) {
  // Three 2-dot-star patterns: the DFA explodes multiplicatively, the MFA
  // stays additive (paper Sec. IV-A).
  const std::vector<std::string> pats = {".*aaaa.*bbbb.*cccc", ".*dddd.*eeee.*ffff",
                                         ".*gggg.*hhhh.*iiii"};
  const auto inputs = compile_patterns(pats);
  const nfa::Nfa n = nfa::build_nfa(inputs);
  const auto d = dfa::build_dfa(n);
  ASSERT_TRUE(d.has_value());
  const Mfa m = build(pats);
  EXPECT_LT(m.character_dfa().state_count() * 10, d->state_count());
  EXPECT_EQ(m.program().memory_bits, 6u);
}

TEST(Mfa, SurvivesWhereDfaExplodes) {
  std::vector<std::string> pats;
  util::Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    pats.push_back(".*" + rng.lower_string(4) + ".*" + rng.lower_string(4) + ".*" +
                   rng.lower_string(4));
  }
  const auto inputs = compile_patterns(pats);
  dfa::BuildOptions cap;
  cap.max_states = 5000;
  EXPECT_FALSE(dfa::build_dfa(nfa::build_nfa(inputs), cap).has_value());

  BuildOptions opts;
  opts.dfa.max_states = 5000;
  BuildStats stats;
  const auto m = build_mfa(inputs, opts, &stats);
  ASSERT_TRUE(m.has_value());
  EXPECT_LT(m->character_dfa().state_count(), 1000u);
}

TEST(Mfa, FilterIsTinyShareOfImage) {
  const Mfa m = build({".*abcd.*efgh", ".*ijkl.*mnop", ".*qrst[^\\r\\n]*uvwx"});
  const std::size_t filters = m.program().memory_image_bytes();
  EXPECT_LT(filters * 10, m.memory_image_bytes());  // filters are a small slice
}

TEST(Mfa, ContextBytesIncludesMemory) {
  const Mfa m = build({".*abcd.*efgh"});
  EXPECT_EQ(m.context_bytes(), 4u + 8u);  // dfa state + 1 bit rounded to a word
}

TEST(Mfa, BuildStatsPopulated) {
  BuildStats stats;
  const auto m = build_mfa(compile_patterns({".*ab12.*cd34", ".*plain"}), {}, &stats);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(stats.split.patterns_in, 2u);
  EXPECT_EQ(stats.split.patterns_decomposed, 1u);
  EXPECT_GT(stats.dfa.states, 0u);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(Mfa, BuildStatsPhasesSplitTheCompile) {
  // Every phase that ran is timed, the phases fit inside the total, and
  // the optional ones read 0 when off.
  const auto patterns = compile_patterns({".*ab12.*cd34", ".*plain", "x[0-9]+y"});
  for (const bool delta : {false, true}) {
    BuildOptions opts;
    opts.delta = delta;
    opts.dfa.minimize = delta;
    BuildStats stats;
    ASSERT_TRUE(build_mfa(patterns, opts, &stats).has_value());
    const auto& p = stats.phases;
    EXPECT_GT(p.split, 0.0);
    EXPECT_GT(p.nfa, 0.0);
    EXPECT_GT(p.subset, 0.0);
    EXPECT_GT(p.prefilter, 0.0);
    EXPECT_EQ(p.minimize > 0.0, delta);
    EXPECT_EQ(p.d2fa > 0.0, delta);
    EXPECT_DOUBLE_EQ(p.minimize, stats.dfa.minimize_seconds);
    EXPECT_DOUBLE_EQ(p.subset + p.minimize, stats.dfa.seconds);
    EXPECT_DOUBLE_EQ(p.d2fa, stats.d2fa.seconds);
    EXPECT_LE(p.sum(), stats.seconds);
  }
}

TEST(Mfa, RepeatedMatchesReported) {
  const Mfa m = build({".*ab.*cd"});
  const MatchVec v = scan(m, "ab cd cd cd");
  EXPECT_EQ(v.size(), 3u);
}

TEST(Mfa, AlmostDotStarTableIVBehavior) {
  // Only the third line pairs abc with xyz without an intervening newline.
  const Mfa m = build({".*abc[^\\n]*xyz"});
  const std::string input = "abc:\n:xyz\nabc:xyz\n";
  const MatchVec v = scan(m, input);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].end, 16u);  // 'z' of the third line's xyz
}

TEST(Mfa, MultiplexedScannersIndependent) {
  const Mfa m = build({".*abc.*xyz"});
  Scanner flow_a(m);
  Scanner flow_b(m);
  CollectingSink sink_a;
  CollectingSink sink_b;
  const std::string a1 = "abc...";
  const std::string b1 = "xyz after no abc";
  flow_a.feed(reinterpret_cast<const std::uint8_t*>(a1.data()), a1.size(), 0, sink_a);
  flow_b.feed(reinterpret_cast<const std::uint8_t*>(b1.data()), b1.size(), 0, sink_b);
  const std::string a2 = "xyz";
  flow_a.feed(reinterpret_cast<const std::uint8_t*>(a2.data()), a2.size(), a1.size(),
              sink_a);
  EXPECT_EQ(sink_a.matches.size(), 1u);  // abc in chunk 1, xyz in chunk 2
  EXPECT_TRUE(sink_b.matches.empty());   // flow B never saw abc
}

TEST(Mfa, RandomizedEquivalenceWithDfaOfOriginal) {
  // The core invariant (DESIGN.md Sec. 3): MFA(filtered) == DFA(original).
  util::Rng rng(2024);
  const std::vector<std::string> pats = {".*red1.*blu2", ".*gr3en[^\\n]*ye4lo",
                                         ".*wh5te.*bl6ck.*pu7rp", ".*solostring"};
  const auto inputs = compile_patterns(pats);
  const auto original_dfa = dfa::build_dfa(nfa::build_nfa(inputs));
  ASSERT_TRUE(original_dfa.has_value());
  const Mfa m = build(pats);
  for (int round = 0; round < 200; ++round) {
    std::string input;
    const int chunks = 1 + static_cast<int>(rng.below(6));
    for (int c = 0; c < chunks; ++c) {
      if (rng.chance(0.6)) {
        const auto& p = pats[rng.below(pats.size())];
        input += regex::sample_match(regex::parse_or_die(p), rng);
      } else {
        for (int i = rng.below(12); i > 0; --i)
          input += static_cast<char>(rng.chance(0.2) ? '\n' : rng.printable());
      }
    }
    Scanner ref(*original_dfa);
    Scanner mfa_scan(m);
    EXPECT_EQ(sorted(mfa_scan.scan(input)), sorted(ref.scan(input))) << input;
  }
}

/// Each `.*XX.*YY` pattern consumes one guard bit, so `n` patterns need an
/// n-bit filter memory.
std::vector<std::string> guard_bit_patterns(std::size_t n) {
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string tag = std::to_string(i);
    sources.push_back(".*qa" + tag + "z.*qb" + tag + "z");
  }
  return sources;
}

TEST(MfaMemoryCap, BuildScalesPastInlineMemoryBits) {
  // 300 guard bits exceed the 256-bit inline Memory words (Snort-class
  // rulesets decompose into thousands); the per-flow memory spills into
  // overflow words with unchanged match semantics. Pattern 280's guard bit
  // lives above the inline boundary, so ordering through it exercises the
  // spill path directly.
  const auto inputs = compile_patterns(guard_bit_patterns(300));
  EXPECT_GT(split::split_patterns(inputs).program.memory_bits,
            filter::kInlineMemoryBits);
  const Mfa m = build(guard_bit_patterns(300));
  Scanner s(m);
  EXPECT_EQ(s.scan("qa280z then qb280z").size(), 1u);
  EXPECT_EQ(s.scan("qb280z without the prefix").size(), 0u);
}

TEST(MfaMemoryCap, BuildRejectsProgramsBeyondMaxMemoryBits) {
  // The validate() ceiling still guards against absurd geometry: a program
  // declaring more than kMaxMemoryBits is refused at build time.
  auto sr = split::split_patterns(compile_patterns(guard_bit_patterns(2)));
  sr.program.memory_bits = filter::kMaxMemoryBits + 1;
  EXPECT_FALSE(sr.program.validate());
}

TEST(MfaMemoryCap, BuildAcceptsProgramsWithinMaxMemoryBits) {
  const Mfa m = build(guard_bit_patterns(40));
  EXPECT_LE(m.program().memory_bits, filter::kMaxMemoryBits);
  EXPECT_TRUE(m.program().validate());
  Scanner s(m);
  EXPECT_EQ(s.scan("qa17z then qb17z").size(), 1u);
}

TEST(MfaDelta, DenseVsDeltaParityFuzz) {
  // The delta-table Mfa must be observationally identical to the dense one:
  // same matches from feed() across arbitrary chunk seams (carried
  // contexts), with the prefilter gate armed on both sides. Patterns cover guard bits, almost-dot-star, counted gaps and
  // anchors so the filter layer runs over the delta transitions too.
  const std::vector<std::string> pats = {".*atk1.*vec2", ".*hd3[^\\n]*vl4",
                                         ".*gp5.{2,6}gp6", "^anch7.*tail8",
                                         ".*solo9"};
  const auto inputs = compile_patterns(pats);
  const auto dense = build_mfa(inputs);
  BuildOptions del;
  del.delta = true;
  const auto delta = build_mfa(inputs, del);
  ASSERT_TRUE(dense.has_value());
  ASSERT_TRUE(delta.has_value());
  ASSERT_TRUE(delta->delta_mode());

  util::Rng rng(771);
  for (int round = 0; round < 150; ++round) {
    std::string input;
    const int segs = 1 + static_cast<int>(rng.below(5));
    for (int c = 0; c < segs; ++c) {
      if (rng.chance(0.5)) {
        input += regex::sample_match(
            regex::parse_or_die(pats[rng.below(pats.size())]), rng);
      } else {
        for (int i = 4 + rng.below(40); i > 0; --i)
          input += static_cast<char>(rng.chance(0.1) ? '\n' : rng.printable());
      }
    }
    // feed() parity with random chunk seams; independent seams per engine
    // would diverge at the gate, so both use the same cut points.
    Mfa::Context cd = dense->make_context();
    Mfa::Context ce = delta->make_context();
    CollectingSink sd, se;
    std::size_t pos = 0;
    while (pos < input.size()) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.below(24), input.size() - pos);
      const auto* p = reinterpret_cast<const std::uint8_t*>(input.data()) + pos;
      dense->feed(cd, p, len, pos, sd);
      delta->feed(ce, p, len, pos, se);
      pos += len;
    }
    EXPECT_EQ(sorted(sd.matches), sorted(se.matches)) << input;
    EXPECT_EQ(cd.state, ce.state) << input;
  }
}

TEST(MfaDelta, GatedFeedParityWithDenseOnCleanTraffic) {
  // feed_gated() on a delta automaton: skips must reconstruct the same
  // state the dense scan reaches, and gated scans must report the same
  // matches. Clean chunks exercise the skip path; dirty ones the scan path.
  const std::vector<std::string> pats = {".*needleone.*needletwo", ".*probe99"};
  const auto inputs = compile_patterns(pats);
  const auto dense = build_mfa(inputs);
  BuildOptions del;
  del.delta = true;
  const auto delta = build_mfa(inputs, del);
  ASSERT_TRUE(dense.has_value());
  ASSERT_TRUE(delta.has_value());

  util::Rng rng(882);
  Mfa::Context cd = dense->make_context();
  Mfa::Context ce = delta->make_context();
  CollectingSink sd, se;
  std::uint64_t base = 0;
  for (int chunk = 0; chunk < 200; ++chunk) {
    std::string data;
    if (rng.chance(0.15)) {
      data = chunk % 2 == 0 ? "xx needleone yy" : "zz needletwo probe99";
    } else {
      for (int i = 0; i < 64; ++i) {
        char c = static_cast<char>(rng.printable());
        data += c == 'n' || c == 'p' ? 'q' : c;  // keep clean chunks clean
      }
    }
    const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
    dense->feed_gated(cd, p, data.size(), base, sd);
    delta->feed_gated(ce, p, data.size(), base, se);
    base += data.size();
    ASSERT_EQ(cd.state, ce.state) << "chunk " << chunk;
  }
  EXPECT_EQ(sorted(sd.matches), sorted(se.matches));
  EXPECT_FALSE(sd.matches.empty());
}

// --- Clear-only accept states fold to word masks (DESIGN.md §6 #10) ---

/// `n` almost-dot-star patterns `.*hdN[^\n]*vlN`. Each decomposes into a
/// Set piece, a Test-and-report piece and a pure-clear `\n` piece, so the
/// state entered on a line break carries n pure clears.
std::vector<std::string> ads_patterns(std::size_t n) {
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string tag = std::to_string(i);
    sources.push_back(".*hd" + tag + "[^\\n]*vl" + tag);
  }
  return sources;
}

/// Reference matches of the original (undecomposed) patterns: their DFA,
/// or the NFA where that DFA explodes (many ADS rules — MFA's raison d'être).
class Reference {
 public:
  Reference(const std::vector<std::string>& sources, bool original_dfa)
      : nfa_(nfa::build_nfa(compile_patterns(sources))) {
    if (original_dfa) {
      dfa_ = dfa::build_dfa(nfa_);
      EXPECT_TRUE(dfa_.has_value());
    }
  }
  MatchVec operator()(const std::string& input) const {
    if (dfa_) {
      Scanner s(*dfa_);
      return sorted(s.scan(input));
    }
    Scanner s(nfa_);
    return sorted(s.scan(input));
  }

 private:
  nfa::Nfa nfa_;
  std::optional<dfa::Dfa> dfa_;
};

/// Newline-dense traffic (the C112 signature): sampled matches of random
/// patterns between filler runs in which a fifth of the bytes are '\n'.
/// Half the matches are broken by a line break at a random point; an ADS
/// rule must then stay silent, which only its Clear ensures.
std::string newline_dense_input(const std::vector<std::string>& sources, util::Rng& rng) {
  std::string input;
  for (int seg = 2 + static_cast<int>(rng.below(6)); seg > 0; --seg) {
    if (rng.chance(0.5)) {
      std::string match = regex::sample_match(
          regex::parse_or_die(sources[rng.below(sources.size())]), rng);
      if (rng.chance(0.5)) match.insert(rng.below(match.size() + 1), 1, '\n');
      input += match;
    } else {
      for (int i = 4 + static_cast<int>(rng.below(30)); i > 0; --i)
        input += rng.chance(0.2) ? '\n' : static_cast<char>(rng.printable());
    }
  }
  return input;
}

/// Runs both Mfa entry points over the same flows, cut at the same random
/// chunk seams with contexts carried across them, and checks each flow's
/// matches against the reference: feed() on Context and on InlineContext.
/// The inline form always runs: a flow whose filter memory outgrows the
/// inline set spills into a Context held by the test, and its
/// InlineContext forwards there until the memory fits inline again at a
/// chunk end. Returns how many flows ever spilled.
template <typename RefFn, typename MakeInput>
std::size_t expect_entry_points_match(const Mfa& m, const RefFn& ref, std::uint64_t seed,
                                      MakeInput&& make_input) {
  constexpr std::size_t kFlows = 10;
  util::Rng rng(seed);
  std::vector<std::string> inputs;
  std::vector<std::vector<std::size_t>> seams;  // chunk end offsets per flow
  std::vector<MatchVec> expect;
  for (std::size_t f = 0; f < kFlows; ++f) {
    inputs.push_back(make_input(rng));
    std::vector<std::size_t> ends;
    for (std::size_t pos = 0; pos < inputs[f].size();) {
      pos = std::min<std::size_t>(inputs[f].size(), pos + 1 + rng.below(24));
      ends.push_back(pos);
    }
    seams.push_back(std::move(ends));
    expect.push_back(ref(inputs[f]));
  }
  const auto bytes = [&](std::size_t f, std::size_t pos) {
    return reinterpret_cast<const std::uint8_t*>(inputs[f].data()) + pos;
  };

  // The inline form's spill target: flow f's Context, built from its
  // InlineContext whenever that is not marked spilled yet.
  std::vector<Mfa::InlineContext> ictx(kFlows, m.make_inline_context());
  std::vector<Mfa::Context> full(kFlows, m.make_context());
  std::vector<bool> ever(kFlows, false);
  const auto spill_of = [&](std::size_t f) -> Mfa::Context& {
    if (!ictx[f].spilled()) {
      full[f] = m.expand_inline(ictx[f]);
      ever[f] = true;
    }
    return full[f];
  };
  const auto run_feed = [&](const char* what, auto feed_chunk) {
    for (std::size_t f = 0; f < kFlows; ++f) {
      CollectingSink sink;
      std::size_t pos = 0;
      for (const std::size_t end : seams[f]) {
        feed_chunk(f, bytes(f, pos), end - pos, pos, sink);
        pos = end;
      }
      EXPECT_EQ(sorted(sink.matches), expect[f]) << what << " flow " << f << ": " << inputs[f];
    }
  };

  std::vector<Mfa::Context> ctx(kFlows, m.make_context());
  run_feed("feed(Context)", [&](std::size_t f, const std::uint8_t* d, std::size_t n,
                                std::uint64_t base, CollectingSink& sink) {
    m.feed(ctx[f], d, n, base, sink);
  });
  run_feed("feed(InlineContext)", [&](std::size_t f, const std::uint8_t* d, std::size_t n,
                                      std::uint64_t base, CollectingSink& sink) {
    m.feed(ictx[f], d, n, base, [&]() -> Mfa::Context& { return spill_of(f); }, sink);
  });
  return static_cast<std::size_t>(std::count(ever.begin(), ever.end(), true));
}

/// expect_entry_points_match() over newline-dense traffic.
std::size_t expect_entry_points_match(const Mfa& m, const Reference& ref,
                                      const std::vector<std::string>& sources,
                                      std::uint64_t seed) {
  return expect_entry_points_match(
      m, ref, seed, [&](util::Rng& rng) { return newline_dense_input(sources, rng); });
}

/// Every `hd` tag of ads_patterns(n) in random order, no line break, with
/// some `vl` tags between: each flow ends up holding n live guard bits,
/// far past the four an InlineContext holds.
std::string ads_flood_input(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  std::string input;
  for (const std::size_t i : order) {
    input += "hd" + std::to_string(i) + " ";
    if (rng.chance(0.2)) input += "vl" + std::to_string(rng.below(n)) + " ";
  }
  for (int k = 0; k < 4; ++k) input += "vl" + std::to_string(rng.below(n)) + " ";
  return input;
}

TEST(MfaFold, S31pFoldsItsLineBreakClearState) {
  // S31p's 30 almost-dot-star rules each clear their guard bit on a line
  // break: the state entered there carries exactly those 30 pure clears and
  // is the set's only clear-only state (the C112 hot spot).
  const patterns::PatternSet set = patterns::set_by_name("S31p");
  BuildStats stats;
  const auto dense = build_mfa(set.patterns, {}, &stats);
  ASSERT_TRUE(dense.has_value());
  EXPECT_EQ(stats.folded_accept_states, 1u);
  EXPECT_EQ(stats.folded_actions, 30u);
  BuildOptions del;
  del.delta = true;
  const auto delta = build_mfa(set.patterns, del);
  ASSERT_TRUE(delta.has_value());

  const Reference ref(set.sources, /*original_dfa=*/true);
  expect_entry_points_match(*dense, ref, set.sources, 31);
  expect_entry_points_match(*delta, ref, set.sources, 32);
}

TEST(MfaFold, ClearMasksInOneWordAcrossWordsAndPastInlineMemory) {
  // One clear-only state whose bits sit in one word (5, 40), span two words
  // (80), and reach Memory's overflow words past kInlineMemoryBits (300).
  // The inline path runs at every size. On newline-dense traffic the clear
  // keeps live sets small; on a flood of every rule's head with no line
  // break each flow holds n > 4 live bits, so every flow spills.
  for (const std::size_t n : {5u, 40u, 80u, 300u}) {
    const auto sources = ads_patterns(n);
    const auto inputs = compile_patterns(sources);
    BuildStats stats;
    const auto dense = build_mfa(inputs, {}, &stats);
    ASSERT_TRUE(dense.has_value()) << n;
    EXPECT_EQ(stats.folded_accept_states, 1u) << n;
    EXPECT_EQ(stats.folded_actions, n) << n;
    if (n == 300) {
      EXPECT_GT(dense->program().memory_bits, filter::kInlineMemoryBits);
    }
    BuildOptions del;
    del.delta = true;
    const auto delta = build_mfa(inputs, del);
    ASSERT_TRUE(delta.has_value()) << n;

    const Reference ref(sources, /*original_dfa=*/n <= 5);
    expect_entry_points_match(*dense, ref, sources, 100 + n);
    expect_entry_points_match(*delta, ref, sources, 200 + n);
    const auto flood = [&](util::Rng& rng) { return ads_flood_input(n, rng); };
    EXPECT_EQ(expect_entry_points_match(*dense, ref, 300 + n, flood), 10u) << n;
    EXPECT_EQ(expect_entry_points_match(*delta, ref, 400 + n, flood), 10u) << n;
  }
}

TEST(MfaFold, MixedClearAndSetStateKeepsItsOrderedActions) {
  // Rule 1's line-break clear co-ends with rule 2's `xq\n` piece, so the
  // state entered on "xq\n" holds [Clear][Set]: it must run in filter order
  // and stay unfolded. Only the plain line-break state (one clear) folds.
  const std::vector<std::string> pats = {".*ab[^\\n]*cd", ".*xq\\n.*yz"};
  BuildStats stats;
  const auto m = build_mfa(compile_patterns(pats), {}, &stats);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(stats.folded_accept_states, 1u);
  EXPECT_EQ(stats.folded_actions, 1u);
  EXPECT_EQ(scan(*m, "ab xq\ncd yz"), (MatchVec{{2, 10}}));

  const Reference ref(pats, /*original_dfa=*/true);
  EXPECT_EQ(ref("ab xq\ncd yz"), (MatchVec{{2, 10}}));
  expect_entry_points_match(*m, ref, pats, 77);
}

// --- Crafted artifacts: the MFAC program section rewritten on disk ---

/// One MFAC v4 action record as the file stores it: 11 int32s, of which
/// 4-6 are the retired counter fields (the counter tested, its threshold,
/// the counter incremented).
using ActionRecord = std::array<std::int32_t, 11>;
static_assert(sizeof(ActionRecord) == 44);
constexpr std::size_t kCounterTest = 4;
constexpr std::size_t kCounterThreshold = 5;
constexpr std::size_t kCounterIncr = 6;
constexpr std::size_t kTestSlot = 8;

/// The filter program section of an MFAC v4 artifact.
struct ProgramSection {
  std::vector<ActionRecord> actions;
  std::uint32_t memory_bits = 0;
  std::uint32_t counters = 0;
  std::uint32_t position_slots = 0;
};

/// `m` reloaded with its program section replaced by edit(section): the
/// section rewritten in place (same action count) under a recomputed
/// digest, as a crafted artifact would carry it.
template <typename Edit>
std::optional<Mfa> with_program(const Mfa& m, Edit&& edit) {
  ProgramSection p;
  for (const filter::Action& a : m.program().actions)
    p.actions.push_back({a.test, a.set, a.clear, a.report, filter::kNone, 0, filter::kNone,
                         a.set_slot, a.test_slot, a.min_gap, a.order});
  p.memory_bits = m.program().memory_bits;
  p.position_slots = m.program().position_slots;
  edit(p);
  // One file per test: ctest runs the tests of this binary in parallel.
  const std::string path = ::testing::TempDir() + "mfa_crafted_" +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".mfac";
  EXPECT_TRUE(m.save(path));
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  std::size_t pieces = 8;
  for (const auto& piece : m.pieces()) pieces += 4 + piece.regex.source.size();
  const std::size_t program_bytes = 8 + p.actions.size() * sizeof(ActionRecord) + 12;
  char* at = bytes.data() + bytes.size() - 8 - pieces - program_bytes + 8;
  std::memcpy(at, p.actions.data(), p.actions.size() * sizeof(ActionRecord));
  at += p.actions.size() * sizeof(ActionRecord);
  std::memcpy(at, &p.memory_bits, 4);
  std::memcpy(at + 4, &p.counters, 4);
  std::memcpy(at + 8, &p.position_slots, 4);
  const std::uint64_t digest =
      util::detail::fnv1a(util::detail::kFnvOffset, bytes.data(), bytes.size() - 8);
  std::memcpy(bytes.data() + bytes.size() - 8, &digest, 8);
  std::ofstream(path, std::ios::binary).write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  auto loaded = Mfa::load(path);
  std::remove(path.c_str());
  return loaded;
}

TEST(MfaLoad, CountedArtifactsAreRefused) {
  // Counting constraints are not supported: an artifact that declares a
  // counter or sets any counter field of any action is refused cleanly.
  const Mfa m = build({".*ab.*cd"});
  ASSERT_EQ(m.program().actions.size(), 2u);
  // The control: the section rewritten unchanged loads and scans as built.
  const auto same = with_program(m, [](ProgramSection&) {});
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(same->program().actions, m.program().actions);
  EXPECT_EQ(scan(*same, "ab cd"), scan(m, "ab cd"));
  EXPECT_FALSE(with_program(m, [](ProgramSection& p) { p.counters = 1; }).has_value());
  for (const std::size_t field : {kCounterTest, kCounterIncr})
    for (std::size_t i = 0; i < 2; ++i)
      EXPECT_FALSE(with_program(m, [&](ProgramSection& p) { p.actions[i][field] = 0; })
                       .has_value())
          << field << " " << i;
  EXPECT_FALSE(with_program(m, [](ProgramSection& p) {
                 p.actions[1][kCounterThreshold] = 2;
               }).has_value());
}

TEST(MfaLoad, AppliesTheBuildChecks) {
  // load() runs Program::validate(), the check build_mfa() applies.
  const Mfa m = build({".*ab.{3,}cd"});
  ASSERT_EQ(m.program().memory_bits, 1u);
  const auto tester = std::find_if(m.program().actions.begin(), m.program().actions.end(),
                                   [](const filter::Action& a) { return a.test == 0; });
  ASSERT_NE(tester, m.program().actions.end());
  ASSERT_GT(tester->min_gap, 0);
  const std::size_t i = static_cast<std::size_t>(tester - m.program().actions.begin());
  ASSERT_TRUE(with_program(m, [](ProgramSection&) {}).has_value());
  // No memory at all, yet an action tests (and another sets) bit 0.
  EXPECT_FALSE(with_program(m, [](ProgramSection& p) { p.memory_bits = 0; }).has_value());
  // A gap with no slot to measure it from.
  EXPECT_FALSE(with_program(m, [&](ProgramSection& p) {
                 p.actions[i][kTestSlot] = filter::kNone;
               }).has_value());
}

// --- Spilling: inline contexts whose memory outgrows the inline set ---

/// Random text over a small alphabet seeded with the given literals.
std::string literal_soup(const std::vector<std::string>& literals, util::Rng& rng) {
  std::string input;
  for (int k = 4 + static_cast<int>(rng.below(12)); k > 0; --k) {
    if (rng.chance(0.5))
      input += literals[rng.below(literals.size())];
    else
      for (int i = 1 + static_cast<int>(rng.below(6)); i > 0; --i)
        input += "abcdxyz "[rng.below(8)];
  }
  return input;
}

TEST(MfaSpill, GapPatternSpillsAtThePositionRecord) {
  const std::vector<std::string> pats = {".*ab.{3,}yz", ".*cd.*xy"};
  for (const bool delta : {false, true}) {
    BuildOptions opts;
    opts.delta = delta;
    const auto m = build_mfa(compile_patterns(pats), opts);
    ASSERT_TRUE(m.has_value());
    ASSERT_EQ(m->program().position_slots, 1u);
    const Reference ref(pats, /*original_dfa=*/true);
    const auto soup = [](util::Rng& rng) {
      return literal_soup({"ab", "yz", "cd", "xy"}, rng);
    };
    EXPECT_GT(expect_entry_points_match(*m, ref, delta ? 22 : 21, soup), 0u);
  }
}

TEST(MfaSpill, BitIdsPastTheInlineRangeSpill) {
  // 65,535 never-matching rules take bits 0..65534, so the last rule's
  // guard is bit 0xFFFF — the first id the inline set cannot hold. One
  // live bit spills, and stays spilled across chunk ends.
  std::vector<nfa::PatternInput> inputs;
  constexpr std::uint32_t kFillers = 0xFFFF;
  const regex::Regex filler = regex::parse_or_die(".*qq.*zz");
  for (std::uint32_t i = 0; i < kFillers; ++i) inputs.push_back({filler, i + 1});
  inputs.push_back({regex::parse_or_die(".*ab.*cd"), kFillers + 1});
  const auto m = build_mfa(inputs);
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->program().memory_bits, kFillers + 1);
  const Reference target({".*ab.*cd"}, /*original_dfa=*/true);
  const auto ref = [&](const std::string& in) {
    MatchVec v = target(in);
    for (Match& match : v) match.id = kFillers + 1;
    return v;
  };
  const auto soup = [](util::Rng& rng) { return literal_soup({"ab", "cd"}, rng); };
  EXPECT_GT(expect_entry_points_match(*m, ref, 31, soup), 0u);
}

TEST(MfaSpill, SpillMidChunkRunsTheRestOfTheChunkOnTheFullMemory) {
  // One chunk per flow: each flow's fifth head spills it mid-chunk, and the
  // tails after it (reports of early and late heads, a line break, then a
  // fresh head) must all resolve on the spilled memory; the line break
  // empties it, so every flow ends inline again.
  const auto sources = ads_patterns(8);
  const Reference ref(sources, /*original_dfa=*/false);
  for (const bool delta : {false, true}) {
    BuildOptions opts;
    opts.delta = delta;
    const auto m = build_mfa(compile_patterns(sources), opts);
    ASSERT_TRUE(m.has_value());
    for (std::size_t f = 0; f < 12; ++f) {
      std::string in;
      for (std::size_t h = 0; h < 5 + f % 3; ++h) in += "hd" + std::to_string((f + h) % 8) + " ";
      in += "vl" + std::to_string(f % 8) + " vl" + std::to_string((f + 4) % 8) + "\nvl" +
            std::to_string(f % 8) + " hd7 vl7";
      Mfa::InlineContext ictx = m->make_inline_context();
      Mfa::Context full = m->make_context();
      int spills = 0;
      CollectingSink sink;
      m->feed(
          ictx, reinterpret_cast<const std::uint8_t*>(in.data()), in.size(), 0,
          [&]() -> Mfa::Context& {
            if (!ictx.spilled()) {
              full = m->expand_inline(ictx);
              ++spills;
            }
            return full;
          },
          sink);
      EXPECT_EQ(spills, 1) << f;
      EXPECT_FALSE(ictx.spilled()) << f;  // the line break emptied it
      EXPECT_EQ(sorted(sink.matches), ref(in)) << (delta ? "delta " : "dense ") << in;
      EXPECT_FALSE(sink.matches.empty());
    }
  }
}

// --- Quiet accepting states: skipped while a flow has no live bit ---

/// True when every action of accepting state `s` is quiet
/// (filter::Action::is_quiet).
bool quiet_state(const Mfa& m, std::uint32_t s) {
  const auto [first, last] = m.ordered_actions(s);
  return std::all_of(first, last,
                     [&](std::uint32_t id) { return m.program().actions[id].is_quiet(); });
}

/// The loud-first numbering: accepting states [0, loud) each carry a
/// non-quiet action and the rest carry none. The Dfa's accept lists, which
/// the numbering is derived from, agree with the scanning table's.
void expect_loud_first(const Mfa& m, const std::string& what) {
  const dfa::Dfa& d = m.character_dfa();
  const std::uint32_t loud = m.loud_accept_states();
  ASSERT_LE(loud, d.accepting_state_count()) << what;
  for (std::uint32_t s = 0; s < d.accepting_state_count(); ++s) {
    EXPECT_EQ(quiet_state(m, s), s >= loud) << what << ": state " << s;
    const auto [df, dl] = d.accepts(s);
    const auto [af, al] = m.ordered_actions(s);
    EXPECT_TRUE(std::equal(df, dl, af, al)) << what << ": state " << s;
  }
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(MfaQuiet, S31pNumbersItsFoldedLineBreakStateQuiet) {
  // S31p's line-break state (30 pure clears, the C112 hot spot) is quiet;
  // dense and delta builds number the states identically.
  const patterns::PatternSet set = patterns::set_by_name("S31p");
  std::vector<Mfa> built;
  for (const bool delta : {false, true}) {
    BuildOptions opts;
    opts.delta = delta;
    BuildStats stats;
    auto m = build_mfa(set.patterns, opts, &stats);
    ASSERT_TRUE(m.has_value());
    const char* what = delta ? "delta" : "dense";
    expect_loud_first(*m, what);
    const std::uint32_t naccept = m->character_dfa().accepting_state_count();
    const std::uint32_t loud = m->loud_accept_states();
    EXPECT_GT(loud, 0u) << what;
    EXPECT_EQ(stats.quiet_accept_states, naccept - loud) << what;
    std::uint32_t line_break = naccept;
    for (std::uint32_t s = 0; s < naccept; ++s) {
      const auto [first, last] = m->ordered_actions(s);
      if (last - first == 30 && std::all_of(first, last, [&](std::uint32_t id) {
            return m->program().actions[id].is_pure_clear();
          }))
        line_break = s;
    }
    ASSERT_LT(line_break, naccept) << what;
    EXPECT_GE(line_break, loud) << what;
    built.push_back(*std::move(m));
  }
  EXPECT_EQ(built[0].loud_accept_states(), built[1].loud_accept_states());
  EXPECT_EQ(built[0].character_dfa().start(), built[1].character_dfa().start());
}

TEST(MfaQuiet, LoadNumbersLoudFirstAndResavesByteIdentical) {
  // Legacy artifacts predate the numbering: load() derives it.
  for (const char* name : {"kpats_dense_v2.mfac", "ruleset300_delta_v3.mfac"}) {
    const auto loaded = Mfa::load(std::string(MFA_TEST_FIXTURE_DIR) + "/" + name);
    ASSERT_TRUE(loaded.has_value()) << name;
    expect_loud_first(*loaded, name);
  }
  // A fresh v4 artifact is numbered already, so loading it changes nothing.
  const patterns::PatternSet set = patterns::set_by_name("S31p");
  for (const bool delta : {false, true}) {
    BuildOptions opts;
    opts.delta = delta;
    const auto built = build_mfa(set.patterns, opts);
    ASSERT_TRUE(built.has_value());
    const std::string first = ::testing::TempDir() + "quiet_first.mfac";
    const std::string second = ::testing::TempDir() + "quiet_second.mfac";
    ASSERT_TRUE(built->save(first));
    const auto loaded = Mfa::load(first);
    ASSERT_TRUE(loaded.has_value());
    expect_loud_first(*loaded, delta ? "delta v4" : "dense v4");
    EXPECT_EQ(loaded->loud_accept_states(), built->loud_accept_states());
    ASSERT_TRUE(loaded->save(second));
    EXPECT_EQ(file_bytes(first), file_bytes(second)) << (delta ? "delta" : "dense");
    std::remove(first.c_str());
    std::remove(second.c_str());
  }
}

/// Rules whose quiet states fire as soon as a flow holds a bit: "ab" Sets
/// a bit and the very next byte's "c" Tests it (a quiet guarded Test), and
/// a line break Clears it (quiet). "xq\n" Clears and Sets (loud); "zz"
/// reports unconditionally (loud).
const std::vector<std::string> kQuietRules = {".*ab[^\\n]*c", ".*xq\\n.*yz", ".*zz"};

/// Random runs of kQuietRules' tokens and filler: flows gain their first
/// bit, test it, lose their last one and gain one again, mid-chunk.
std::string quiet_mix(util::Rng& rng) {
  static const char* const kTokens[] = {"abc", "ab", "c", "\n", "xq\n", "yz", "zz", "a", "b "};
  std::string input;
  for (int k = 6 + static_cast<int>(rng.below(20)); k > 0; --k)
    input += rng.chance(0.75) ? std::string(kTokens[rng.below(std::size(kTokens))])
                              : std::string(1 + rng.below(5), 'y');
  return input;
}

/// kQuietRules after six ADS rules, whose head floods spill a flow.
std::vector<std::string> quiet_and_ads_rules() {
  std::vector<std::string> sources = ads_patterns(6);
  sources.insert(sources.end(), kQuietRules.begin(), kQuietRules.end());
  return sources;
}

TEST(MfaQuiet, EveryEntryPointMatchesTheReferenceAsTheLimitMoves) {
  const Reference ref(kQuietRules, /*original_dfa=*/true);
  const std::vector<std::string> mixed_sources = quiet_and_ads_rules();
  const Reference mixed_ref(mixed_sources, /*original_dfa=*/false);
  for (const bool delta : {false, true}) {
    BuildOptions opts;
    opts.delta = delta;
    const auto m = build_mfa(compile_patterns(kQuietRules), opts);
    ASSERT_TRUE(m.has_value());
    ASSERT_LT(m->loud_accept_states(), m->character_dfa().accepting_state_count());
    expect_entry_points_match(*m, ref, delta ? 52 : 51, quiet_mix);

    // Spilled flows: a head flood spills every flow, a line break clears
    // its full memory to no bits, and then it gains bits again.
    const auto mixed = build_mfa(compile_patterns(mixed_sources), opts);
    ASSERT_TRUE(mixed.has_value());
    const auto flood = [](util::Rng& rng) {
      return ads_flood_input(6, rng) + quiet_mix(rng) + "\n" + quiet_mix(rng);
    };
    EXPECT_EQ(expect_entry_points_match(*mixed, mixed_ref, delta ? 54 : 53, flood), 10u);
  }
}

TEST(MfaQuiet, TieredPacketBatchMatchesTheReference) {
  // The deployed path: TieredFlowInspector::packet_batch_flows, each burst
  // one in-order segment of every live flow, inline flows among them
  // (every fourth one spilling on a head flood).
  const std::vector<std::string> sources = quiet_and_ads_rules();
  const Reference ref(sources, /*original_dfa=*/false);
  constexpr std::uint32_t kFlows = 16;
  for (const bool delta : {false, true}) {
    BuildOptions opts;
    opts.delta = delta;
    const auto m = build_mfa(compile_patterns(sources), opts);
    ASSERT_TRUE(m.has_value());
    util::Rng rng(delta ? 62 : 61);
    std::vector<std::string> content(kFlows);
    for (std::uint32_t f = 0; f < kFlows; ++f)
      content[f] = (f % 4 == 0 ? ads_flood_input(6, rng) : "") + quiet_mix(rng) + quiet_mix(rng);

    flow::TieredFlowInspector<Mfa> insp{*m};
    std::vector<std::size_t> off(kFlows, 0);
    std::vector<MatchVec> got(kFlows);
    for (;;) {
      std::vector<flow::Packet> burst;
      for (std::uint32_t f = 0; f < kFlows; ++f) {
        if (off[f] == content[f].size()) continue;
        const std::size_t len = std::min<std::size_t>(content[f].size() - off[f], 1 + rng.below(40));
        burst.push_back(flow::Packet{flow::FlowKey{f + 1, 99, 1000, 80, 6}, off[f],
                                     reinterpret_cast<const std::uint8_t*>(content[f].data()) + off[f],
                                     static_cast<std::uint32_t>(len)});
        off[f] += len;
      }
      if (burst.empty()) break;
      insp.packet_batch_flows(
          burst.data(), burst.size(),
          [&](const flow::FlowKey& key, std::uint32_t id, std::uint64_t end) {
            got[key.src_ip - 1].push_back({id, end});
          },
          [](const flow::Packet&) {});
    }
    for (std::uint32_t f = 0; f < kFlows; ++f)
      EXPECT_EQ(sorted(got[f]), ref(content[f])) << (delta ? "delta" : "dense") << " flow " << f;
  }
}

TEST(MfaEngineContext, SharedEngineIndependentContexts) {
  // The Engine/Context split directly: one immutable engine, two contexts
  // fed interleaved chunks of different flows.
  const Mfa m = build({".*abc.*xyz"});
  Mfa::Context a = m.make_context();
  Mfa::Context b = m.make_context();
  CollectingSink sink_a, sink_b;
  const auto feed = [&](Mfa::Context& c, const char* s, std::uint64_t base,
                        CollectingSink& sink) {
    m.feed(c, reinterpret_cast<const std::uint8_t*>(s), std::strlen(s), base, sink);
  };
  feed(a, "abc", 0, sink_a);
  feed(b, "xyz", 0, sink_b);  // no abc seen in this context: no match
  feed(a, "xyz", 3, sink_a);
  ASSERT_EQ(sink_a.matches.size(), 1u);
  EXPECT_EQ(sink_a.matches[0].end, 5u);
  EXPECT_TRUE(sink_b.matches.empty());
  // reset() returns a context to the start state with cleared memory.
  m.reset(a);
  CollectingSink sink_r;
  feed(a, "xyz", 0, sink_r);
  EXPECT_TRUE(sink_r.matches.empty());
  EXPECT_EQ(m.context_bytes(),
            sizeof(std::uint32_t) +
                filter::Memory::context_bytes(m.program().memory_bits,
                                              m.program().position_slots));
}

}  // namespace
}  // namespace mfa::core
