#include "mfa/mfa.h"

#include <gtest/gtest.h>

#include <cstring>

#include "engine_test_util.h"
#include "patterns/builtin.h"
#include "regex/sample.h"
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
  MfaScanner s(m);
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
  MfaScanner flow_a(m);
  MfaScanner flow_b(m);
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
    dfa::DfaScanner ref(*original_dfa);
    MfaScanner mfa_scan(m);
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
  MfaScanner s(m);
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
  MfaScanner s(m);
  EXPECT_EQ(s.scan("qa17z then qb17z").size(), 1u);
}

TEST(MfaDelta, DenseVsDeltaParityFuzz) {
  // The delta-table Mfa must be observationally identical to the dense one:
  // same matches from feed() across arbitrary chunk seams (carried contexts)
  // and from feed_many() batches, with the prefilter gate armed on both
  // sides. Patterns cover guard bits, almost-dot-star, counted gaps and
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

    // feed_many() parity: the whole input as one batch job per engine.
    Mfa::Context bd = dense->make_context();
    Mfa::Context be = delta->make_context();
    MatchVec md, me;
    Mfa::FeedJob jd{&bd, reinterpret_cast<const std::uint8_t*>(input.data()),
                    input.size(), 0};
    Mfa::FeedJob je{&be, reinterpret_cast<const std::uint8_t*>(input.data()),
                    input.size(), 0};
    dense->feed_many(&jd, 1, [&](std::size_t, std::uint32_t id, std::uint64_t e) {
      md.push_back({id, e});
    });
    delta->feed_many(&je, 1, [&](std::size_t, std::uint32_t id, std::uint64_t e) {
      me.push_back({id, e});
    });
    EXPECT_EQ(sorted(md), sorted(me)) << input;
    EXPECT_EQ(sorted(md), sorted(sd.matches)) << input;
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
      dfa::DfaScanner s(*dfa_);
      return sorted(s.scan(input));
    }
    nfa::NfaScanner s(nfa_);
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

/// Runs every Mfa entry point over the same flows, cut at the same random
/// chunk seams with contexts carried across them, and checks each flow's
/// matches against the reference: feed() on Context and on InlineContext,
/// and feed_many() over both job types. Each feed_many() call batches one
/// chunk of every live flow, so the interleaved kernel (AVX2 where the CPU
/// has it) runs with all lanes busy.
void expect_entry_points_match(const Mfa& m, const Reference& ref,
                               const std::vector<std::string>& sources,
                               std::uint64_t seed) {
  constexpr std::size_t kFlows = 10;
  util::Rng rng(seed);
  std::vector<std::string> inputs;
  std::vector<std::vector<std::size_t>> seams;  // chunk end offsets per flow
  std::vector<MatchVec> expect;
  for (std::size_t f = 0; f < kFlows; ++f) {
    inputs.push_back(newline_dense_input(sources, rng));
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

  const auto run_feed = [&](const char* what, auto make_context) {
    for (std::size_t f = 0; f < kFlows; ++f) {
      auto ctx = make_context();
      CollectingSink sink;
      std::size_t pos = 0;
      for (const std::size_t end : seams[f]) {
        m.feed(ctx, bytes(f, pos), end - pos, pos, sink);
        pos = end;
      }
      EXPECT_EQ(sorted(sink.matches), expect[f]) << what << " flow " << f << ": " << inputs[f];
    }
  };
  const auto run_feed_many = [&](const char* what, auto make_context) {
    using Ctx = decltype(make_context());
    std::vector<Ctx> ctx;
    for (std::size_t f = 0; f < kFlows; ++f) ctx.push_back(make_context());
    std::vector<MatchVec> got(kFlows);
    std::vector<std::size_t> next(kFlows, 0);
    std::vector<std::size_t> pos(kFlows, 0);
    for (;;) {
      std::vector<scan::FeedJob<Ctx>> jobs;
      std::vector<std::size_t> owner;
      for (std::size_t f = 0; f < kFlows; ++f) {
        if (next[f] == seams[f].size()) continue;
        const std::size_t end = seams[f][next[f]++];
        jobs.push_back({&ctx[f], bytes(f, pos[f]), end - pos[f], pos[f]});
        owner.push_back(f);
        pos[f] = end;
      }
      if (jobs.empty()) break;
      m.feed_many(jobs.data(), jobs.size(),
                  [&](std::size_t j, std::uint32_t id, std::uint64_t e) {
                    got[owner[j]].push_back({id, e});
                  });
    }
    for (std::size_t f = 0; f < kFlows; ++f)
      EXPECT_EQ(sorted(got[f]), expect[f]) << what << " flow " << f << ": " << inputs[f];
  };

  run_feed("feed(Context)", [&] { return m.make_context(); });
  run_feed_many("feed_many(Context)", [&] { return m.make_context(); });
  if (m.inline_contexts_ok()) {
    run_feed("feed(InlineContext)", [&] { return m.make_inline_context(); });
    run_feed_many("feed_many(InlineContext)", [&] { return m.make_inline_context(); });
  }
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
  // One clear-only state whose bits sit in the low half of one word (5),
  // fill both 32-bit halves of an InlineContext (40), span two words (80),
  // and reach Memory's overflow words past kInlineMemoryBits (300).
  for (const std::size_t n : {5u, 40u, 80u, 300u}) {
    const auto sources = ads_patterns(n);
    const auto inputs = compile_patterns(sources);
    BuildStats stats;
    const auto dense = build_mfa(inputs, {}, &stats);
    ASSERT_TRUE(dense.has_value()) << n;
    EXPECT_EQ(stats.folded_accept_states, 1u) << n;
    EXPECT_EQ(stats.folded_actions, n) << n;
    EXPECT_EQ(dense->inline_contexts_ok(), n <= 64) << n;
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
                                              m.program().counters,
                                              m.program().position_slots));
}

}  // namespace
}  // namespace mfa::core
