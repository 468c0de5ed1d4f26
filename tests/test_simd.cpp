// SIMD prefilter coverage (DESIGN.md §13).
//
// Four layers, each validated against a scalar or linear-scan reference:
//   - split::required_literal_factors: the or-list heuristic must only ever
//     produce *required* factors (every match contains one);
//   - simd::Teddy: no false negatives, exact ASCII case folding;
//   - simd::Prefilter / Mfa::feed_gated: the skip gate is byte-identical to
//     the plain scan (states, match ids, offsets) and disarms itself on
//     unprefilterable sets;
//   - flow-layer gating: gated flow-inspector output (ids, offsets,
//     generations) is identical to ungated delivery across
//     fragmentation, reorder, retransmission, batching, and icase corpora —
//     and the skip counters prove the gate actually fired.
//
// The whole file is kernel-agnostic: under MFA_SIMD=scalar it validates the
// fallback path, under AVX2 the vector path — CI runs both legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "dfa/dfa.h"
#include "engine_test_util.h"
#include "flow/tiered.h"
#include "mfa/mfa.h"
#include "nfa/nfa.h"
#include "regex/parser.h"
#include "simd/prefilter.h"
#include "simd/teddy.h"
#include "split/literals.h"
#include "util/rng.h"

namespace mfa {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::sorted;

// --- literal extraction -----------------------------------------------------

/// The contract under test: at least one extracted factor occurs in `s`
/// whenever `s` is a match of the source pattern.
bool some_factor_in(const std::vector<std::string>& factors, const std::string& s) {
  for (const auto& f : factors)
    if (s.find(f) != std::string::npos) return true;
  return false;
}

std::vector<std::string> factors_of(const std::string& pattern) {
  return split::required_literal_factors(regex::parse_or_die(pattern).root);
}

TEST(LiteralExtract, PlainLiteralAndAlternation) {
  const auto plain = factors_of("abc");
  ASSERT_FALSE(plain.empty());
  EXPECT_TRUE(some_factor_in(plain, "abc"));

  const auto alt = factors_of("(abc|defg)x");
  ASSERT_FALSE(alt.empty());
  EXPECT_TRUE(some_factor_in(alt, "abcx"));
  EXPECT_TRUE(some_factor_in(alt, "defgx"));
}

TEST(LiteralExtract, SmallClassExpands) {
  const auto f = factors_of("[ab]cd");
  ASSERT_FALSE(f.empty());
  EXPECT_TRUE(some_factor_in(f, "acd"));
  EXPECT_TRUE(some_factor_in(f, "bcd"));
}

TEST(LiteralExtract, DotStarPrefixKeepsTheRequiredTail) {
  const auto f = factors_of(".*evilpayload");
  ASSERT_FALSE(f.empty());
  EXPECT_TRUE(some_factor_in(f, std::string(100, 'x') + "evilpayload"));
}

TEST(LiteralExtract, OptionalMiddleNeverGluesAcrossTheGap) {
  // Regression: "a[bc]*d" must not yield a factor like "ad" that a match
  // with a non-empty middle ("abbbd") does not contain. Every factor the
  // heuristic emits has to occur in EVERY match.
  const auto f = factors_of("a[bc]*d");
  for (const char* m : {"ad", "abd", "acd", "abcbcbd"}) {
    if (!f.empty()) {
      EXPECT_TRUE(some_factor_in(f, m)) << "unsound factor set for match " << m;
    }
  }
}

TEST(LiteralExtract, UnboundedClassesYieldNothing) {
  // No required factor exists: extraction must admit defeat, not guess.
  EXPECT_TRUE(factors_of(".*").empty());
  EXPECT_TRUE(factors_of("[a-z]+").empty());
}

// --- Teddy ------------------------------------------------------------------

const std::vector<std::string> kLits = {"ab12", "cd34", "wxyz", "ha7ck"};

/// Filler bytes disjoint from every literal byte (and from their case
/// variants), so filler-only haystacks carry zero Teddy candidates.
std::string filler(util::Rng& rng, std::size_t len) {
  static const char alphabet[] = "EFGJLMNOPQ";
  std::string s(len, '\0');
  for (auto& c : s) c = alphabet[rng.below(sizeof alphabet - 1)];
  return s;
}

TEST(Teddy, CompileRejectsDegenerateSets) {
  EXPECT_FALSE(simd::Teddy::compile({}, false).has_value());
  EXPECT_FALSE(simd::Teddy::compile({"ok", ""}, false).has_value());
  std::vector<std::string> many;
  for (std::size_t i = 0; i < simd::Teddy::kMaxLiterals + 1; ++i)
    many.push_back("lit" + std::to_string(i));
  EXPECT_FALSE(simd::Teddy::compile(many, false).has_value());
}

TEST(Teddy, NoFalseNegativesAtAnyPlacement) {
  // kLits fills all three mask positions; the shorter sets run the one-
  // and two-position kernels.
  const std::vector<std::vector<std::string>> sets = {kLits, {"q9", "ab12"}, {"z", "wxyz"}};
  util::Rng rng(4242);
  for (const auto& lits : sets) {
    const auto t = simd::Teddy::compile(lits, false);
    ASSERT_TRUE(t.has_value());
    for (int round = 0; round < 400; ++round) {
      const std::string& lit = lits[rng.below(lits.size())];
      std::string hay = filler(rng, lit.size() + rng.below(160));
      const std::size_t pos = rng.below(hay.size() - lit.size() + 1);
      hay.replace(pos, lit.size(), lit);
      EXPECT_TRUE(t->matches(reinterpret_cast<const std::uint8_t*>(hay.data()),
                             hay.size()))
          << "missed '" << lit << "' at " << pos << " in len " << hay.size();
    }
    // Exact-fit haystacks (the boundary the block kernel's tail handling
    // owns).
    for (const std::string& lit : lits)
      EXPECT_TRUE(t->matches(reinterpret_cast<const std::uint8_t*>(lit.data()),
                             lit.size()));
  }
}

TEST(Teddy, CleanFillerNeverMatches) {
  // Not guaranteed by the API (false positives are allowed) but the filler
  // alphabet shares no nibble-pair with any literal byte, so a hit here
  // means the masks are broken, not that a benign FP occurred.
  const auto t = simd::Teddy::compile(kLits, false);
  ASSERT_TRUE(t.has_value());
  util::Rng rng(77);
  for (int round = 0; round < 100; ++round) {
    const std::string hay = filler(rng, rng.below(300));
    EXPECT_FALSE(t->matches(reinterpret_cast<const std::uint8_t*>(hay.data()),
                            hay.size()));
  }
}

TEST(Teddy, CaseFoldingIsExact) {
  const auto t = simd::Teddy::compile({"GotCha"}, /*icase=*/true);
  ASSERT_TRUE(t.has_value());
  util::Rng rng(99);
  for (int round = 0; round < 100; ++round) {
    std::string lit = "gotcha";
    for (auto& c : lit)
      if (rng.chance(0.5)) c = static_cast<char>(c - 32);  // random casing
    std::string hay = filler(rng, 40) + lit + filler(rng, 40);
    EXPECT_TRUE(t->matches(reinterpret_cast<const std::uint8_t*>(hay.data()),
                           hay.size()))
        << "missed case variant " << lit;
  }
}

// --- prefilter gate on the MFA ----------------------------------------------

const std::vector<std::string> kGatePatterns = {".*ab12.*cd34", ".*wxyz",
                                                ".*ha[0-9]ck"};

std::optional<core::Mfa> build_gated_mfa() {
  return core::build_mfa(compile_patterns(kGatePatterns));
}

TEST(PrefilterGate, ArmsForLiteralRichSets) {
  const auto m = build_gated_mfa();
  ASSERT_TRUE(m.has_value());
  const simd::Prefilter& p = m->prefilter();
  ASSERT_TRUE(p.enabled()) << p.status();
  ASSERT_TRUE(p.gate_enabled()) << p.status();
  EXPECT_STREQ(p.status(), "ok");
  EXPECT_GE(p.literal_count(), kGatePatterns.size());
  EXPECT_GE(p.window(), 3u);  // longest literal is >= 4 bytes

  const std::uint32_t start = m->character_dfa().start();
  EXPECT_FALSE(p.should_gate(start, simd::Prefilter::kMinGateBytes - 1));
  EXPECT_TRUE(p.should_gate(start, 256));

  // A skipped chunk must land in a state that can itself skip — that is
  // what makes the gate fire on every clean chunk of a long flow, not just
  // the first one.
  core::Mfa::Context ctx = m->make_context();
  util::Rng rng(7);
  const std::string clean = filler(rng, 256);
  ASSERT_EQ(m->prefilter_gate(ctx,
                              reinterpret_cast<const std::uint8_t*>(clean.data()),
                              clean.size()),
            simd::Gate::kSkip);
  EXPECT_TRUE(p.should_gate(ctx.state, 256));
}

TEST(PrefilterGate, DisarmsWhenAPieceHasNoLiteral) {
  // [0-9]+ has no required factor, so the whole set is unprefilterable; the
  // engine must stay correct with the gate dark.
  const auto m = core::build_mfa(compile_patterns({".*[0-9]+x", ".*wxyz"}));
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(m->prefilter().gate_enabled());
  Scanner scan(*m);
  const std::string input = "pay 123x load wxyz";
  EXPECT_EQ(sorted(scan.scan(input)),
            sorted(testing::reference_matches({".*[0-9]+x", ".*wxyz"}, input)));
}

TEST(PrefilterGate, SkipReconstructsTheExactState) {
  const auto m = build_gated_mfa();
  ASSERT_TRUE(m.has_value());
  util::Rng rng(2026);
  const std::string clean = filler(rng, 300);

  core::Mfa::Context gated = m->make_context();
  const auto g = m->prefilter_gate(
      gated, reinterpret_cast<const std::uint8_t*>(clean.data()), clean.size());
  EXPECT_EQ(g, simd::Gate::kSkip);

  core::Mfa::Context plain = m->make_context();
  CollectingSink none;
  m->feed(plain, reinterpret_cast<const std::uint8_t*>(clean.data()),
          clean.size(), 0, none);
  EXPECT_TRUE(none.matches.empty());
  EXPECT_EQ(gated.state, plain.state);

  // Dirty chunk: the gate must demand a scan and leave the context alone.
  std::string dirty = clean;
  dirty.replace(120, 4, "wxyz");
  core::Mfa::Context probe = m->make_context();
  const std::uint32_t before = probe.state;
  EXPECT_EQ(m->prefilter_gate(probe,
                              reinterpret_cast<const std::uint8_t*>(dirty.data()),
                              dirty.size()),
            simd::Gate::kScan);
  EXPECT_EQ(probe.state, before);
}

TEST(PrefilterGate, FeedGatedIsByteIdenticalOverChunkStreams) {
  const auto m = build_gated_mfa();
  ASSERT_TRUE(m.has_value());
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Rng rng(5000 + seed);
    // A stream of chunks: clean-large (skippable), dirty-large, and tiny
    // (below the gate floor), with literals sometimes torn across chunk
    // boundaries via a split in the middle of "ab12.*cd34".
    std::vector<std::string> chunks;
    for (int i = 0; i < 8; ++i) {
      switch (rng.below(4)) {
        case 0: chunks.push_back(filler(rng, 80 + rng.below(200))); break;
        case 1: {
          std::string c = filler(rng, 100);
          c.replace(rng.below(40), 4, "ab12");
          c.replace(60 + rng.below(30), 4, "cd34");
          chunks.push_back(c);
          break;
        }
        case 2:  // literal torn across the boundary
          chunks.push_back(filler(rng, 90) + "ab");
          chunks.push_back("12" + filler(rng, 90) + "cd34");
          break;
        default: chunks.push_back(filler(rng, rng.below(20))); break;
      }
    }
    core::Mfa::Context gated = m->make_context();
    core::Mfa::Context plain = m->make_context();
    CollectingSink got, want;
    std::uint64_t base = 0;
    bool skipped_any = false;
    for (const std::string& c : chunks) {
      const auto* d = reinterpret_cast<const std::uint8_t*>(c.data());
      skipped_any |= m->feed_gated(gated, d, c.size(), base, got);
      m->feed(plain, d, c.size(), base, want);
      base += c.size();
      EXPECT_EQ(gated.state, plain.state) << "seed " << seed;
    }
    EXPECT_EQ(sorted(std::move(got.matches)), sorted(std::move(want.matches)))
        << "seed " << seed;
    (void)skipped_any;  // some seeds are all-dirty; aggregate check below
  }
}

TEST(PrefilterGate, SurvivesSaveLoad) {
  const auto m = build_gated_mfa();
  ASSERT_TRUE(m.has_value());
  const std::string path = ::testing::TempDir() + "gated.mfac";
  ASSERT_TRUE(m->save(path));
  const auto loaded = core::Mfa::load(path);
  ASSERT_TRUE(loaded.has_value());
  // The prefilter is derived data: load() must rebuild it to the same arming.
  EXPECT_EQ(loaded->prefilter().gate_enabled(), m->prefilter().gate_enabled());
  EXPECT_EQ(loaded->prefilter().window(), m->prefilter().window());

  util::Rng rng(11);
  const std::string clean = filler(rng, 200);
  core::Mfa::Context ctx = loaded->make_context();
  EXPECT_EQ(loaded->prefilter_gate(
                ctx, reinterpret_cast<const std::uint8_t*>(clean.data()),
                clean.size()),
            simd::Gate::kSkip);
}

// --- flow-layer gating ------------------------------------------------------

struct Delivery {
  flow::FlowKey key;
  std::uint64_t seq = 0;
  std::string bytes;
};

/// Flow content with long clean stretches (so the gate can fire) and planted
/// literals, including ones the fragmenter will tear across segments.
std::string make_gate_content(util::Rng& rng) {
  std::string s;
  const std::size_t blocks = 3 + rng.below(4);
  for (std::size_t i = 0; i < blocks; ++i) {
    s += filler(rng, 100 + rng.below(200));
    switch (rng.below(5)) {
      case 0: s += "ab12"; break;
      case 1: s += "cd34"; break;
      case 2: s += "wxyz"; break;
      case 3: s += "ha7ck"; break;
      default: break;
    }
  }
  return s;
}

/// Segment `content` into pieces of [min_seg, max_seg] bytes; optionally
/// shuffle within a bounded window and add retransmissions.
std::vector<Delivery> plan_flow(const flow::FlowKey& key, const std::string& content,
                                std::size_t min_seg, std::size_t max_seg,
                                bool reorder, util::Rng& rng) {
  std::vector<Delivery> plan;
  std::size_t off = 0;
  while (off < content.size()) {
    const std::size_t len =
        std::min(content.size() - off, min_seg + rng.below(max_seg - min_seg + 1));
    plan.push_back({key, off, content.substr(off, len)});
    off += len;
  }
  if (reorder) {
    for (std::size_t i = 0; i + 1 < plan.size(); ++i) {
      const std::size_t j =
          i + 1 + rng.below(std::min<std::size_t>(3, plan.size() - i - 1));
      if (rng.chance(0.5)) std::swap(plan[i], plan[j]);
    }
    const std::size_t dups = rng.below(3);
    for (std::size_t i = 0; i < dups && !plan.empty(); ++i)
      plan.push_back(plan[rng.below(plan.size())]);
  }
  return plan;
}

template <typename Inspector>
MatchVec run_packets(Inspector& insp, const std::vector<Delivery>& plan) {
  CollectingSink sink;
  for (const auto& d : plan)
    insp.packet(flow::Packet{d.key, d.seq,
                             reinterpret_cast<const std::uint8_t*>(d.bytes.data()),
                             static_cast<std::uint32_t>(d.bytes.size())},
                sink);
  return sorted(std::move(sink.matches));
}

template <typename Inspector>
MatchVec run_bursts(Inspector& insp, const std::vector<Delivery>& plan,
                    std::size_t burst) {
  CollectingSink sink;
  std::vector<flow::Packet> pkts;
  for (std::size_t i = 0; i < plan.size();) {
    pkts.clear();
    for (; pkts.size() < burst && i < plan.size(); ++i)
      pkts.push_back({plan[i].key, plan[i].seq,
                      reinterpret_cast<const std::uint8_t*>(plan[i].bytes.data()),
                      static_cast<std::uint32_t>(plan[i].bytes.size())});
    insp.packet_batch(pkts.data(), pkts.size(),
                      [&](std::uint32_t id, std::uint64_t end) {
                        sink.matches.push_back(Match{id, end});
                      });
  }
  return sorted(std::move(sink.matches));
}

TEST(GatedFlowFuzz, GatedEqualsUngatedAcrossDeliveryShapes) {
  const auto inputs = compile_patterns(kGatePatterns);
  const nfa::Nfa n = nfa::build_nfa(inputs);
  const auto m = core::build_mfa(inputs);
  ASSERT_TRUE(m.has_value());
  ASSERT_TRUE(m->prefilter().gate_enabled()) << m->prefilter().status();

  std::uint64_t total_skips = 0, total_passes = 0;
  for (std::uint64_t round = 0; round < 12; ++round) {
    util::Rng rng(8800 + round);
    MatchVec expected;
    std::vector<Delivery> big, small, shuffled;
    const std::size_t nflows = 1 + rng.below(3);
    for (std::uint32_t f = 0; f < nflows; ++f) {
      const flow::FlowKey key{f + 1, 7, 1000, 443, 6};
      const std::string content = make_gate_content(rng);
      Scanner ref(n);
      for (const Match& mm : ref.scan(content)) expected.push_back(mm);
      // Large in-order segments: the gate fires. Small segments: below the
      // gate floor, so this delivery is the in-process ungated reference.
      // Shuffled: reorder + retransmission through the reassembly buffer.
      const auto a = plan_flow(key, content, 120, 300, false, rng);
      const auto b = plan_flow(key, content, 8, 48, false, rng);
      const auto c = plan_flow(key, content, 60, 200, true, rng);
      big.insert(big.end(), a.begin(), a.end());
      small.insert(small.end(), b.begin(), b.end());
      shuffled.insert(shuffled.end(), c.begin(), c.end());
    }
    const MatchVec want = sorted(std::move(expected));

    flow::TieredFlowInspector<core::Mfa> gated{*m};
    flow::TieredFlowInspector<core::Mfa> ungated{*m};
    flow::TieredFlowInspector<core::Mfa> reordered{*m};
    flow::TieredFlowInspector<core::Mfa> batched{*m};
    flow::TieredFlowInspector<nfa::Nfa> plain_nfa{n};
    EXPECT_EQ(run_packets(gated, big), want) << "round " << round;
    EXPECT_EQ(run_packets(ungated, small), want) << "round " << round;
    EXPECT_EQ(run_packets(reordered, shuffled), want) << "round " << round;
    EXPECT_EQ(run_bursts(batched, big, 64), want) << "round " << round;
    EXPECT_EQ(run_packets(plain_nfa, big), want) << "round " << round;
    EXPECT_EQ(ungated.prefilter_skip_count(), 0u);  // floor keeps it dark
    total_skips += gated.prefilter_skip_count() + batched.prefilter_skip_count();
    total_passes += gated.prefilter_pass_count();
  }
  // The fuzz is vacuous if the gate never armed in anger.
  EXPECT_GT(total_skips, 0u);
  EXPECT_GT(total_passes, 0u);
}

TEST(GatedFlowFuzz, IcaseCorpusStaysByteIdentical) {
  regex::ParseOptions popts;
  popts.icase = true;
  std::vector<nfa::PatternInput> inputs;
  std::uint32_t id = 1;
  for (const auto& src : kGatePatterns)
    inputs.push_back(nfa::PatternInput{regex::parse_or_die(src, popts), id++});
  const nfa::Nfa n = nfa::build_nfa(inputs);
  core::BuildOptions bopts;
  bopts.parse = popts;
  const auto m = core::build_mfa(inputs, bopts);
  ASSERT_TRUE(m.has_value());

  for (std::uint64_t round = 0; round < 8; ++round) {
    util::Rng rng(6600 + round);
    std::string content = make_gate_content(rng);
    // Randomize the case of planted literal bytes (filler has no letters
    // with case significance in the literal set).
    for (auto& c : content)
      if (c >= 'a' && c <= 'z' && rng.chance(0.5)) c = static_cast<char>(c - 32);
    Scanner ref(n);
    const MatchVec want = sorted(ref.scan(content));

    const flow::FlowKey key{1, 7, 1000, 443, 6};
    const auto big = plan_flow(key, content, 120, 300, false, rng);
    const auto small = plan_flow(key, content, 8, 48, false, rng);
    flow::TieredFlowInspector<core::Mfa> gated{*m};
    flow::TieredFlowInspector<core::Mfa> ungated{*m};
    EXPECT_EQ(run_packets(gated, big), want) << "round " << round;
    EXPECT_EQ(run_packets(ungated, small), want) << "round " << round;
  }
}

TEST(GatedFlow, AttributedMatchesAgreeAcrossGenerations) {
  // (ids, offsets, generations) must agree between gated (large-segment) and
  // ungated (small-segment) delivery, including across a kDrainOld hot swap
  // where pre-swap flows finish on generation 0 and post-swap flows carry
  // generation 2.
  const auto inputs = compile_patterns(kGatePatterns);
  const auto m1 = core::build_mfa(inputs);
  const auto m2 = core::build_mfa(inputs);
  ASSERT_TRUE(m1.has_value() && m2.has_value());

  util::Rng rng(345);
  const flow::FlowKey pre{1, 7, 1000, 443, 6};
  const flow::FlowKey post{2, 7, 1000, 443, 6};
  const std::string content_a = make_gate_content(rng);
  const std::string content_b = make_gate_content(rng);

  using Attributed =
      std::tuple<std::uint32_t, std::uint64_t, std::uint32_t, std::uint64_t>;
  // Segmentation deliberately differs between the two runs; only the
  // reassembled byte stream (and therefore the attribution) is shared.
  const auto run = [&](std::size_t min_seg, std::size_t max_seg) {
    flow::TieredFlowInspector<core::Mfa> insp{*m1};
    std::vector<Attributed> out;
    const auto deliver = [&](const std::vector<Delivery>& plan) {
      std::vector<flow::Packet> pkts;
      for (const auto& d : plan)
        pkts.push_back({d.key, d.seq,
                        reinterpret_cast<const std::uint8_t*>(d.bytes.data()),
                        static_cast<std::uint32_t>(d.bytes.size())});
      insp.packet_batch_attributed(
          pkts.data(), pkts.size(),
          [&](const flow::FlowKey& k, std::uint64_t gen, std::uint32_t mid,
              std::uint64_t end) { out.emplace_back(k.src_ip, gen, mid, end); },
          [](const flow::Packet&) {});
    };
    util::Rng rng_a(12), rng_b(13);
    deliver(plan_flow(pre, content_a, min_seg, max_seg, false, rng_a));
    insp.adopt_engine(*m2, 2, flow::SwapPolicy::kDrainOld);
    deliver(plan_flow(post, content_b, min_seg, max_seg, false, rng_b));
    std::sort(out.begin(), out.end());
    return out;
  };

  const auto gated = run(120, 300);
  const auto ungated = run(8, 48);
  EXPECT_EQ(gated, ungated);
  // The swap must be visible in the attribution: both generations present.
  const auto has_gen = [&](std::uint64_t g) {
    return std::any_of(gated.begin(), gated.end(),
                       [&](const Attributed& a) { return std::get<1>(a) == g; });
  };
  EXPECT_TRUE(has_gen(0));
  EXPECT_TRUE(has_gen(2));
}

TEST(GatedFlow, CountersTrackPassAndSkip) {
  const auto m = build_gated_mfa();
  ASSERT_TRUE(m.has_value());
  util::Rng rng(55);
  flow::TieredFlowInspector<core::Mfa> insp{*m};
  CountingSink sink;
  const flow::FlowKey key{9, 9, 9, 9, 6};
  std::uint64_t seq = 0;
  const auto send = [&](const std::string& bytes) {
    insp.packet(flow::Packet{key, seq,
                             reinterpret_cast<const std::uint8_t*>(bytes.data()),
                             static_cast<std::uint32_t>(bytes.size())},
                sink);
    seq += bytes.size();
  };
  send(filler(rng, 200));  // clean + large: skip
  EXPECT_EQ(insp.prefilter_skip_count(), 1u);
  EXPECT_EQ(insp.prefilter_pass_count(), 0u);
  std::string dirty = filler(rng, 200);
  dirty.replace(90, 4, "wxyz");
  send(dirty);  // literal present: pass
  EXPECT_EQ(insp.prefilter_pass_count(), 1u);
  send(filler(rng, 16));  // below the floor: neither counter moves
  EXPECT_EQ(insp.prefilter_skip_count(), 1u);
  EXPECT_EQ(insp.prefilter_pass_count(), 1u);
}

}  // namespace
}  // namespace mfa
