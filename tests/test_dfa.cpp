#include "dfa/dfa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dfa_reference.h"
#include "engine_test_util.h"
#include "patterns/builtin.h"
#include "regex/sample.h"
#include "rules/rules.h"
#include "rules/ruleset_gen.h"
#include "split/splitter.h"
#include "util/binio.h"
#include "util/rng.h"

namespace mfa::dfa {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::sorted;

Dfa build(const std::vector<std::string>& sources, BuildOptions opts = {}) {
  const nfa::Nfa n = nfa::build_nfa(compile_patterns(sources));
  auto d = build_dfa(n, opts);
  EXPECT_TRUE(d.has_value());
  return *std::move(d);
}

MatchVec scan(const std::vector<std::string>& sources, const std::string& input) {
  const Dfa d = build(sources);
  Scanner s(d);
  return sorted(s.scan(input));
}

TEST(Dfa, MatchesEqualNfaOnBasics) {
  const std::vector<std::string> pats = {"abc", ".*ab.*cd", "x[0-9]+y", "^head"};
  for (const std::string input :
       {"abc", "ab cd abc cd", "x123y x9y", "headless", "no match here", ""}) {
    EXPECT_EQ(scan(pats, input), sorted(mfa::testing::reference_matches(pats, input)))
        << input;
  }
}

TEST(Dfa, AcceptingStatesRemappedFirst) {
  const Dfa d = build({"ab", "cd"});
  EXPECT_GT(d.accepting_state_count(), 0u);
  for (std::uint32_t s = 0; s < d.state_count(); ++s) {
    const auto [first, last] = s < d.accepting_state_count()
                                   ? d.accepts(s)
                                   : std::pair<const std::uint32_t*, const std::uint32_t*>{
                                         nullptr, nullptr};
    if (s < d.accepting_state_count()) {
      EXPECT_NE(first, last);
    }
  }
}

TEST(Dfa, ByteClassesPartitionAlphabet) {
  const nfa::Nfa n = nfa::build_nfa(compile_patterns({"[a-f]x|[0-9]y"}));
  const auto [cls, count] = compute_byte_classes(n);
  EXPECT_GT(count, 1u);
  EXPECT_LE(count, 256u);
  for (unsigned b = 0; b < 256; ++b) EXPECT_LT(cls[b], count);
  // All of a-f must share a class; digits share another; they differ.
  for (char c = 'b'; c <= 'f'; ++c) EXPECT_EQ(cls[static_cast<unsigned char>(c)], cls['a']);
  for (char c = '1'; c <= '9'; ++c) EXPECT_EQ(cls[static_cast<unsigned char>(c)], cls['0']);
  EXPECT_NE(cls['a'], cls['0']);
  EXPECT_NE(cls['x'], cls['y']);
}

TEST(Dfa, StateCapFailsConstruction) {
  // Multiple dot-star patterns explode; a tiny cap must trip.
  const std::vector<std::string> pats = {".*aaa.*bbb.*ccc", ".*ddd.*eee.*fff",
                                         ".*ggg.*hhh.*iii"};
  const nfa::Nfa n = nfa::build_nfa(compile_patterns(pats));
  BuildOptions opts;
  opts.max_states = 50;
  BuildStats stats;
  EXPECT_FALSE(build_dfa(n, opts, &stats).has_value());
  EXPECT_TRUE(stats.failed);
  // The cap is enforced at insertion: construction stops the moment the
  // 51st subset would be interned, never discovering states past the cap.
  EXPECT_EQ(stats.states, 50u);
}

TEST(Dfa, StateCapIsExact) {
  // Regression for the off-by-one where the cap was checked only after
  // inserting: an automaton with exactly N reachable subsets must build
  // with max_states == N and fail with max_states == N - 1.
  const std::vector<std::string> pats = {".*abc.*def"};
  const nfa::Nfa n = nfa::build_nfa(compile_patterns(pats));
  const auto unbounded = build_dfa(n);
  ASSERT_TRUE(unbounded.has_value());
  const std::uint32_t exact = unbounded->state_count();
  ASSERT_GT(exact, 1u);

  BuildOptions at_cap;
  at_cap.max_states = exact;
  BuildStats at_cap_stats;
  const auto ok = build_dfa(n, at_cap, &at_cap_stats);
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(at_cap_stats.failed);
  EXPECT_EQ(ok->state_count(), exact);

  BuildOptions below_cap;
  below_cap.max_states = exact - 1;
  BuildStats below_stats;
  EXPECT_FALSE(build_dfa(n, below_cap, &below_stats).has_value());
  EXPECT_TRUE(below_stats.failed);
  EXPECT_EQ(below_stats.states, exact - 1);
}

TEST(Dfa, HeadlessSerializeRoundTrip) {
  // A dense automaton saved without its table (the MFAC v3 delta layout)
  // must load with allow_empty_table and accept a restored table.
  const Dfa d = build({"abc", ".*xy"});
  std::vector<std::uint32_t> table;  // raw ids, the restore_table() form
  for (std::uint32_t s = 0; s < d.state_count(); ++s)
    for (std::uint16_t c = 0; c < d.column_count(); ++c) table.push_back(d.target(s, c));

  Dfa headless = d;
  headless.drop_table();
  EXPECT_FALSE(headless.has_table());
  util::FilePtr f(std::tmpfile());
  ASSERT_NE(f, nullptr);
  {
    util::BinWriter w(f.get());
    headless.serialize(w);
    ASSERT_TRUE(w.ok());
  }

  std::rewind(f.get());
  Dfa strict;
  util::BinReader strict_r(f.get());
  EXPECT_FALSE(Dfa::deserialize(strict_r, strict));  // default rejects headless

  std::rewind(f.get());
  Dfa loaded;
  util::BinReader r(f.get());
  ASSERT_TRUE(Dfa::deserialize(r, loaded, /*allow_empty_table=*/true));
  EXPECT_FALSE(loaded.has_table());
  EXPECT_EQ(loaded.state_count(), d.state_count());

  // Wrong-size or out-of-range tables are rejected; the real one installs.
  EXPECT_FALSE(loaded.restore_table(std::vector<std::uint32_t>(3, 0)));
  std::vector<std::uint32_t> bad = table;
  bad[0] = d.state_count();
  EXPECT_FALSE(loaded.restore_table(std::move(bad)));
  ASSERT_TRUE(loaded.restore_table(table));
  EXPECT_TRUE(std::equal(table.begin(), table.end(), loaded.table_data(),
                         [&](std::uint32_t raw, std::uint32_t offset) {
                           return loaded.row_offset(raw) == offset;
                         }));
  Scanner a(d);
  Scanner b(loaded);
  EXPECT_EQ(sorted(a.scan(std::string("zzabcxyzz"))),
            sorted(b.scan(std::string("zzabcxyzz"))));
}

TEST(Dfa, MinimizationPreservesMatchesAndShrinks) {
  const std::vector<std::string> pats = {"ab(c|d)", "abe?f"};
  const nfa::Nfa n = nfa::build_nfa(compile_patterns(pats));
  BuildStats plain_stats;
  const auto plain = build_dfa(n, {}, &plain_stats);
  BuildOptions min_opts;
  min_opts.minimize = true;
  BuildStats min_stats;
  const auto minimized = build_dfa(n, min_opts, &min_stats);
  ASSERT_TRUE(plain && minimized);
  EXPECT_LE(minimized->state_count(), plain->state_count());
  EXPECT_EQ(min_stats.minimized, minimized->state_count());

  util::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    std::string input;
    for (int j = 0; j < 40; ++j)
      input += static_cast<char>("abcdef"[rng.below(6)]);
    Scanner a(*plain);
    Scanner b(*minimized);
    EXPECT_EQ(sorted(a.scan(input)), sorted(b.scan(input)));
  }
}

TEST(Dfa, MemoryImageAccounting) {
  const Dfa d = build({"abc"});
  const std::size_t full = d.memory_image_bytes(true);
  const std::size_t compressed = d.memory_image_bytes(false);
  EXPECT_GE(full, static_cast<std::size_t>(d.state_count()) * 256 * 4);
  EXPECT_LT(compressed, full);
  EXPECT_GE(compressed, static_cast<std::size_t>(d.state_count()) * d.column_count() * 4);
}

TEST(Dfa, StatefulFeedAcrossChunks) {
  const Dfa d = build({".*begin.*end"});
  Scanner s(d);
  CollectingSink sink;
  const std::string part1 = "xxbeg";
  const std::string part2 = "inxxe";
  const std::string part3 = "nd";
  s.feed(reinterpret_cast<const std::uint8_t*>(part1.data()), part1.size(), 0, sink);
  s.feed(reinterpret_cast<const std::uint8_t*>(part2.data()), part2.size(), part1.size(),
         sink);
  s.feed(reinterpret_cast<const std::uint8_t*>(part3.data()), part3.size(),
         part1.size() + part2.size(), sink);
  ASSERT_EQ(sink.matches.size(), 1u);
  EXPECT_EQ(sink.matches[0].end, 11u);
}

TEST(Dfa, ContextIsFourBytes) {
  EXPECT_EQ(build({"abc"}).context_bytes(), 4u);
}

TEST(Dfa, DotStarStateExplosionIsMultiplicative) {
  // Adding a second dot-star pattern should grow states far more than the
  // sum of pattern sizes (paper Sec. IV-A).
  const nfa::Nfa one = nfa::build_nfa(compile_patterns({".*abcd.*efgh"}));
  const nfa::Nfa two =
      nfa::build_nfa(compile_patterns({".*abcd.*efgh", ".*ijkl.*mnop"}));
  const auto d1 = build_dfa(one);
  const auto d2 = build_dfa(two);
  ASSERT_TRUE(d1 && d2);
  EXPECT_GT(d2->state_count(), d1->state_count() * 3 / 2);
}

TEST(Dfa, AnchoredPatternsDie) {
  const Dfa d = build({"^abc"});
  Scanner s(d);
  EXPECT_TRUE(s.scan(std::string("xxabc")).empty());
  EXPECT_EQ(s.scan(std::string("abc")).size(), 1u);
}

TEST(Dfa, RandomRegexDfaEqualsNfaProperty) {
  // Randomized cross-check: sample strings from each pattern's language and
  // embed them in noise; NFA and DFA must agree exactly.
  util::Rng rng(123);
  const std::vector<std::string> pats = {"a(b|c)+d", ".*foo[0-9]{1,3}bar", "x.?y"};
  const nfa::Nfa n = nfa::build_nfa(compile_patterns(pats));
  const auto d = build_dfa(n);
  ASSERT_TRUE(d.has_value());
  for (int i = 0; i < 100; ++i) {
    std::string input = rng.lower_string(rng.below(20));
    const auto& pick = pats[rng.below(pats.size())];
    input += regex::sample_match(regex::parse_or_die(pick), rng);
    input += rng.lower_string(rng.below(20));
    Scanner ns(n);
    Scanner ds(*d);
    EXPECT_EQ(sorted(ns.scan(input)), sorted(ds.scan(input))) << input;
  }
}


// --- Differential tests: build_dfa() against the textbook reference ---

/// build_dfa() must equal reference_dfa() field by field (so its serialised
/// image is fixed too), or fail at the same count.
void expect_reference(const nfa::Nfa& n, std::uint32_t max_states, const std::string& label) {
  SCOPED_TRACE(label);
  const mfa::testing::ReferenceDfa ref = mfa::testing::reference_dfa(n, max_states);
  BuildOptions opts;
  opts.max_states = max_states;
  BuildStats stats;
  const auto d = build_dfa(n, opts, &stats);
  ASSERT_EQ(d.has_value(), !ref.failed);
  EXPECT_EQ(stats.failed, ref.failed);
  EXPECT_EQ(stats.states, ref.discovered);
  if (ref.failed) return;
  const auto [cls, ncls] = compute_byte_classes(n);
  ASSERT_EQ(d->column_count(), ncls);
  EXPECT_TRUE(std::equal(cls.begin(), cls.end(), d->byte_columns()));
  ASSERT_EQ(d->state_count(), ref.discovered);
  EXPECT_EQ(d->start(), ref.start);
  EXPECT_EQ(d->max_match_id(), n.max_match_id());
  ASSERT_EQ(d->accepting_state_count(), ref.accepting);
  // Entry by entry through the raw accessors: target() per class, next()
  // per byte, and the premultiplied table itself.
  std::uint32_t table_mismatches = 0;
  for (std::uint32_t s = 0; s < ref.discovered; ++s) {
    const std::size_t row = static_cast<std::size_t>(s) * ncls;
    for (std::uint16_t c = 0; c < ncls; ++c) {
      table_mismatches += d->target(s, c) != ref.table[row + c];
      table_mismatches += d->table_data()[row + c] != d->row_offset(ref.table[row + c]);
    }
    for (unsigned b = 0; b < 256; ++b)
      table_mismatches +=
          d->next(s, static_cast<unsigned char>(b)) != ref.table[row + cls[b]];
  }
  EXPECT_EQ(table_mismatches, 0u);
  std::uint32_t accept_mismatches = 0;
  for (std::uint32_t s = 0; s < ref.accepting; ++s) {
    const auto [first, last] = d->accepts(s);
    if (!std::equal(first, last, ref.accepts[s].begin(), ref.accepts[s].end()))
      ++accept_mismatches;
  }
  EXPECT_EQ(accept_mismatches, 0u);
}

/// The NFA build_mfa() subset-constructs: the split pieces of `patterns`.
nfa::Nfa piece_nfa(const std::vector<nfa::PatternInput>& patterns) {
  const split::SplitResult sr = split::split_patterns(patterns);
  std::vector<nfa::PatternInput> pieces;
  for (const auto& piece : sr.pieces) pieces.push_back({piece.regex, piece.engine_id});
  return nfa::build_nfa(pieces);
}

TEST(DfaDifferential, PaperSetPieces) {
  for (const auto& set : patterns::builtin_sets())
    expect_reference(piece_nfa(set.patterns), 1u << 20, set.name + " pieces");
}

TEST(DfaDifferential, PaperSetCappedUnions) {
  // Every full union outgrows 2,000 states and must stop at the same
  // discovered count as the reference; C8's (4,513 states) also builds whole.
  for (const auto& set : patterns::builtin_sets())
    expect_reference(nfa::build_nfa(set.patterns), 2000, set.name + " union");
  expect_reference(nfa::build_nfa(patterns::make_c8().patterns), 1u << 20, "C8 union");
}

TEST(DfaDifferential, GeneratedRulesetPieces) {
  for (const std::size_t rules : {300u, 1000u}) {
    const auto loaded = rules::parse_rules(rules::generate_ruleset({rules, 42}));
    ASSERT_TRUE(loaded.ok());
    expect_reference(piece_nfa(rules::to_pattern_inputs(loaded.rules)), 1u << 20,
                     std::to_string(rules) + " rules");
  }
}

TEST(DfaDifferential, FullyAnchoredSetReachesTheDeadSubset) {
  // No sticky state at all: every subset is keyed by its residual, and the
  // empty subset is a reachable sink.
  const nfa::Nfa n =
      nfa::build_nfa(compile_patterns({"^abc", "^a[0-9]+z", "^x.y", "^(ab|cd)e"}));
  expect_reference(n, 1u << 20, "anchored");
  const auto d = build_dfa(n);
  ASSERT_TRUE(d.has_value());
  // The dead subset loops to itself on every class.
  bool has_sink = false;
  for (std::uint32_t s = 0; s < d->state_count() && !has_sink; ++s) {
    bool sink = true;
    for (std::uint16_t c = 0; c < d->column_count(); ++c)
      sink &= d->target(s, c) == s;
    has_sink = sink;
  }
  EXPECT_TRUE(has_sink);
}

TEST(DfaDifferential, SeveralInternalDotStarLoops) {
  // Each internal `.*` is its own sticky state, so subsets carry several
  // distinct sticky sets, entered in different orders.
  expect_reference(
      nfa::build_nfa(compile_patterns(
          {".*ab.*cd.*ef", ".*gh.*ij", "^k.*l.*m", "xy.*z", ".*cd.*ab"})),
      1u << 20, "internal loops");
}

TEST(DfaDifferential, LoopOnAllClassesButOneIsNotSticky) {
  // [^q]* loops on every class except q's; treating it as sticky would
  // keep it in successors on q.
  expect_reference(
      nfa::build_nfa(compile_patterns({".*a[^q]*b", "c[^q]*q", "^q.*r", "[^q]*s"})),
      1u << 20, "almost sticky");
}

TEST(DfaDifferential, ExactCapBoundary) {
  // The boundary Dfa.StateCapIsExact pins: the exact state count builds,
  // one less fails with exactly that many states discovered.
  const nfa::Nfa n = nfa::build_nfa(compile_patterns({".*abc.*def"}));
  const auto unbounded = build_dfa(n);
  ASSERT_TRUE(unbounded.has_value());
  const std::uint32_t exact = unbounded->state_count();
  expect_reference(n, exact, "at cap");
  expect_reference(n, exact - 1, "below cap");
  expect_reference(n, 0, "zero cap");
}

TEST(DfaDifferential, RandomPatternSets) {
  // Small random sets over a four-letter alphabet mixing anchors, `.*`,
  // almost-dot-stars and classes.
  const std::vector<std::string> tokens = {"a",  "b",    "cd",   ".*", "[^a]*", "[ab]",
                                           "d+", "(a|c)", "b?", ".",  "[^d]"};
  util::Rng rng(2016);
  for (int round = 0; round < 40; ++round) {
    std::vector<std::string> pats;
    const std::size_t count = 1 + rng.below(5);
    for (std::size_t p = 0; p < count; ++p) {
      std::string pat = rng.below(4) == 0 ? "^" : "";
      const std::size_t len = 1 + rng.below(5);
      for (std::size_t t = 0; t < len; ++t) pat += tokens[rng.below(tokens.size())];
      pats.push_back(pat);
    }
    std::string label = "random:";
    for (const auto& pat : pats) label += " " + pat;
    expect_reference(nfa::build_nfa(compile_patterns(pats)), 1u << 20, label);
  }
}

}  // namespace
}  // namespace mfa::dfa
