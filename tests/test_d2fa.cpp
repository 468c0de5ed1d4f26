#include "dfa/d2fa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "engine_test_util.h"
#include "regex/sample.h"
#include "rules/rules.h"
#include "rules/ruleset_gen.h"
#include "util/rng.h"

namespace mfa::dfa {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::sorted;

const std::vector<std::string> kSets[] = {
    {"abc", "cde"},
    {".*abcd.*efgh", ".*ijkl.*mnop"},
    {"x[0-9]{1,3}y", "a(b|c)+d", "^head"},
    {".*foo[0-9]{1,3}bar", "x.?y", "GET /[a-z]+", "\\x00\\x01\\x02"},
};

Dfa build_dense(const std::vector<std::string>& sources) {
  const nfa::Nfa n = nfa::build_nfa(compile_patterns(sources));
  auto d = build_dfa(n);
  EXPECT_TRUE(d.has_value());
  return *std::move(d);
}

TEST(D2fa, NextParityOverAllStatesAndBytes) {
  for (const auto& set : kSets) {
    const Dfa dense = build_dense(set);
    const D2fa delta(dense);
    ASSERT_EQ(delta.state_count(), dense.state_count());
    ASSERT_EQ(delta.start(), dense.start());
    ASSERT_EQ(delta.accepting_state_count(), dense.accepting_state_count());
    for (std::uint32_t s = 0; s < dense.state_count(); ++s) {
      for (unsigned b = 0; b < 256; ++b) {
        ASSERT_EQ(delta.next(s, static_cast<unsigned char>(b)),
                  dense.next(s, static_cast<unsigned char>(b)))
            << "state " << s << " byte " << b;
      }
    }
  }
}

TEST(D2fa, TagInvariantsHoldAtEveryRootDepth) {
  // walk() trusts three facts about tagged values: untag() inverts
  // tag_state(), a value is below kTagAccept exactly for a non-accepting
  // root (the one-compare hot path), and every step, whether from a root,
  // along a chain or out of an accepting state, lands where the dense table
  // does. Checked on the generated 1k-rule set's piece DFA.
  const auto loaded = rules::parse_rules(rules::generate_ruleset({1000, 42}));
  ASSERT_TRUE(loaded.ok());
  const auto m = core::build_mfa(rules::to_pattern_inputs(loaded.rules));
  ASSERT_TRUE(m.has_value());
  const Dfa& dense = m->character_dfa();
  const std::uint32_t n = dense.state_count();
  // BFS depth from the start state: states above root_depth are roots.
  std::vector<std::uint32_t> depth(n, UINT32_MAX);
  std::vector<std::uint32_t> queue = {dense.start()};
  depth[dense.start()] = 0;
  for (std::size_t q = 0; q < queue.size(); ++q)
    for (std::uint16_t c = 0; c < dense.column_count(); ++c) {
      const std::uint32_t t = dense.target(queue[q], c);
      if (depth[t] != UINT32_MAX) continue;
      depth[t] = depth[queue[q]] + 1;
      queue.push_back(t);
    }

  // Root depths 0, 2 and 3, then max_chain 0 (every state a root), the
  // only form of this set with accepting roots.
  std::vector<D2faOptions> configs;
  for (const std::uint32_t root_depth : {0u, 2u, 3u}) {
    configs.emplace_back();
    configs.back().root_depth = root_depth;
  }
  configs.emplace_back();
  configs.back().max_chain = 0;
  std::uint32_t accepting_roots = 0;
  std::uint32_t accepting_chains = 0;
  for (const D2faOptions& opts : configs) {
    SCOPED_TRACE("root_depth " + std::to_string(opts.root_depth) + " max_chain " +
                 std::to_string(opts.max_chain));
    const D2fa delta(dense, opts);
    std::uint32_t roots = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      const std::uint32_t v = delta.tag_state(s);
      const bool root = delta.is_root(s);
      const bool accepting = s < delta.accepting_state_count();
      ASSERT_EQ(delta.untag(v), s) << "state " << s;
      ASSERT_EQ(v < D2fa::kTagAccept, root && !accepting) << "state " << s;
      ASSERT_EQ((v & D2fa::kTagAccept) != 0, accepting) << "state " << s;
      ASSERT_EQ((v & D2fa::kTagNonRoot) == 0, root) << "state " << s;
      if (depth[s] < opts.root_depth) {
        ASSERT_TRUE(root) << "state " << s;
      }
      roots += root;
      accepting_roots += root && accepting;
      accepting_chains += !root && accepting;
      for (unsigned b = 0; b < 256; ++b)
        ASSERT_EQ(delta.next(s, static_cast<unsigned char>(b)),
                  dense.next(s, static_cast<unsigned char>(b)))
            << "state " << s << " byte " << b;
    }
    EXPECT_EQ(roots, delta.root_count());
    if (opts.max_chain > 0) {
      EXPECT_LT(roots, n);  // chain steps happen
    }
  }
  // Steps out of accepting roots and accepting chain states both happen.
  EXPECT_GT(accepting_roots, 0u);
  EXPECT_GT(accepting_chains, 0u);
}

TEST(D2fa, ChainLengthIsBounded) {
  for (const std::uint32_t bound : {0u, 1u, 2u, 4u}) {
    D2faOptions opts;
    opts.max_chain = bound;
    D2faStats stats;
    const Dfa dense = build_dense({".*abcd.*efgh", ".*ijkl.*mnop", "x[0-9]+y"});
    const D2fa delta(dense, opts, &stats);
    EXPECT_LE(stats.max_chain, bound);
    EXPECT_EQ(delta.max_chain(), stats.max_chain);
    if (bound == 0) {
      // No chains allowed: every state must keep its dense row.
      EXPECT_EQ(stats.roots, dense.state_count());
      EXPECT_EQ(stats.exception_entries, 0u);
    }
    // Parity holds at every bound.
    for (std::uint32_t s = 0; s < dense.state_count(); ++s)
      for (unsigned b = 0; b < 256; b += 7)
        ASSERT_EQ(delta.next(s, static_cast<unsigned char>(b)),
                  dense.next(s, static_cast<unsigned char>(b)));
  }
}

TEST(D2fa, CompressesRedundantAutomata) {
  // Many similar literal patterns produce highly redundant rows; the delta
  // layout must come in well under the dense class-compressed table.
  std::vector<std::string> pats;
  for (int i = 0; i < 40; ++i)
    pats.push_back(".*pattern" + std::to_string(i) + "suffix");
  const Dfa dense = build_dense(pats);
  D2faStats stats;
  const D2fa delta(dense, {}, &stats);
  EXPECT_LT(delta.compression_vs_dense(dense), 0.5);
  EXPECT_LT(stats.roots, dense.state_count() / 2);
}

TEST(D2fa, ExpandTableRoundTrips) {
  for (const auto& set : kSets) {
    const Dfa dense = build_dense(set);
    const D2fa delta(dense);
    const std::vector<std::uint32_t> expanded = delta.expand_table();
    const std::size_t words =
        static_cast<std::size_t>(dense.state_count()) * dense.column_count();
    ASSERT_EQ(expanded.size(), words);
    std::size_t mismatches = 0;
    for (std::uint32_t s = 0; s < dense.state_count(); ++s)
      for (std::uint16_t c = 0; c < dense.column_count(); ++c)
        mismatches += expanded[static_cast<std::size_t>(s) * dense.column_count() + c] !=
                      dense.target(s, c);
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(D2fa, FeedParityFuzzWithChunkSeams) {
  // Carried contexts across randomized chunk seams must match the dense
  // engine byte for byte.
  const std::vector<std::string> pats = {".*abcd.*efgh", "x[0-9]{1,3}y",
                                         "a(b|c)+d"};
  const Dfa dense = build_dense(pats);
  const D2fa delta(dense);
  util::Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    std::string input = rng.lower_string(rng.below(40));
    const auto& pick = pats[rng.below(pats.size())];
    input += regex::sample_match(regex::parse_or_die(pick), rng);
    input += rng.lower_string(rng.below(40));

    Dfa::Context dctx = dense.make_context();
    D2fa::Context cctx = delta.make_context();
    CollectingSink dsink;
    CollectingSink csink;
    std::size_t i = 0;
    while (i < input.size()) {
      const std::size_t len = std::min<std::size_t>(
          1 + rng.below(9), input.size() - i);
      const auto* p = reinterpret_cast<const std::uint8_t*>(input.data()) + i;
      dense.feed(dctx, p, len, i, dsink);
      delta.feed(cctx, p, len, i, csink);
      ASSERT_EQ(cctx.state, dctx.state) << "round " << round << " offset " << i;
      i += len;
    }
    EXPECT_EQ(sorted(std::move(csink.matches)), sorted(std::move(dsink.matches)));
  }
}

TEST(D2fa, SerializeRoundTrip) {
  for (const auto& set : kSets) {
    const Dfa dense = build_dense(set);
    const D2fa delta(dense);
    util::FilePtr f(std::tmpfile());
    ASSERT_NE(f, nullptr);
    {
      util::BinWriter w(f.get());
      delta.serialize(w);
      ASSERT_TRUE(w.ok());
    }
    std::rewind(f.get());
    D2fa loaded;
    util::BinReader r(f.get());
    ASSERT_TRUE(D2fa::deserialize(r, loaded));
    EXPECT_EQ(loaded.state_count(), delta.state_count());
    EXPECT_EQ(loaded.max_chain(), delta.max_chain());
    EXPECT_EQ(loaded.exception_entries(), delta.exception_entries());
    for (std::uint32_t s = 0; s < dense.state_count(); ++s)
      for (unsigned b = 0; b < 256; b += 5)
        ASSERT_EQ(loaded.next(s, static_cast<unsigned char>(b)),
                  dense.next(s, static_cast<unsigned char>(b)));
  }
}

TEST(D2fa, ByteStompCorpusNeverCrashesLoader) {
  // Flip bytes all over a valid image: deserialize must either reject the
  // file or produce a structurally valid automaton — never crash.
  const Dfa dense = build_dense({".*abcd.*efgh", "x[0-9]{1,3}y"});
  const D2fa delta(dense);
  std::string image;
  {
    util::FilePtr f(std::tmpfile());
    ASSERT_NE(f, nullptr);
    util::BinWriter w(f.get());
    delta.serialize(w);
    ASSERT_TRUE(w.ok());
    std::rewind(f.get());
    std::fseek(f.get(), 0, SEEK_END);
    const long size = std::ftell(f.get());
    std::rewind(f.get());
    image.resize(static_cast<std::size_t>(size));
    ASSERT_EQ(std::fread(image.data(), 1, image.size(), f.get()), image.size());
  }
  util::Rng rng(1234);
  for (int round = 0; round < 300; ++round) {
    std::string stomped = image;
    const std::size_t pos = rng.below(stomped.size());
    stomped[pos] = static_cast<char>(rng.below(256));
    util::FilePtr f(std::tmpfile());
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(stomped.data(), 1, stomped.size(), f.get()),
              stomped.size());
    std::rewind(f.get());
    D2fa loaded;
    util::BinReader r(f.get());
    if (D2fa::deserialize(r, loaded)) {
      // Accepted images must scan safely.
      Scanner s(loaded);
      (void)s.scan(std::string("abcdzzefgh x12y"));
    }
  }
}

TEST(D2fa, ScannerMatchesReference) {
  const std::vector<std::string> pats = {".*abcd.*efgh", "x[0-9]{1,3}y",
                                         "GET /[a-z]+"};
  const Dfa dense = build_dense(pats);
  const D2fa delta(dense);
  for (const std::string input :
       {"abcd----efgh", "x123y and x9y", "GET /index", "nothing here", ""}) {
    Scanner s(delta);
    EXPECT_EQ(sorted(s.scan(input)),
              sorted(mfa::testing::reference_matches(pats, input)))
        << input;
  }
}

}  // namespace
}  // namespace mfa::dfa
