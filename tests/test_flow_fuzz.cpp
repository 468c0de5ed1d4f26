// Randomized flow-delivery fuzzing against the reassembly-then-NFA oracle
// (flow_oracle.h): the flow inspector must present every engine with the
// same reassembled byte stream no matter how a flow is fragmented,
// reordered, or retransmitted — so its matches must be exactly the NFA's
// over each flow's stream, for every engine, table form, gate setting,
// delivery path and shard count. Plus regression coverage for the bounded
// reassembly buffer and the per-flow storage contract of the
// Engine/Context split.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dfa/dfa.h"
#include "engine_test_util.h"
#include "flow/tiered.h"
#include "flow_oracle.h"
#include "mfa/mfa.h"
#include "nfa/nfa.h"
#include "pipeline/pipeline.h"
#include "util/rng.h"

namespace mfa::flow {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::Delivery;
using mfa::testing::FlowMatch;
using mfa::testing::FlowMatches;
using mfa::testing::kFuzzSources;
using mfa::testing::oracle_of;
using mfa::testing::plan_flow;
using mfa::testing::run_plan;

/// Plans for 1-4 interleaved flows of `content(rng)`, cut into segments of
/// up to `max_seg` bytes, with a bounded-window shuffle across the merge.
template <typename ContentFn>
std::vector<Delivery> plan_round(util::Rng& rng, std::uint64_t mix_seed,
                                 std::size_t max_seg, ContentFn&& content) {
  std::vector<Delivery> plan;
  const std::size_t nflows = 1 + rng.below(4);
  for (std::uint32_t f = 0; f < nflows; ++f) {
    const FlowKey key{f + 1, 99, 1000, 80, 6};
    auto flow_plan = plan_flow(key, content(rng), rng, max_seg);
    plan.insert(plan.end(), flow_plan.begin(), flow_plan.end());
  }
  util::Rng mix(mix_seed);
  for (std::size_t i = 0; i + 1 < plan.size(); ++i)
    if (mix.chance(0.5)) std::swap(plan[i], plan[i + 1]);
  return plan;
}

TEST(FlowFuzz, EnginesAgreeUnderFragmentationReorderRetransmission) {
  const auto inputs = compile_patterns(kFuzzSources);
  const nfa::Nfa n = nfa::build_nfa(inputs);
  const auto d = dfa::build_dfa(n);
  ASSERT_TRUE(d.has_value());
  const auto m = core::build_mfa(inputs);
  ASSERT_TRUE(m.has_value());

  for (std::uint64_t round = 0; round < 25; ++round) {
    util::Rng rng(9000 + round);
    const auto plan = plan_round(rng, 777 + round, 9, mfa::testing::fuzz_content);
    const FlowMatches expected = oracle_of(plan).matches(n);
    TieredFlowInspector<nfa::Nfa> nfa_insp{n};
    TieredFlowInspector<dfa::Dfa> dfa_insp{*d};
    TieredFlowInspector<core::Mfa> mfa_insp{*m};
    EXPECT_EQ(run_plan(nfa_insp, plan), expected) << "round " << round;
    EXPECT_EQ(run_plan(dfa_insp, plan), expected) << "round " << round;
    EXPECT_EQ(run_plan(mfa_insp, plan), expected) << "round " << round;
  }
}

/// Gate-friendly flow content: runs of filler the literal prefilter proves
/// clean (no byte of it can start a kFuzzSources literal), with literals
/// planted between the runs.
std::string gated_content(util::Rng& rng) {
  static const char kFiller[] = "EFGJLMNOPQ";
  std::string s;
  for (int k = 2 + static_cast<int>(rng.below(6)); k > 0; --k) {
    for (std::size_t i = 1 + rng.below(400); i > 0; --i)
      s += kFiller[rng.below(sizeof kFiller - 1)];
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

// The oracle grid: dense and delta tables x gate on/off x packet and
// packet_batch through one inspector, and the sharded pipeline at 1-4
// shards, all on randomized reorder/retransmit/overlap plans whose
// segments straddle the gate's size floor. Halfway through each pipeline
// run a separately built engine of the same ruleset is swapped in under
// kDrainOld: flows already open stay on generation 0, later ones start on
// generation 1, and the matches must still be the oracle's.
TEST(FlowOracle, InspectorsMatchTheOracleAcrossTheGrid) {
  const auto inputs = compile_patterns(kFuzzSources);
  const nfa::Nfa n = nfa::build_nfa(inputs);
  std::uint64_t gate_skips = 0;
  std::uint64_t generation1_matches = 0;
  for (const bool delta : {false, true}) {
    core::BuildOptions opts;
    opts.delta = delta;
    const auto m = core::build_mfa(inputs, opts);
    ASSERT_TRUE(m.has_value());
    ASSERT_EQ(m->delta_mode(), delta);
    auto swapped = core::build_mfa(inputs, opts);
    ASSERT_TRUE(swapped.has_value());
    const auto next = std::make_shared<const core::Mfa>(std::move(*swapped));
    ASSERT_TRUE(m->prefilter().gate_enabled()) << m->prefilter().status();
    for (std::uint64_t round = 0; round < 12; ++round) {
      util::Rng rng(5100 + round);
      const auto plan = plan_round(rng, 5200 + round, 300, gated_content);
      const FlowMatches expected = oracle_of(plan).matches(n);
      const auto where = [&](const char* path) {
        return std::string(delta ? "delta " : "dense ") + path + " round " +
               std::to_string(round);
      };

      for (const bool gate : {true, false}) {
        for (const std::size_t burst : {std::size_t{0}, std::size_t{1} + rng.below(16)}) {
          TieredFlowInspector<core::Mfa> insp{*m};
          insp.set_prefilter(gate);
          EXPECT_EQ(run_plan(insp, plan, burst), expected)
              << where(gate ? "gated" : "ungated") << " burst " << burst;
          if (gate) {
            gate_skips += insp.prefilter_skip_count();
          } else {
            EXPECT_EQ(insp.prefilter_skip_count(), 0u);
          }
        }
      }

      for (std::size_t shards = 1; shards <= 4; ++shards) {
        pipeline::Options popt;
        popt.shards = shards;
        popt.batch_size = 1 + rng.below(32);
        popt.collect_flow_matches = true;
        popt.swap_policy = SwapPolicy::kDrainOld;
        pipeline::ShardedInspector<core::Mfa> pipe(*m, popt);
        pipe.start();
        const std::size_t half = plan.size() / 2;
        for (std::size_t i = 0; i < half; ++i) pipe.submit(plan[i].packet());
        pipe.swap_ruleset(next, 1);
        while (pipe.adopted_generation() < 1) std::this_thread::yield();
        for (std::size_t i = half; i < plan.size(); ++i) pipe.submit(plan[i].packet());
        pipe.finish();
        FlowMatches got;
        for (const pipeline::FlowMatch& fm : pipe.flow_matches())
          got.push_back(FlowMatch{fm.key, fm.match.id, fm.match.end});
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected) << where("sharded") << " shards " << shards;
        std::uint64_t by_generation = 0;
        for (const auto& [generation, count] : pipe.matches_by_generation()) {
          EXPECT_LE(generation, 1u) << where("sharded") << " shards " << shards;
          by_generation += count;
        }
        EXPECT_EQ(by_generation, pipe.totals().matches)
            << where("sharded") << " shards " << shards;
        EXPECT_EQ(by_generation, got.size()) << where("sharded") << " shards " << shards;
        const auto g1 = pipe.matches_by_generation().find(1);
        if (g1 != pipe.matches_by_generation().end()) generation1_matches += g1->second;
      }
    }
  }
  // The grid is vacuous for the gate if it never skipped a chunk, and for
  // the swap if no flow ever matched on the swapped-in generation.
  EXPECT_GT(gate_skips, 0u);
  EXPECT_GT(generation1_matches, 0u);
}

// --- bounded reassembly ---

TEST(FlowReassembly, PendingCapDropsOldestSegments) {
  const auto m = core::build_mfa(compile_patterns({".*needle"}));
  ASSERT_TRUE(m.has_value());
  TieredFlowInspector<core::Mfa> insp{*m, /*max_flows=*/0, /*max_pending_bytes=*/4};
  CountingSink sink;
  const FlowKey key{1, 2, 3, 4, 6};
  const auto ooo = [&](std::uint64_t seq, const std::string& bytes) {
    insp.packet(Packet{key, seq, reinterpret_cast<const std::uint8_t*>(bytes.data()),
                       static_cast<std::uint32_t>(bytes.size())},
                sink);
  };
  ooo(10, "AA");  // buffered, 2 bytes
  ooo(20, "BB");  // buffered, 4 bytes total = cap
  EXPECT_EQ(insp.reassembly_dropped_count(), 0u);
  ooo(30, "CC");  // cap exceeded: oldest-arrival (seq 10) dropped
  EXPECT_EQ(insp.reassembly_dropped_count(), 1u);
  ooo(40, "DDDDDD");  // bigger than the whole budget: dropped outright
  EXPECT_EQ(insp.reassembly_dropped_count(), 2u);
  EXPECT_EQ(insp.reassembly_pending_bytes(), 4u);
}

TEST(FlowReassembly, DuplicateReplacementChargesNetGrowthOnly) {
  // Regression: replacing a buffered duplicate with a longer copy used to
  // charge the full new length against the budget before discounting the
  // replaced bytes, spuriously evicting unrelated pending segments.
  const auto m = core::build_mfa(compile_patterns({".*needle"}));
  ASSERT_TRUE(m.has_value());
  TieredFlowInspector<core::Mfa> insp{*m, /*max_flows=*/0, /*max_pending_bytes=*/10};
  CountingSink sink;
  const FlowKey key{1, 2, 3, 4, 6};
  const auto ooo = [&](std::uint64_t seq, const std::string& bytes) {
    insp.packet(Packet{key, seq, reinterpret_cast<const std::uint8_t*>(bytes.data()),
                       static_cast<std::uint32_t>(bytes.size())},
                sink);
  };
  ooo(10, "AAAA");    // buffered, 4 bytes
  ooo(20, "BBBB");    // buffered, 8 of 10 bytes used
  ooo(10, "AAAAAA");  // longer retransmit of seq 10: net growth is 2 -> fits
  EXPECT_EQ(insp.reassembly_dropped_count(), 0u);
  // Both segments must still be pending: delivering the in-order prefix
  // drains 6 bytes at 10 and 4 at 20 (16..19 stays a gap).
  ooo(0, "needle fil");  // bytes 0..9 -> drains [10,16)
  EXPECT_EQ(insp.reassembly_dropped_count(), 0u);
  // A same-length duplicate is a pure no-op: no growth, no drops.
  ooo(20, "BBBB");
  EXPECT_EQ(insp.reassembly_dropped_count(), 0u);
}

TEST(FlowReassembly, UnboundedWhenCapIsZero) {
  const auto m = core::build_mfa(compile_patterns({".*needle"}));
  ASSERT_TRUE(m.has_value());
  TieredFlowInspector<core::Mfa> insp{*m, 0, /*max_pending_bytes=*/0};
  CollectingSink sink;
  const FlowKey key{1, 2, 3, 4, 6};
  const std::string text = "there is a needle in here";
  // Deliver everything except byte 0, in reverse, then the first byte.
  for (std::size_t i = text.size(); i-- > 1;)
    insp.packet(Packet{key, i, reinterpret_cast<const std::uint8_t*>(text.data() + i), 1},
                sink);
  EXPECT_TRUE(sink.matches.empty());
  insp.packet(Packet{key, 0, reinterpret_cast<const std::uint8_t*>(text.data()), 1}, sink);
  ASSERT_EQ(sink.matches.size(), 1u);
  EXPECT_EQ(insp.reassembly_dropped_count(), 0u);
}

TEST(FlowStorage, PerFlowStateIsContextPlusBookkeepingOnly) {
  // The Engine/Context contract: an in-order flow's record holds its key,
  // stream offset, recency and tier bookkeeping, and the engine's inline
  // context — no per-flow engine copy, pointer, or scanner. A mirror struct
  // with those fields must have the same size.
  using Insp = TieredFlowInspector<core::Mfa>;
  struct Bookkeeping {
    FlowKey key;
    std::uint32_t off_lo, off_hi, last_epoch, cold;
    core::Mfa::InlineContext ictx;
    std::uint8_t stamp, flags;
  };
  static_assert(sizeof(Insp::HotSlot) == sizeof(Bookkeeping),
                "HotSlot must store only the context and bookkeeping");
  EXPECT_EQ(sizeof(Insp::HotSlot), sizeof(Bookkeeping));

  // And the advertised per-flow context footprint is the engine's, shared
  // through one engine reference rather than duplicated per flow.
  const auto m = core::build_mfa(compile_patterns({".*ab.*cd"}));
  ASSERT_TRUE(m.has_value());
  Insp a{*m};
  Insp b{*m};
  EXPECT_EQ(a.context_bytes(), m->context_bytes());
  EXPECT_EQ(&a.engine(), m.operator->());
  EXPECT_EQ(&a.engine(), &b.engine());
}

}  // namespace
}  // namespace mfa::flow
