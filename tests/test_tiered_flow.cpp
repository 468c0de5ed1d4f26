// Flow-inspector tests (DESIGN.md Sec. 11): flow keys, the hashed timing
// wheel, the cold-tier slab arena, and the TieredFlowInspector — including
// randomized hostile-delivery fuzzes against the reassembly-then-NFA
// oracle (flow_oracle.h), the ground truth for delivery semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "dfa/dfa.h"
#include "engine_test_util.h"
#include "flow/flow.h"
#include "flow/slab.h"
#include "flow_oracle.h"
#include "flow/tiered.h"
#include "flow/timing_wheel.h"
#include "hfa/hfa.h"
#include "mfa/mfa.h"
#include "nfa/nfa.h"
#include "obs/metrics.h"
#include "util/match.h"
#include "util/rng.h"

namespace mfa::flow {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::FlowMatch;
using mfa::testing::FlowMatches;
using mfa::testing::FlowOracle;

core::Mfa build(const std::vector<std::string>& sources) {
  auto m = core::build_mfa(compile_patterns(sources));
  EXPECT_TRUE(m.has_value());
  return *std::move(m);
}

Packet make_packet(const FlowKey& key, std::uint64_t seq, const std::string& bytes) {
  return Packet{key, seq, reinterpret_cast<const std::uint8_t*>(bytes.data()),
                static_cast<std::uint32_t>(bytes.size())};
}

/// `n` almost-dot-star rules `.*hdK[^\n]*vlK`: one guard bit each, set by a
/// head, tested by its tail, cleared by a line break.
std::vector<std::string> ads_sources(std::size_t n) {
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < n; ++i)
    sources.push_back(".*hd" + std::to_string(i) + "[^\\n]*vl" + std::to_string(i));
  return sources;
}

TEST(FlowKey, EqualityAndHash) {
  const FlowKey a{1, 2, 3, 4, 6};
  const FlowKey b{1, 2, 3, 4, 6};
  const FlowKey c{1, 2, 3, 5, 6};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(FlowKeyHash{}(a), FlowKeyHash{}(b));
  EXPECT_NE(FlowKeyHash{}(a), FlowKeyHash{}(c));  // overwhelmingly likely
}

// --- TimingWheel ---

TEST(TimingWheel, AdvanceSurfacesEntriesInExpiryOrder) {
  TimingWheel w;
  w.schedule(1, 100);
  w.schedule(2, 40);
  w.schedule(3, 400);
  std::vector<std::uint32_t> surfaced;
  w.advance(500, [&](std::uint32_t item) -> std::int64_t {
    surfaced.push_back(item);
    return TimingWheel::kConsume;
  });
  ASSERT_EQ(surfaced.size(), 3u);
  EXPECT_EQ(surfaced[0], 2u);  // expiry 40 surfaces first
  EXPECT_EQ(surfaced[1], 1u);
  EXPECT_EQ(surfaced[2], 3u);
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimingWheel, RetouchReschedulingDefersEviction) {
  // An entry whose callback returns a future epoch is NOT removed: it
  // surfaces again once the cursor reaches the new expiry. This is the
  // re-touched-flow path — one reschedule per wheel turn, not per packet.
  TimingWheel w;
  w.schedule(7, 10);
  int surfacings = 0;
  w.advance(100, [&](std::uint32_t) -> std::int64_t {
    ++surfacings;
    return 300;  // flow was touched recently: push the entry out
  });
  EXPECT_EQ(surfacings, 1);
  EXPECT_EQ(w.pending(), 1u);
  w.advance(200, [&](std::uint32_t) -> std::int64_t {
    ADD_FAILURE() << "entry rescheduled to 300 must not surface at 200";
    return TimingWheel::kConsume;
  });
  w.advance(400, [&](std::uint32_t) -> std::int64_t {
    ++surfacings;
    return TimingWheel::kConsume;
  });
  EXPECT_EQ(surfacings, 2);
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimingWheel, EpochRolloverWrapsCleanly) {
  // Epochs are modular u32: schedule entries across the wrap boundary and
  // verify they surface exactly once, in order, as the cursor wraps.
  TimingWheel w;
  const std::uint32_t near_wrap = 0xffffff00U;
  w.advance(near_wrap, [](std::uint32_t) -> std::int64_t {
    return TimingWheel::kConsume;
  });
  w.schedule(1, 0xfffffff0U);                       // before the wrap
  w.schedule(2, static_cast<std::uint32_t>(0xfffffff0U + 0x40));  // after it
  std::vector<std::uint32_t> surfaced;
  w.advance(0x80, [&](std::uint32_t item) -> std::int64_t {
    surfaced.push_back(item);
    return TimingWheel::kConsume;
  });
  ASSERT_EQ(surfaced.size(), 2u);
  EXPECT_EQ(surfaced[0], 1u);
  EXPECT_EQ(surfaced[1], 2u);
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimingWheel, PopOldestSkipsGhostsAndStopsOnConsume) {
  TimingWheel w;
  w.schedule(1, 10);   // ghost (caller will kDrop it)
  w.schedule(2, 20);   // victim
  w.schedule(3, 500);  // must stay untouched
  std::vector<std::uint32_t> offered;
  const bool took = w.pop_oldest(16, [&](std::uint32_t item) -> std::int64_t {
    offered.push_back(item);
    if (item == 1) return TimingWheel::kDrop;  // stale ghost: keep searching
    return TimingWheel::kConsume;
  });
  EXPECT_TRUE(took);
  ASSERT_EQ(offered.size(), 2u);
  EXPECT_EQ(offered[0], 1u);
  EXPECT_EQ(offered[1], 2u);
  EXPECT_EQ(w.pending(), 1u);  // ghost removed, victim consumed, 3 remains
}

TEST(TimingWheel, PopOldestRespectsRescheduleVerdicts) {
  TimingWheel w;
  w.schedule(1, 10);
  const bool took = w.pop_oldest(4, [&](std::uint32_t) -> std::int64_t {
    return 900;  // "recently touched" — not a victim
  });
  EXPECT_FALSE(took);
  EXPECT_EQ(w.pending(), 1u);  // rescheduled, not lost
}

// --- SlabArena ---

TEST(SlabArena, HandlesAreStableAcrossUnrelatedAllocFree) {
  SlabArena<std::string> arena;
  const std::uint32_t a = arena.alloc("alpha");
  const std::uint32_t b = arena.alloc("beta");
  for (int i = 0; i < 1000; ++i) arena.free(arena.alloc("churn"));
  EXPECT_EQ(arena[a], "alpha");
  EXPECT_EQ(arena[b], "beta");
  EXPECT_EQ(arena.live(), 2u);
  arena.free(a);
  arena.free(b);
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_GT(arena.allocated_bytes(), 0u);  // slabs are retained for reuse
}

TEST(SlabArena, RecyclesFreedStorageBeforeGrowing) {
  SlabArena<int, 4> arena;  // tiny slabs to force growth
  std::vector<std::uint32_t> handles;
  for (int i = 0; i < 9; ++i) handles.push_back(arena.alloc(i));  // 3 slabs
  const std::size_t grown = arena.allocated_bytes();
  for (const std::uint32_t h : handles) arena.free(h);
  for (int i = 0; i < 9; ++i) arena.alloc(i);
  EXPECT_EQ(arena.allocated_bytes(), grown);  // no new slabs needed
  arena.clear();
  EXPECT_EQ(arena.live(), 0u);
}

// --- TieredFlowInspector: delivery semantics ---

TEST(TieredFlow, SingleFlowInOrderAcrossPackets) {
  const core::Mfa m = build({".*abc.*xyz"});
  TieredFlowInspector<core::Mfa> insp{m};
  CollectingSink sink;
  const FlowKey key{10, 20, 1000, 80, 6};
  insp.packet(make_packet(key, 0, "ab"), sink);
  insp.packet(make_packet(key, 2, "c..x"), sink);
  insp.packet(make_packet(key, 6, "yz"), sink);
  ASSERT_EQ(sink.matches.size(), 1u);
  EXPECT_EQ(sink.matches[0].end, 7u);
  EXPECT_EQ(insp.flow_count(), 1u);
}

TEST(TieredFlow, OutOfOrderSegmentsReassembled) {
  const core::Mfa m = build({".*abcxyz"});
  TieredFlowInspector<core::Mfa> insp{m};
  CollectingSink sink;
  const FlowKey key{1, 2, 3, 4, 6};
  insp.packet(make_packet(key, 3, "xyz"), sink);
  EXPECT_TRUE(sink.matches.empty());
  insp.packet(make_packet(key, 0, "abc"), sink);
  ASSERT_EQ(sink.matches.size(), 1u);
  EXPECT_EQ(sink.matches[0].end, 5u);
}

TEST(TieredFlow, RetransmissionOverlapSkipped) {
  const core::Mfa m = build({".*abcd"});
  TieredFlowInspector<core::Mfa> insp{m};
  CollectingSink sink;
  const FlowKey key{1, 2, 3, 4, 6};
  insp.packet(make_packet(key, 0, "abc"), sink);
  insp.packet(make_packet(key, 1, "bcd"), sink);
  ASSERT_EQ(sink.matches.size(), 1u);
  insp.packet(make_packet(key, 0, "abcd"), sink);  // full duplicate
  EXPECT_EQ(sink.matches.size(), 1u);
}

TEST(TieredFlow, CrossFlowIsolation) {
  const core::Mfa m = build({".*abc.*xyz"});
  TieredFlowInspector<core::Mfa> insp{m};
  CollectingSink sink;
  const FlowKey a{1, 2, 3, 4, 6};
  const FlowKey b{5, 6, 7, 8, 6};
  insp.packet(make_packet(a, 0, "abc..."), sink);
  insp.packet(make_packet(b, 0, "...xyz"), sink);
  EXPECT_TRUE(sink.matches.empty());
  insp.packet(make_packet(a, 6, "xyz"), sink);
  ASSERT_EQ(sink.matches.size(), 1u);
}

TEST(FlowInspector, InterleavedFlows) {
  const core::Mfa m = build({".*abc.*xyz"});
  TieredFlowInspector<core::Mfa> insp{m};
  CollectingSink sink;
  const FlowKey a{1, 2, 3, 4, 6};
  const FlowKey b{5, 6, 7, 8, 6};
  insp.packet(make_packet(a, 0, "ab"), sink);
  insp.packet(make_packet(b, 0, "abc"), sink);
  insp.packet(make_packet(a, 2, "c xyz"), sink);
  insp.packet(make_packet(b, 3, " xyz"), sink);
  EXPECT_EQ(sink.matches.size(), 2u);
}

TEST(FlowInspector, ManyFlows) {
  const core::Mfa m = build({".*needle"});
  TieredFlowInspector<core::Mfa> insp{m};
  CountingSink sink;
  for (std::uint32_t i = 0; i < 500; ++i) {
    const FlowKey key{i, 2, 3, 4, 6};
    insp.packet(make_packet(key, 0, "has a needle inside"), sink);
  }
  EXPECT_EQ(sink.count, 500u);
  EXPECT_EQ(insp.flow_count(), 500u);
  insp.clear();
  EXPECT_EQ(insp.flow_count(), 0u);
}

TEST(TieredFlow, EvictDropsContext) {
  const core::Mfa m = build({".*abc.*xyz"});
  TieredFlowInspector<core::Mfa> insp{m};
  CollectingSink sink;
  const FlowKey key{1, 2, 3, 4, 6};
  insp.packet(make_packet(key, 0, "abc"), sink);
  insp.evict(key);
  EXPECT_EQ(insp.flow_count(), 0u);
  EXPECT_EQ(insp.evicted_count(), 0u);  // explicit evict is not an eviction
  insp.packet(make_packet(key, 0, "xyz"), sink);
  EXPECT_TRUE(sink.matches.empty());  // fresh context forgot the abc
}

// --- TieredFlowInspector: tier placement ---

TEST(TieredFlow, InOrderMfaFlowsNeverTouchTheColdTier) {
  // Inline at any ruleset size: 300 rules need 300 filter bits, but each
  // flow holds at most a few live ones.
  std::vector<std::string> sources = {".*needle"};
  for (int i = 0; i < 300; ++i)
    sources.push_back(".*hd" + std::to_string(i) + "[^\\n]*vl" + std::to_string(i));
  const auto inputs = compile_patterns(sources);
  const auto m = core::build_mfa(inputs);
  ASSERT_TRUE(m.has_value());
  ASSERT_GT(m->program().memory_bits, 64u);
  TieredFlowInspector<core::Mfa> insp{*m};
  FlowOracle oracle;
  EXPECT_TRUE(insp.inline_eligible());
  FlowMatches got;
  for (std::uint32_t f = 0; f < 500; ++f) {
    const std::string tag = std::to_string(f % 300);
    const std::string payload = "a needle here, hd" + tag + " vl" + tag;
    const Packet p = make_packet(FlowKey{f, 0, 0, 0, 6}, 0, payload);
    insp.packet(p, [&](std::uint32_t id, std::uint64_t end) {
      got.push_back(FlowMatch{p.key, id, end});
    });
    oracle.packet(p);
  }
  EXPECT_EQ(insp.flow_count(), 500u);
  EXPECT_EQ(insp.cold_record_count(), 0u);  // all state inline in hot slots
  EXPECT_EQ(insp.spilled_flow_count(), 0u);
  EXPECT_EQ(insp.cold_heap_bytes(), 0u);
  EXPECT_GE(got.size(), 1000u);  // every needle and every own rule
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, oracle.matches(nfa::build_nfa(inputs)));
}

TEST(TieredFlow, ReorderingFlowBorrowsAndReturnsAColdRecord) {
  const core::Mfa m = build({".*abcxyz"});
  TieredFlowInspector<core::Mfa> insp{m};
  CollectingSink sink;
  const FlowKey key{1, 2, 3, 4, 6};
  insp.packet(make_packet(key, 3, "xyz"), sink);  // gap: needs a pending list
  EXPECT_EQ(insp.cold_record_count(), 1u);
  EXPECT_GT(insp.reassembly_pending_bytes(), 0u);
  insp.packet(make_packet(key, 0, "abc"), sink);  // gap fills, buffer drains
  ASSERT_EQ(sink.matches.size(), 1u);
  EXPECT_EQ(insp.cold_record_count(), 0u);  // record returned to the slab
  EXPECT_EQ(insp.reassembly_pending_bytes(), 0u);
}

TEST(TieredFlow, BigStateEnginesFallBackToTheColdTier) {
  const auto h = hfa::build_hfa(compile_patterns({".*abc.*xyz"}));
  ASSERT_TRUE(h.has_value());
  TieredFlowInspector<hfa::Hfa> insp{*h};
  EXPECT_FALSE(insp.inline_eligible());  // Hfa has no InlineContext API
  CollectingSink sink;
  insp.packet(make_packet(FlowKey{1, 2, 3, 4, 6}, 0, "abc then xyz"), sink);
  insp.packet(make_packet(FlowKey{5, 6, 7, 8, 6}, 0, "nothing"), sink);
  EXPECT_EQ(insp.cold_record_count(), 2u);  // one heap context per flow
  ASSERT_EQ(sink.matches.size(), 1u);
}

TEST(TieredFlow, HotSlotStaysCompact) {
  // The tentpole storage claim: an in-order MFA flow costs one fixed-size
  // slot — key, offset, epoch, slab handle, the 12-byte (q, m) inline
  // context, and stamps — with no pointers and no heap node.
  using Slot = TieredFlowInspector<core::Mfa>::HotSlot;
  EXPECT_EQ(sizeof(core::Mfa::InlineContext), 12u);
  EXPECT_EQ(sizeof(Slot), 48u);
}

// --- TieredFlowInspector: eviction ---

TEST(TieredFlow, CapacityEvictionConservesAccounting) {
  const core::Mfa m = build({".*needle"});
  TieredFlowInspector<core::Mfa> insp{m, /*max_flows=*/8};
  CountingSink sink;
  for (std::uint32_t f = 0; f < 100; ++f)
    insp.packet(make_packet(FlowKey{f + 1, 0, 0, 0, 6}, 0, "x"), sink);
  EXPECT_LE(insp.flow_count(), 8u);
  // Conservation: every insert beyond the cap evicted exactly one flow.
  EXPECT_EQ(insp.flow_count() + insp.evicted_count(), 100u);
}

TEST(TieredFlow, CapacityEvictionPrefersStaleOverActive) {
  const core::Mfa m = build({".*needle"});
  TieredFlowInspector<core::Mfa> insp{m, /*max_flows=*/4};
  CountingSink sink;
  const auto touch = [&](std::uint32_t id) {
    insp.packet(make_packet(FlowKey{id, 0, 0, 0, 6}, 0, "x"), sink);
  };
  touch(1);
  touch(2);
  touch(3);
  touch(4);
  // Keep flow 1 hot while churning new flows through the other slots.
  for (std::uint32_t id = 5; id < 40; ++id) {
    touch(1);
    touch(id);
  }
  EXPECT_EQ(insp.flow_count(), 4u);
  // Flow 1 must have survived: touching it again must not change state
  // visible through eviction counters (it is resident, not re-inserted).
  const std::uint64_t evicted_before = insp.evicted_count();
  touch(1);
  EXPECT_EQ(insp.evicted_count(), evicted_before);
}

TEST(TieredFlow, IdleTtlEvictsOnlyIdleFlows) {
  const core::Mfa m = build({".*needle"});
  TieredFlowInspector<core::Mfa> insp{m};
  insp.set_idle_ttl(64);
  CountingSink sink;
  const FlowKey idle_key{1, 0, 0, 0, 6};
  const FlowKey hot_key{2, 0, 0, 0, 6};
  insp.packet(make_packet(idle_key, 0, "x"), sink);
  // Drive the epoch far past the TTL and a full wheel turn while keeping
  // one flow active; the idle flow's wheel entry must surface and evict it.
  for (int i = 0; i < 3000; ++i)
    insp.packet(make_packet(hot_key, 0, "x"), sink);
  EXPECT_EQ(insp.flow_count(), 1u);
  EXPECT_EQ(insp.idle_evicted_count(), 1u);
  EXPECT_EQ(insp.evicted_count(), 0u);  // TTL is not a capacity eviction
}

// --- TieredFlowInspector: lifecycle ---

TEST(TieredFlow, ClearDropsFlowsKeepsMonotoneTotals) {
  const core::Mfa m = build({".*needle"});
  TieredFlowInspector<core::Mfa> insp{m, /*max_flows=*/4};
  CountingSink sink;
  for (std::uint32_t f = 0; f < 10; ++f)
    insp.packet(make_packet(FlowKey{f + 1, 0, 0, 0, 6}, 0, "x"), sink);
  const std::uint64_t evicted = insp.evicted_count();
  EXPECT_GT(evicted, 0u);
  insp.clear();
  EXPECT_EQ(insp.flow_count(), 0u);
  EXPECT_EQ(insp.cold_record_count(), 0u);
  EXPECT_EQ(insp.reassembly_pending_bytes(), 0u);
  EXPECT_EQ(insp.evicted_count(), evicted);  // totals survive the reset
  // And the inspector keeps working afterwards.
  insp.packet(make_packet(FlowKey{1, 0, 0, 0, 6}, 0, "a needle"), sink);
  EXPECT_EQ(insp.flow_count(), 1u);
}

TEST(TieredFlow, QuarantineSurvivesClear) {
  const core::Mfa m = build({".*needle"});
  TieredFlowInspector<core::Mfa> insp{m};
  insp.set_cpu_budget_ns(1);  // any scan work exceeds the budget
  CountingSink sink;
  const FlowKey key{1, 2, 3, 4, 6};
  const std::string big(16384, 'a');
  insp.packet(make_packet(key, 0, big), sink);
  ASSERT_TRUE(insp.is_quarantined(key));
  EXPECT_EQ(insp.quarantined_flow_count(), 1u);
  EXPECT_EQ(insp.flow_count(), 0u);  // quarantine evicts the flow's state
  insp.clear();
  EXPECT_TRUE(insp.is_quarantined(key));  // memory survives worker resets
  insp.packet(make_packet(key, big.size(), big), sink);
  EXPECT_EQ(insp.quarantined_packet_count(), 1u);
  EXPECT_EQ(insp.flow_count(), 0u);
}

TEST(TieredFlow, AdoptEngineResetRestartsFlowsOnTheNewRuleset) {
  const core::Mfa m1 = build({".*abc.*xyz"});
  const core::Mfa m2 = build({".*needle"});
  TieredFlowInspector<core::Mfa> insp{m1};
  CollectingSink sink;
  const FlowKey key{1, 2, 3, 4, 6};
  insp.packet(make_packet(key, 0, "abc"), sink);
  insp.adopt_engine(m2, 1, SwapPolicy::kResetOnNextPacket);
  EXPECT_EQ(insp.current_generation(), 1u);
  // The old partial progress (abc) is gone; the new ruleset applies from
  // the flow's next byte onward, stream offsets preserved.
  insp.packet(make_packet(key, 3, "xyz a needle"), sink);
  ASSERT_EQ(sink.matches.size(), 1u);
  EXPECT_EQ(insp.flows_on_generation(1), 1u);
  EXPECT_EQ(insp.retired_generation_count(), 0u);
}

// --- hostile-delivery fuzz against the oracle ---

using mfa::testing::Delivery;
using mfa::testing::kFuzzSources;
using mfa::testing::oracle_of;
using mfa::testing::plan_flow;
using mfa::testing::run_plan;

TEST(TieredFlowFuzz, AgreesWithOracleUnderHostileDelivery) {
  const auto inputs = compile_patterns(kFuzzSources);
  const nfa::Nfa n = nfa::build_nfa(inputs);
  const auto m = core::build_mfa(inputs);
  ASSERT_TRUE(m.has_value());
  const auto d = dfa::build_dfa(n);
  ASSERT_TRUE(d.has_value());

  for (std::uint64_t round = 0; round < 25; ++round) {
    util::Rng rng(4200 + round);
    std::vector<Delivery> plan;
    const std::size_t nflows = 1 + rng.below(6);
    for (std::uint32_t f = 0; f < nflows; ++f) {
      const FlowKey key{f + 1, 99, 1000, 80, 6};
      auto flow_plan = plan_flow(key, mfa::testing::fuzz_content(rng), rng);
      plan.insert(plan.end(), flow_plan.begin(), flow_plan.end());
    }
    util::Rng mix(1234 + round);
    for (std::size_t i = 0; i + 1 < plan.size(); ++i)
      if (mix.chance(0.5)) std::swap(plan[i], plan[i + 1]);
    const FlowMatches expected = oracle_of(plan).matches(n);

    TieredFlowInspector<core::Mfa> tiered{*m};
    EXPECT_EQ(run_plan(tiered, plan), expected) << "round " << round;
    TieredFlowInspector<core::Mfa> batched{*m};
    EXPECT_EQ(run_plan(batched, plan, 7), expected) << "round " << round;
    // DFA under tiering (inline 4-byte state).
    TieredFlowInspector<dfa::Dfa> tiered_dfa{*d};
    EXPECT_EQ(run_plan(tiered_dfa, plan), expected) << "round " << round;

    // A tiny bounded table forces constant eviction churn through the wheel
    // and cuckoo kicks; accounting must stay conserved (matches may differ
    // since evicted flows forget state — that is the documented semantics).
    TieredFlowInspector<core::Mfa> bounded{*m, /*max_flows=*/3};
    run_plan(bounded, plan);
    EXPECT_LE(bounded.flow_count(), 3u) << "round " << round;
  }
}

// --- spilled flows: inline state that outgrew its slot ---

/// Flow content that drives ads_sources(n) rules past four live bits: runs
/// of heads, some tails, occasional line breaks.
std::string head_flood(std::size_t n, util::Rng& rng) {
  std::string s;
  for (int k = 8 + static_cast<int>(rng.below(16)); k > 0; --k) {
    const std::string tag = std::to_string(rng.below(n));
    s += rng.chance(0.7) ? "hd" + tag + " " : "vl" + tag + " ";
    if (rng.chance(0.05)) s += "\n";
  }
  return s;
}

std::string gap_soup(util::Rng& rng) {
  static const char* const kLiterals[] = {"ab", "yz", "cd", "xy"};
  std::string s;
  for (int k = 4 + static_cast<int>(rng.below(10)); k > 0; --k)
    s += rng.chance(0.5) ? std::string(kLiterals[rng.below(4)])
                         : std::string(1 + rng.below(4), "abxyz "[rng.below(6)]);
  return s;
}

TEST(TieredFlowSpill, ReorderedBatchesMatchTheOracleAcrossSpills) {
  // Spills through both triggers — a fifth live bit (ADS heads, dense and
  // delta tables) and a position record (a gap rule) — on reordered,
  // duplicated packets cut at random seams, in single and batched
  // delivery.
  struct Case {
    const char* name;
    std::vector<std::string> sources;
    bool delta;
  };
  const std::vector<Case> cases = {
      {"ads dense", ads_sources(40), false},
      {"ads delta", ads_sources(40), true},
      {"gap", {".*ab.{3,}yz", ".*cd.*xy"}, false},
  };
  for (const Case& c : cases) {
    core::BuildOptions opts;
    opts.delta = c.delta;
    const auto inputs = compile_patterns(c.sources);
    const nfa::Nfa n = nfa::build_nfa(inputs);
    const auto m = core::build_mfa(inputs, opts);
    ASSERT_TRUE(m.has_value()) << c.name;
    for (std::uint64_t round = 0; round < 8; ++round) {
      util::Rng rng(900 + round);
      std::vector<Delivery> plan;
      for (std::uint32_t f = 0; f < 12; ++f) {
        const FlowKey key{f + 1, 5, 1000, 80, 6};
        const std::string content =
            c.sources.size() == 40 ? head_flood(40, rng) : gap_soup(rng);
        auto flow_plan = plan_flow(key, content, rng);
        plan.insert(plan.end(), flow_plan.begin(), flow_plan.end());
      }
      for (std::size_t i = 0; i + 1 < plan.size(); ++i)
        if (rng.chance(0.5)) std::swap(plan[i], plan[i + 1]);

      const FlowMatches expected = oracle_of(plan).matches(n);
      TieredFlowInspector<core::Mfa> single{*m};
      EXPECT_EQ(run_plan(single, plan), expected) << c.name << " " << round;
      TieredFlowInspector<core::Mfa> batched{*m};
      EXPECT_EQ(run_plan(batched, plan, 9), expected) << c.name << " " << round;
      EXPECT_GT(single.spilled_flow_count(), 0u) << c.name << " " << round;
      EXPECT_GT(batched.spilled_flow_count(), 0u) << c.name << " " << round;
      // Reorder-only records went back; spilled flows keep theirs.
      EXPECT_EQ(single.reassembly_pending_bytes(), 0u);
      EXPECT_EQ(single.cold_record_count(), single.spilled_flow_count());
    }
  }
}

TEST(TieredFlowSpill, SwapsOverSpilledFlowsFreeTheOldGenerationAndItsRecords) {
  const core::Mfa old_rules = build(ads_sources(8));
  const core::Mfa new_rules = build({".*needle"});
  const std::string heads = "hd0 hd1 hd2 hd3 hd4 hd5 ";  // six live bits
  const std::string next = "vl3 a needle";
  for (const SwapPolicy policy : {SwapPolicy::kResetOnNextPacket, SwapPolicy::kDrainOld}) {
    TieredFlowInspector<core::Mfa> insp{old_rules};
    CollectingSink sink;
    for (std::uint32_t f = 0; f < 6; ++f)
      insp.packet(make_packet(FlowKey{f, 1, 1, 1, 6}, 0, heads), sink);
    ASSERT_EQ(insp.spilled_flow_count(), 6u);
    ASSERT_EQ(insp.cold_record_count(), 6u);
    insp.adopt_engine(new_rules, 1, policy);
    for (std::uint32_t f = 0; f < 6; ++f)
      insp.packet(make_packet(FlowKey{f, 1, 1, 1, 6}, heads.size(), next), sink);
    if (policy == SwapPolicy::kResetOnNextPacket) {
      // Back inline on the new ruleset: records returned, old engine freed.
      EXPECT_EQ(sink.matches.size(), 6u);  // the needles, not vl3
      EXPECT_EQ(insp.cold_record_count(), 0u);
      EXPECT_EQ(insp.retired_generation_count(), 0u);
      EXPECT_EQ(insp.flows_on_generation(1), 6u);
    } else {
      // Draining flows finish on the old ruleset from their spilled memory.
      EXPECT_EQ(sink.matches.size(), 6u);  // vl3 against the live hd3 bit
      for (const Match& hit : sink.matches) EXPECT_EQ(hit.id, 4u);
      EXPECT_EQ(insp.retired_generation_count(), 1u);
      EXPECT_EQ(insp.cold_record_count(), 6u);
      for (std::uint32_t f = 0; f < 6; ++f) insp.evict(FlowKey{f, 1, 1, 1, 6});
      EXPECT_EQ(insp.retired_generation_count(), 0u);
      EXPECT_EQ(insp.cold_record_count(), 0u);
    }
    EXPECT_EQ(insp.cold_heap_bytes(), 0u);
  }
}

TEST(TieredFlow, BytesPerFlowGaugeCountsWhatColdRecordsOwn) {
  // 400 rules need 400 filter bits, so a spilled flow's heap Context owns
  // overflow words past Memory's inline 256; reordering flows own their
  // pending buffers. The gauge must count both.
  const core::Mfa m = build(ads_sources(400));
  obs::MetricsRegistry reg(1);
  TieredFlowInspector<core::Mfa> insp{m};
  insp.set_metrics(&reg, 0);
  CountingSink sink;
  const std::string heads = "hd0 hd1 hd2 hd3 hd4 ";
  for (std::uint32_t f = 0; f < 3; ++f)  // spilled
    insp.packet(make_packet(FlowKey{f, 2, 2, 2, 6}, 0, heads), sink);
  insp.packet(make_packet(FlowKey{10, 2, 2, 2, 6}, 4, "seven!!"), sink);      // 7 B pending
  insp.packet(make_packet(FlowKey{11, 2, 2, 2, 6}, 9, "eleven bytes"), sink);  // 12 B
  insp.packet(make_packet(FlowKey{0, 2, 2, 2, 6}, 40, "late"), sink);  // spilled + pending
  insp.packet(make_packet(FlowKey{20, 2, 2, 2, 6}, 0, "plain"), sink);
  const std::size_t ctx_heap = m.make_context().memory.heap_bytes();
  ASSERT_GT(ctx_heap, 0u);
  EXPECT_EQ(insp.spilled_flow_count(), 3u);
  EXPECT_EQ(reg.snapshot().totals().flows_spilled, 3u);
  EXPECT_EQ(insp.cold_heap_bytes(), 3 * ctx_heap + 3 * sizeof(PendingSegment) + 7 + 12 + 4);

  // The gauge's next sample is exactly (hot + cold slabs + record heap) / flows.
  const auto gauge_sum = [&] { return reg.snapshot().totals().bytes_per_flow.sum; };
  const std::uint64_t before = gauge_sum();
  insp.packet(make_packet(FlowKey{20, 2, 2, 2, 6}, 5, " more"), sink);
  EXPECT_EQ(gauge_sum() - before,
            (insp.hot_bytes() + insp.cold_bytes() + insp.cold_heap_bytes()) /
                insp.flow_count());

  // Filled gaps return reorder-only records and their buffers.
  insp.packet(make_packet(FlowKey{10, 2, 2, 2, 6}, 0, "gap!"), sink);
  insp.packet(make_packet(FlowKey{11, 2, 2, 2, 6}, 0, "nine byte"), sink);
  EXPECT_EQ(insp.cold_heap_bytes(), 3 * ctx_heap + sizeof(PendingSegment) + 4);
  for (std::uint32_t f = 0; f < 3; ++f) insp.evict(FlowKey{f, 2, 2, 2, 6});
  EXPECT_EQ(insp.cold_heap_bytes(), 0u);
  EXPECT_EQ(insp.cold_record_count(), 0u);
}

/// Deliveries a budget test runs before it gives up on an undisturbed one.
constexpr int kAttempts = 5;

/// 1 MB of filler with a needle every 4 KiB: the gate must scan all of it.
std::string needle_bulk() {
  std::string bulk(1024 * 1024, 'q');
  for (std::size_t at = 100; at + 6 < bulk.size(); at += 4096)
    bulk.replace(at, 6, "needle");
  return bulk;
}

/// A per-flow CPU budget that one packet of `bulk` busts many times over
/// while a flow's few hundred benign bytes stay far under it, whatever the
/// host load: 1/16 of the fastest of 7 warm scans of `bulk`. Load only
/// stretches a timing, so the fastest scan is the closest to an unloaded
/// one, and the inspector's own scan of `bulk` is never faster than that.
std::uint64_t budget_busted_by(const core::Mfa& m, const std::string& bulk) {
  std::int64_t scan_ns = INT64_MAX;
  for (int rep = 0; rep < 7; ++rep) {
    Scanner<core::Mfa> scanner(m);
    const auto t0 = std::chrono::steady_clock::now();
    scanner.feed(reinterpret_cast<const std::uint8_t*>(bulk.data()), bulk.size(), 0,
                 [](std::uint32_t, std::uint64_t) {});
    scan_ns = std::min<std::int64_t>(
        scan_ns, std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  return static_cast<std::uint64_t>(scan_ns / 16);
}

TEST(TieredFlow, PacketAndPacketBatchAgreeOnCountersAndTelemetry) {
  // packet() is a burst of one, so delivering a stream packet by packet and
  // in bursts must leave identical inspector counters and telemetry —
  // through a quarantine, a spill, gate passes and skips, reordering and
  // capacity evictions.
  std::vector<std::string> sources = ads_sources(8);
  sources.push_back(".*needle");
  const core::Mfa m = build(sources);
  std::deque<std::string> payloads;  // stable storage for packet payloads
  std::vector<Packet> stream;
  const auto add = [&](const FlowKey& key, std::uint64_t seq, std::string bytes) {
    payloads.push_back(std::move(bytes));
    stream.push_back(make_packet(key, seq, payloads.back()));
  };
  // Phase 1: six flows, round-robin. The hostile flow's first 1 MB packet
  // (needles throughout, so the gate must scan it) busts the budget; its
  // later packets are dropped. The spill flow holds six live head bits. The
  // four clean flows mix gate-sized clean chunks (skips), needles (passes)
  // and one swapped pair (a drain).
  const std::string bulk = needle_bulk();
  const std::string clean(80, 'z');
  const FlowKey hostile{1, 1, 1, 1, 6};
  const FlowKey spill{2, 1, 1, 1, 6};
  for (std::uint64_t round = 0; round < 3; ++round) {
    add(hostile, round * bulk.size(), bulk);
    if (round == 0) add(spill, 0, "hd0 hd1 hd2 hd3 hd4 hd5 ");
    if (round == 1) add(spill, 24, "vl3 a needle");
    for (std::uint32_t f = 0; f < 4; ++f) {
      const FlowKey key{10 + f, 1, 1, 1, 6};
      const std::uint64_t base = round * (clean.size() + 8);
      if (round == 1 && f == 2) {  // out of order: the second half first
        add(key, base + clean.size(), "a needle");
        add(key, base, clean);
      } else {
        add(key, base, clean);
        add(key, base + clean.size(), "a needle");
      }
    }
  }
  // Phase 2: one-packet flows past max_flows evict phase-1 flows.
  for (std::uint32_t f = 0; f < 8; ++f)
    add(FlowKey{100 + f, 1, 1, 1, 6}, 0, "a needle");

  // The hostile packet busts the budget by an order of magnitude whatever
  // the build and host load. Any other flow is quarantined only when the
  // host stalls it mid-step for longer than the budget: such an attempt
  // measured the host, not delivery, and runs again. A delivery fault
  // repeats on every attempt and fails the last check.
  const std::uint64_t budget_ns = budget_busted_by(m, bulk);
  bool compared = false;
  for (int attempt = 0; attempt < kAttempts && !compared; ++attempt) {
    obs::MetricsRegistry single_reg(1);
    obs::MetricsRegistry batch_reg(1);
    TieredFlowInspector<core::Mfa> single{m, /*max_flows=*/6};
    TieredFlowInspector<core::Mfa> batched{m, /*max_flows=*/6};
    single.set_metrics(&single_reg, 0);
    batched.set_metrics(&batch_reg, 0);
    single.set_cpu_budget_ns(budget_ns);
    batched.set_cpu_budget_ns(budget_ns);
    CollectingSink single_sink;
    CollectingSink batch_sink;
    for (const Packet& p : stream) single.packet(p, single_sink);
    for (std::size_t i = 0; i < stream.size(); i += 5)
      batched.packet_batch(stream.data() + i, std::min<std::size_t>(5, stream.size() - i),
                           batch_sink);
    if (single.quarantined_flow_count() != 1 || batched.quarantined_flow_count() != 1)
      continue;
    compared = true;

    EXPECT_TRUE(single.is_quarantined(hostile));
    EXPECT_EQ(single.quarantined_flow_count(), 1u);
    EXPECT_EQ(single.quarantined_packet_count(), 2u);
    EXPECT_EQ(single.spilled_flow_count(), 1u);
    EXPECT_EQ(single.evicted_count(), 7u);
    EXPECT_GT(single.prefilter_skip_count(), 0u);
    EXPECT_GT(single.prefilter_pass_count(), 0u);

    EXPECT_EQ(batched.flow_count(), single.flow_count());
    EXPECT_EQ(batched.evicted_count(), single.evicted_count());
    EXPECT_EQ(batched.spilled_flow_count(), single.spilled_flow_count());
    EXPECT_EQ(batched.prefilter_pass_count(), single.prefilter_pass_count());
    EXPECT_EQ(batched.prefilter_skip_count(), single.prefilter_skip_count());
    EXPECT_EQ(batched.quarantined_flow_count(), single.quarantined_flow_count());
    EXPECT_EQ(batched.quarantined_packet_count(), single.quarantined_packet_count());
    EXPECT_EQ(batch_sink.matches.size(), single_sink.matches.size());

    const obs::ShardSnapshot one = single_reg.snapshot().totals();
    const obs::ShardSnapshot burst = batch_reg.snapshot().totals();
    // Quarantined packets count in telemetry on both paths.
    EXPECT_EQ(one.packets, stream.size());
    EXPECT_EQ(burst.packets, one.packets);
    EXPECT_EQ(burst.bytes, one.bytes);
    EXPECT_EQ(burst.matches, one.matches);
    EXPECT_EQ(burst.scan_ns.count, one.scan_ns.count);
    EXPECT_EQ(one.scan_ns.count, stream.size());
  }
  EXPECT_TRUE(compared) << "no attempt quarantined the hostile flow alone";
}

TEST(TieredFlowFuzz, GrowUnderBatchedInsertBurstKeepsDeliveryExact) {
  // Many brand-new flows inside single packet_batch bursts force table
  // growth (and job re-resolution) while jobs are queued.
  const auto inputs = compile_patterns({".*needle"});
  const auto m = core::build_mfa(inputs);
  ASSERT_TRUE(m.has_value());
  TieredFlowInspector<core::Mfa> tiered{*m};
  std::vector<Delivery> plan;
  util::Rng rng(77);
  for (std::uint32_t f = 0; f < 400; ++f) {
    const FlowKey key{f + 1, 7, 7, 7, 6};
    plan.push_back({key, 0, "a nee"});
    plan.push_back({key, 5, "dle!"});
  }
  for (std::size_t i = 0; i + 1 < plan.size(); ++i)
    if (rng.chance(0.5)) std::swap(plan[i], plan[i + 1]);
  const FlowMatches expected = oracle_of(plan).matches(nfa::build_nfa(inputs));
  EXPECT_EQ(expected.size(), 400u);
  EXPECT_EQ(run_plan(tiered, plan, 64), expected);
  EXPECT_EQ(tiered.flow_count(), 400u);
}

TEST(TieredFlowFuzz, BurstsThatReshapeTheTableMatchPerPacketDelivery) {
  // The burst pre-pass hashes every key of a 64-packet burst before the
  // first packet is delivered. Inside such bursts the table changes under
  // those hashes: a flow is quarantined at packet k and sends again later
  // in the burst, max_flows evicts flows that later packets revisit, new
  // flows grow the unbounded table, and segments arrive swapped and
  // duplicated. Delivery must equal one call per packet.
  std::vector<std::string> sources = ads_sources(4);
  sources.push_back(".*needle");
  const core::Mfa m = build(sources);
  const std::string bulk = needle_bulk();
  const FlowKey hostile{1, 2, 2, 2, 6};

  // 72 flows of three segments each, segment s of flow f sent 4*s flows
  // after its first segment, so a burst mixes new flows with revisits.
  static const char* const kWords[] = {"needle", "hd1 ", "vl1 ", "zz ", "\n", "nee"};
  util::Rng rng(5150);
  std::deque<std::string> payloads;  // stable storage for packet payloads
  std::vector<Packet> stream;
  const auto add = [&](const FlowKey& key, std::uint64_t seq, std::string bytes) {
    payloads.push_back(std::move(bytes));
    stream.push_back(make_packet(key, seq, payloads.back()));
  };
  constexpr std::uint32_t kFlows = 72;
  std::vector<std::string> content(kFlows);
  std::vector<std::size_t> cut1(kFlows), cut2(kFlows);
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    while (content[f].size() < 24) content[f] += kWords[rng.below(std::size(kWords))];
    cut1[f] = 1 + rng.below(content[f].size() / 2);
    cut2[f] = cut1[f] + 1 + rng.below(content[f].size() - cut1[f] - 1);
  }
  const auto segment = [&](std::uint32_t f, int s) {
    const FlowKey key{100 + f, 2, 2, 2, 6};
    const std::size_t from = s == 0 ? 0 : s == 1 ? cut1[f] : cut2[f];
    const std::size_t to = s == 0 ? cut1[f] : s == 1 ? cut2[f] : content[f].size();
    add(key, from, content[f].substr(from, to - from));
  };
  // The hostile flow sends at about packets 10, 30 and 50 of the first
  // burst: quarantined at its first packet, dropped at the other two.
  std::uint64_t hostile_seq = 0;
  for (std::uint32_t f = 0; f < kFlows + 8; ++f) {
    if (hostile_seq < 3 * bulk.size() && stream.size() >= 10 + 20 * (hostile_seq / bulk.size())) {
      add(hostile, hostile_seq, bulk);
      hostile_seq += bulk.size();
    }
    if (f < kFlows) segment(f, 0);
    if (f >= 4 && f - 4 < kFlows) {
      const std::uint32_t g = f - 4;
      if (g % 5 == 2) {  // swapped: the third segment before the second
        segment(g, 2);
        if (g % 3 == 0) segment(g, 2);  // duplicate of a buffered segment
        segment(g, 1);
      } else {
        segment(g, 1);
        if (g % 7 == 3) segment(g, 1);  // duplicate
      }
    }
    if (f >= 8 && f - 8 < kFlows && (f - 8) % 5 != 2) segment(f - 8, 2);
  }

  // Budget and retry as in PacketAndPacketBatchAgreeOnCountersAndTelemetry.
  const std::uint64_t budget_ns = budget_busted_by(m, bulk);
  using Seen = std::vector<std::pair<FlowKey, Match>>;
  for (const std::size_t max_flows : {std::size_t{0}, std::size_t{6}}) {
    SCOPED_TRACE(max_flows);
    bool compared = false;
    for (int attempt = 0; attempt < kAttempts && !compared; ++attempt) {
      TieredFlowInspector<core::Mfa> single{m, max_flows};
      TieredFlowInspector<core::Mfa> batched{m, max_flows};
      single.set_cpu_budget_ns(budget_ns);
      batched.set_cpu_budget_ns(budget_ns);
      Seen single_seen, batch_seen;
      std::uint64_t single_drops = 0, batch_drops = 0;
      for (const Packet& p : stream)
        single.packet_batch_flows(
            &p, 1,
            [&](const FlowKey& k, std::uint32_t id, std::uint64_t end) {
              single_seen.emplace_back(k, Match{id, end});
            },
            [&](const Packet&) { ++single_drops; });
      bool grew_mid_run = false;
      for (std::size_t i = 0; i < stream.size(); i += 64) {
        const std::size_t before = batched.hot_slot_capacity();
        batched.packet_batch_flows(
            stream.data() + i, std::min<std::size_t>(64, stream.size() - i),
            [&](const FlowKey& k, std::uint32_t id, std::uint64_t end) {
              batch_seen.emplace_back(k, Match{id, end});
            },
            [&](const Packet&) { ++batch_drops; });
        grew_mid_run |= before != 0 && batched.hot_slot_capacity() > before;
      }
      if (single.quarantined_flow_count() != 1 || batched.quarantined_flow_count() != 1)
        continue;
      compared = true;

      EXPECT_TRUE(single.is_quarantined(hostile));
      EXPECT_EQ(single.quarantined_packet_count(), 2u);
      EXPECT_EQ(single_drops, 2u);
      EXPECT_FALSE(single_seen.empty());
      if (max_flows == 0) {
        EXPECT_TRUE(grew_mid_run);
        EXPECT_EQ(single.evicted_count(), 0u);
      } else {
        EXPECT_GT(single.evicted_count(), 0u);
      }

      EXPECT_EQ(batched.flow_count(), single.flow_count());
      EXPECT_EQ(batched.evicted_count(), single.evicted_count());
      EXPECT_EQ(batched.quarantined_flow_count(), single.quarantined_flow_count());
      EXPECT_EQ(batched.quarantined_packet_count(), single.quarantined_packet_count());
      EXPECT_EQ(batched.reassembly_dropped_count(), single.reassembly_dropped_count());
      EXPECT_EQ(batch_drops, single_drops);
      EXPECT_EQ(batch_seen, single_seen);
    }
    EXPECT_TRUE(compared) << "no attempt quarantined the hostile flow alone";
  }
}

}  // namespace
}  // namespace mfa::flow
