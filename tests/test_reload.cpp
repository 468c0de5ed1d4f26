// Live ruleset hot swap (DESIGN.md Sec. 10): flow-inspector generation
// adoption/retirement, the reload registry/HotSwapper, and the
// swap-under-load contract on the sharded pipeline — no packet lost, every
// match attributed to the generation that scanned it, old EngineSets
// destroyed once the last flow referencing them retires. The TSan CI job
// runs this file.
#include "pipeline/reload.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine_test_util.h"
#include "flow/tiered.h"
#include "flow_oracle.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"

namespace mfa::pipeline {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::sorted;

core::Mfa build(const std::vector<std::string>& patterns) {
  auto m = core::build_mfa(compile_patterns(patterns));
  EXPECT_TRUE(m.has_value());
  return *std::move(m);
}

flow::Packet packet(const flow::FlowKey& key, std::uint64_t seq, const std::string& s) {
  return flow::Packet{key, seq, reinterpret_cast<const std::uint8_t*>(s.data()),
                      static_cast<std::uint32_t>(s.size())};
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// --- flow-inspector generation layer ----------------------------------------

TEST(FlowSwap, ResetOnNextPacketRestartsContextOnNewEngine) {
  const core::Mfa a = build({".*abcd"});              // id 1
  const core::Mfa b = build({".*zzzz", ".*wxyz"});    // wxyz = id 2
  flow::TieredFlowInspector<core::Mfa> insp{a};
  const flow::FlowKey key{1, 2, 3, 4, 6};
  CollectingSink sink;
  const std::string first = "ab", second = "cdwxyz";
  insp.packet(packet(key, 0, first), sink);
  EXPECT_TRUE(sink.matches.empty());

  insp.adopt_engine(b, 1, flow::SwapPolicy::kResetOnNextPacket);
  EXPECT_EQ(insp.current_generation(), 1u);
  insp.packet(packet(key, 2, second), sink);
  // The (q, m) restarted on engine b: the straddling "abcd" is forgotten,
  // the new ruleset's "wxyz" fires at its stream position.
  ASSERT_EQ(sink.matches.size(), 1u);
  EXPECT_EQ(sink.matches[0].id, 2u);
  EXPECT_EQ(insp.flows_on_generation(1), 1u);
  EXPECT_EQ(insp.retired_generation_count(), 0u);
}

TEST(FlowSwap, DrainOldFinishesExistingFlowsOnOldEngine) {
  const core::Mfa a = build({".*abcd"});              // id 1
  const core::Mfa b = build({".*zzzz", ".*wxyz"});    // wxyz = id 2
  flow::TieredFlowInspector<core::Mfa> insp{a};
  const flow::FlowKey old_key{1, 2, 3, 4, 6};
  const flow::FlowKey new_key{5, 6, 7, 8, 6};
  CollectingSink sink;
  const std::string first = "ab", second = "cdwxyz", fresh = "wxyz";
  insp.packet(packet(old_key, 0, first), sink);

  insp.adopt_engine(b, 1, flow::SwapPolicy::kDrainOld);
  insp.packet(packet(old_key, 2, second), sink);
  // The pre-swap flow drained on engine a: "abcd" completes across the swap.
  ASSERT_EQ(sink.matches.size(), 1u);
  EXPECT_EQ(sink.matches[0].id, 1u);
  EXPECT_EQ(insp.flows_on_generation(0), 1u);
  EXPECT_EQ(insp.retired_generation_count(), 1u);

  insp.packet(packet(new_key, 0, fresh), sink);  // new flow → new engine
  ASSERT_EQ(sink.matches.size(), 2u);
  EXPECT_EQ(sink.matches[1].id, 2u);
  EXPECT_EQ(insp.flows_on_generation(1), 1u);

  // The old generation's record drops with its last flow.
  insp.evict(old_key);
  EXPECT_EQ(insp.retired_generation_count(), 0u);
}

TEST(FlowSwap, RetiredPinReleasedWhenLastDrainingFlowRetires) {
  const core::Mfa base = build({".*abcd"});
  auto owner_b = std::make_shared<core::Mfa>(build({".*efgh"}));
  auto owner_c = std::make_shared<core::Mfa>(build({".*ijkl"}));
  std::weak_ptr<core::Mfa> weak_b = owner_b;

  flow::TieredFlowInspector<core::Mfa> insp{base};
  insp.adopt_engine(*owner_b, 1, flow::SwapPolicy::kDrainOld, owner_b);
  const flow::FlowKey key{9, 9, 9, 9, 6};
  CollectingSink sink;
  const std::string payload = "efgh";
  insp.packet(packet(key, 0, payload), sink);  // flow pinned to generation 1
  ASSERT_EQ(sink.matches.size(), 1u);

  insp.adopt_engine(*owner_c, 2, flow::SwapPolicy::kDrainOld, owner_c);
  owner_b.reset();  // inspector's retired record is now the only owner
  EXPECT_FALSE(weak_b.expired());
  EXPECT_EQ(insp.retired_generation_count(), 1u);

  insp.evict(key);  // last generation-1 flow retires → pin drops
  EXPECT_TRUE(weak_b.expired());
  EXPECT_EQ(insp.retired_generation_count(), 0u);
}

TEST(FlowSwap, ClearReleasesEveryRetiredGeneration) {
  const core::Mfa base = build({".*abcd"});
  auto owner_b = std::make_shared<core::Mfa>(build({".*efgh"}));
  std::weak_ptr<core::Mfa> weak_b = owner_b;
  flow::TieredFlowInspector<core::Mfa> insp{base};
  insp.adopt_engine(*owner_b, 1, flow::SwapPolicy::kDrainOld, owner_b);
  CollectingSink sink;
  const std::string payload = "efgh";
  insp.packet(packet(flow::FlowKey{1, 1, 1, 1, 6}, 0, payload), sink);
  insp.adopt_engine(base, 2, flow::SwapPolicy::kDrainOld);
  owner_b.reset();
  EXPECT_FALSE(weak_b.expired());
  insp.clear();
  EXPECT_TRUE(weak_b.expired());
}

TEST(FlowSwap, ReAdoptingCurrentGenerationIsANoOp) {
  const core::Mfa a = build({".*abcd"});
  auto owner_b = std::make_shared<core::Mfa>(build({".*efgh"}));
  flow::TieredFlowInspector<core::Mfa> insp{a};
  CollectingSink sink;
  const std::string payload = "x";
  insp.packet(packet(flow::FlowKey{1, 1, 1, 1, 6}, 0, payload), sink);
  insp.adopt_engine(*owner_b, 1, flow::SwapPolicy::kDrainOld, owner_b);
  ASSERT_EQ(insp.retired_generation_count(), 1u);
  // A worker restart replays the staged swap: the same generation must not
  // retire itself (that record could never be released).
  insp.adopt_engine(*owner_b, 1, flow::SwapPolicy::kDrainOld, owner_b);
  EXPECT_EQ(insp.retired_generation_count(), 1u);
  EXPECT_EQ(insp.current_generation(), 1u);
}

TEST(FlowSwap, MixedGenerationBurstScansEachFlowWithItsOwnEngine) {
  const core::Mfa a = build({".*olda"});              // id 1
  const core::Mfa b = build({".*zzzz", ".*newb"});    // newb = id 2
  flow::TieredFlowInspector<core::Mfa> insp{a};
  CollectingSink pre;
  const std::string pad = "pad.";
  std::vector<flow::FlowKey> keys;
  for (std::uint32_t i = 1; i <= 8; ++i) keys.push_back(flow::FlowKey{i, 1, 2, 3, 6});
  for (std::size_t i = 0; i < 4; ++i)  // first four flows exist pre-swap
    insp.packet(packet(keys[i], 0, pad), pre);
  EXPECT_TRUE(pre.matches.empty());

  insp.adopt_engine(b, 1, flow::SwapPolicy::kDrainOld);

  // One burst mixing both generations: each flow must be fed on its own
  // engine (never advanced on the wrong automaton).
  const std::string body = "..olda..newb..";
  std::vector<flow::Packet> burst;
  for (std::size_t i = 0; i < 4; ++i) burst.push_back(packet(keys[i], pad.size(), body));
  for (std::size_t i = 4; i < 8; ++i) burst.push_back(packet(keys[i], 0, body));
  std::vector<std::pair<std::uint64_t, std::uint32_t>> seen;  // (generation, id)
  insp.packet_batch_attributed(
      burst.data(), burst.size(),
      [&](const flow::FlowKey&, std::uint64_t generation, std::uint32_t id,
          std::uint64_t) { seen.emplace_back(generation, id); },
      [](const flow::Packet&) { FAIL() << "no packet may be dropped"; });

  std::size_t old_hits = 0, new_hits = 0;
  for (const auto& [generation, id] : seen) {
    if (generation == 0) {
      EXPECT_EQ(id, 1u);  // old flows see only the old ruleset
      ++old_hits;
    } else {
      EXPECT_EQ(generation, 1u);
      EXPECT_EQ(id, 2u);  // new flows see only the new ruleset
      ++new_hits;
    }
  }
  EXPECT_EQ(old_hits, 4u);
  EXPECT_EQ(new_hits, 4u);
  EXPECT_EQ(insp.flows_on_generation(0), 4u);
  EXPECT_EQ(insp.flows_on_generation(1), 4u);
}

// --- RulesetRegistry / HotSwapper -------------------------------------------

TEST(ReloadRegistry, PublishesIncreasingGenerationsAndAliasedEngines) {
  reload::RulesetRegistry<core::Mfa> registry;
  EXPECT_EQ(registry.current_generation(), 0u);
  EXPECT_EQ(registry.current(), nullptr);

  auto first = registry.publish(build({".*abcd"}), "first.rules");
  auto second = registry.publish(build({".*efgh"}), "second.rules");
  EXPECT_EQ(first->generation, 1u);
  EXPECT_EQ(second->generation, 2u);
  EXPECT_EQ(registry.current_generation(), 2u);
  EXPECT_EQ(registry.current(), second);
  EXPECT_EQ(second->origin, "second.rules");

  // engine_of aliases into the set: same refcount, engine address inside.
  std::shared_ptr<const core::Mfa> engine = reload::engine_of(first);
  EXPECT_EQ(engine.get(), &first->engine);
  std::weak_ptr<const reload::EngineSet<core::Mfa>> weak = first;
  first.reset();
  EXPECT_FALSE(weak.expired());  // the aliased engine pointer pins the set
  engine.reset();
  EXPECT_TRUE(weak.expired());
}

TEST(HotSwap, FailedPrepareNeverTouchesThePipeline) {
  const core::Mfa a = build({".*atk1"});
  ShardedInspector<core::Mfa> pipe(a, Options{});
  reload::RulesetRegistry<core::Mfa> registry;
  reload::HotSwapper<core::Mfa> swapper(registry, pipe);
  pipe.start();
  const reload::SwapReport report = swapper.swap_now(
      []() -> reload::SourceResult<core::Mfa> { return {std::nullopt, "bad rules"}; },
      "broken.rules");
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.error, "bad rules");
  EXPECT_EQ(pipe.current_generation(), 0u);
  EXPECT_EQ(registry.current_generation(), 0u);
  ASSERT_TRUE(swapper.last_report().has_value());
  EXPECT_FALSE(swapper.last_report()->ok);

  const std::string payload = "x atk1 y";
  pipe.submit(packet(flow::FlowKey{1, 1, 1, 1, 6}, 0, payload));
  pipe.finish();
  EXPECT_EQ(pipe.totals().matches, 1u);  // generation 0 kept scanning
}

TEST(HotSwap, CompilesRulesFileAndSwapsIntoRunningPipeline) {
  const std::string rules_path = temp_path("hot.rules");
  std::FILE* f = std::fopen(rules_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("alert tcp any any -> any any "
             "(msg:\"worm\"; pcre:\"/.*worm77/\"; sid:7;)\n",
             f);
  std::fclose(f);

  const core::Mfa a = build({".*atk1"});
  Options opt;
  opt.collect_flow_matches = true;
  ShardedInspector<core::Mfa> pipe(a, opt);
  reload::RulesetRegistry<core::Mfa> registry;
  reload::HotSwapper<core::Mfa> swapper(registry, pipe);
  pipe.start();

  const reload::SwapReport report = swapper.swap_now(
      [&] { return reload::compile_rules_file(rules_path); }, rules_path);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.generation, 1u);
  EXPECT_EQ(report.origin, rules_path);
  EXPECT_GE(report.prepare_seconds, 0.0);
  EXPECT_EQ(pipe.current_generation(), 1u);

  // Wait for the worker to adopt, then prove the new ruleset is live.
  while (pipe.adopted_generation() < 1) std::this_thread::yield();
  const std::string payload = "a worm77 b";
  pipe.submit(packet(flow::FlowKey{2, 2, 2, 2, 6}, 0, payload));
  pipe.finish();
  ASSERT_EQ(pipe.flow_matches().size(), 1u);
  EXPECT_EQ(pipe.flow_matches()[0].match.id, 7u);  // match id == sid
  EXPECT_EQ(pipe.flow_matches()[0].generation, 1u);
  std::remove(rules_path.c_str());
}

TEST(HotSwap, CompileRulesFileReportsReadableErrors) {
  auto [missing, missing_err] = reload::compile_rules_file(temp_path("nope.rules"));
  EXPECT_FALSE(missing.has_value());
  EXPECT_NE(missing_err.find("nope.rules"), std::string::npos);

  auto [artifact, artifact_err] = reload::load_artifact(temp_path("nope.mfac"));
  EXPECT_FALSE(artifact.has_value());
  EXPECT_NE(artifact_err.find("nope.mfac"), std::string::npos);
}

TEST(HotSwap, LoadsSavedArtifactAndSwaps) {
  const std::string path = temp_path("swap.mfac");
  ASSERT_TRUE(build({".*sig5end"}).save(path));

  const core::Mfa a = build({".*atk1"});
  ShardedInspector<core::Mfa> pipe(a, Options{});
  reload::RulesetRegistry<core::Mfa> registry;
  reload::HotSwapper<core::Mfa> swapper(registry, pipe);
  pipe.start();
  const reload::SwapReport report =
      swapper.swap_now([&] { return reload::load_artifact(path); }, path);
  ASSERT_TRUE(report.ok) << report.error;
  while (pipe.adopted_generation() < report.generation) std::this_thread::yield();
  const std::string payload = "sig5end";
  pipe.submit(packet(flow::FlowKey{3, 3, 3, 3, 6}, 0, payload));
  pipe.finish();
  EXPECT_EQ(pipe.totals().matches, 1u);
  EXPECT_EQ(pipe.matches_by_generation().at(report.generation), 1u);
  std::remove(path.c_str());
}

// --- Swap under load on the sharded pipeline --------------------------------

/// Deterministic kDrainOld parity: flows opened before the swap must produce
/// exactly the oracle's matches under the OLD ruleset for their full
/// streams; flows opened after it, the NEW ruleset's matches.
TEST(SwapUnderLoad, DrainOldKeepsPerFlowParityWithSequentialInspectors) {
  const std::vector<std::string> rules_a = {".*atk1.*vec2"};             // id 1
  const std::vector<std::string> rules_b = {".*atk1.*vec2", ".*worm77"};
  const core::Mfa a = build(rules_a);
  reload::RulesetRegistry<core::Mfa> registry;
  auto set = registry.publish(build(rules_b), "b");

  // Multi-packet old flows straddle the swap; their streams only match when
  // both halves are scanned by one context on one engine.
  const std::string half1 = "...atk1...";
  const std::string half2 = "...vec2...worm77...";
  const std::string fresh = "...atk1...vec2...worm77...";
  std::vector<flow::FlowKey> old_keys, new_keys;
  for (std::uint32_t i = 1; i <= 16; ++i) old_keys.push_back(flow::FlowKey{i, 10, 1, 2, 6});
  for (std::uint32_t i = 1; i <= 16; ++i) new_keys.push_back(flow::FlowKey{i, 20, 1, 2, 6});

  // Oracle references per flow: old flows under ruleset a, new under b.
  mfa::testing::PerFlowMatches expect;
  {
    mfa::testing::FlowOracle seq_a, seq_b;
    for (const auto& key : old_keys) {
      seq_a.packet(packet(key, 0, half1));
      seq_a.packet(packet(key, half1.size(), half2));
    }
    for (const auto& key : new_keys) seq_b.packet(packet(key, 0, fresh));
    expect = seq_a.per_flow(nfa::build_nfa(compile_patterns(rules_a)));
    expect.merge(seq_b.per_flow(nfa::build_nfa(compile_patterns(rules_b))));
  }

  Options opt;
  opt.shards = 2;
  opt.batch_size = 1;  // phase barrier below counts processed packets exactly
  opt.collect_flow_matches = true;
  opt.swap_policy = flow::SwapPolicy::kDrainOld;
  obs::MetricsRegistry metrics(obs::MetricsRegistry::Options{.shards = 2});
  opt.metrics = &metrics;
  ShardedInspector<core::Mfa> pipe(a, opt);
  pipe.start();

  // Phase 1: open every old flow on generation 0 and wait until the workers
  // have processed them all, so flow creation deterministically precedes the
  // swap.
  for (const auto& key : old_keys) pipe.submit(packet(key, 0, half1));
  const auto processed = [&] {
    std::uint64_t n = 0;
    for (const auto& s : metrics.snapshot().shards) n += s.packets;
    return n;
  };
  while (processed() < old_keys.size()) std::this_thread::yield();

  pipe.swap_ruleset(reload::engine_of(set), set->generation);
  while (pipe.adopted_generation() < set->generation) std::this_thread::yield();

  // Phase 2: finish the old flows (still generation 0 under kDrainOld) and
  // open the new ones (generation 1).
  for (const auto& key : old_keys) pipe.submit(packet(key, half1.size(), half2));
  for (const auto& key : new_keys) pipe.submit(packet(key, 0, fresh));
  pipe.finish();

  const ShardStats t = pipe.totals();
  EXPECT_EQ(t.submitted, t.scanned + t.shed_total());
  EXPECT_EQ(t.shed_total(), 0u);

  std::unordered_map<flow::FlowKey, MatchVec, flow::FlowKeyHash> got;
  for (const FlowMatch& fm : pipe.flow_matches()) {
    got[fm.key].push_back(fm.match);
    const bool is_old = fm.key.dst_ip == 10;
    EXPECT_EQ(fm.generation, is_old ? 0u : 1u) << "flow " << fm.key.src_ip;
  }
  ASSERT_EQ(got.size(), expect.size());
  for (auto& [key, matches] : expect)
    EXPECT_EQ(sorted(got[key]), sorted(matches)) << "flow " << key.src_ip;
}

/// The TSan stress: a background HotSwapper compiles and swaps twice while
/// the producer streams packets. Accounting must stay exact, generation-2
/// rules must only be credited to generation >= 1 contexts, and the first
/// swapped EngineSet must be destroyed (refcount zero) once the pipeline
/// and registry let go.
TEST(SwapUnderLoad, AsyncSwapKeepsAccountingExactAndRetiresOldEngineSet) {
  const core::Mfa a = build({".*atk1.*vec2"});  // id 1 in every generation
  Options opt;
  opt.shards = 2;
  opt.collect_flow_matches = true;
  opt.swap_policy = flow::SwapPolicy::kDrainOld;
  ShardedInspector<core::Mfa> pipe(a, opt);
  reload::RulesetRegistry<core::Mfa> registry;
  std::weak_ptr<const reload::EngineSet<core::Mfa>> weak_first;
  {
    reload::HotSwapper<core::Mfa> swapper(registry, pipe);
    pipe.start();

    const std::string hit = "..atk1..vec2..";
    const std::string worm = "..worm77..";
    // One fresh flow per packet: under kDrainOld each flow's generation is
    // whatever its worker had adopted at creation, so post-swap flows pick
    // up the new rules while the swap races the producer.
    const auto key_of = [](std::uint32_t i) {
      return flow::FlowKey{i, 7, 1, 2, 6};
    };
    constexpr std::uint32_t kPackets = 6000;
    for (std::uint32_t i = 0; i < kPackets; ++i) {
      // Swaps launch from the swapper's own thread, racing the submits:
      // generation 1 adds ".*worm77" (id 2), generation 2 keeps it.
      if (i == 1000) {
        ASSERT_TRUE(swapper.swap_async(
            [] {
              return reload::SourceResult<core::Mfa>{
                  core::build_mfa(compile_patterns({".*atk1.*vec2", ".*worm77"})),
                  ""};
            },
            "gen1"));
      }
      if (i == 4000) {
        swapper.join();  // at most one async swap in flight
        weak_first = registry.current();  // generation 1's set, about to be replaced
        ASSERT_TRUE(swapper.swap_async(
            [] {
              return reload::SourceResult<core::Mfa>{
                  core::build_mfa(compile_patterns({".*atk1.*vec2", ".*worm77"})),
                  ""};
            },
            "gen2"));
      }
      const std::string& payload = i % 3 == 0 ? worm : hit;
      pipe.submit(packet(key_of(i), 0, payload));
    }
    swapper.join();
    ASSERT_TRUE(swapper.last_report().has_value());
    EXPECT_TRUE(swapper.last_report()->ok) << swapper.last_report()->error;
    EXPECT_EQ(registry.current_generation(), 2u);
    pipe.finish();

    const ShardStats t = pipe.totals();
    EXPECT_EQ(t.submitted, kPackets);
    EXPECT_EQ(t.submitted, t.scanned + t.shed_total());  // exact, no loss
    EXPECT_EQ(t.shed_total(), 0u);                       // backpressure mode
    std::uint64_t by_generation = 0;
    for (const auto& [generation, count] : pipe.matches_by_generation()) {
      EXPECT_LE(generation, 2u);
      by_generation += count;
    }
    EXPECT_EQ(by_generation, t.matches);
    // ".*worm77" exists only in generations >= 1: every id-2 match must be
    // attributed to a context built after the first swap.
    bool saw_worm = false;
    for (const FlowMatch& fm : pipe.flow_matches()) {
      if (fm.match.id != 2u) continue;
      saw_worm = true;
      EXPECT_GE(fm.generation, 1u);
    }
    EXPECT_TRUE(saw_worm);  // the swap demonstrably took effect under load
  }
  // Pipeline finished and swapper destroyed: nothing outside the registry
  // may still own any set, and the registry only holds the newest.
  EXPECT_TRUE(weak_first.expired());
}

/// The refcount-zero acceptance check, deterministic: publish gen 1, run
/// flows on it, swap to gen 2, finish — after the shards are gone the first
/// EngineSet must be destroyed even though the registry/pipeline still pin
/// the second.
TEST(SwapUnderLoad, OldEngineSetDestroyedAfterLastFlowRetires) {
  const core::Mfa a = build({".*atk1"});
  reload::RulesetRegistry<core::Mfa> registry;
  auto set1 = registry.publish(build({".*sig5end"}), "gen1");
  auto set2 = registry.publish(build({".*worm77"}), "gen2");
  std::weak_ptr<const reload::EngineSet<core::Mfa>> weak1 = set1;

  {
    Options opt;
    opt.shards = 2;
    opt.batch_size = 1;  // the processed-packet barrier below is exact
    opt.swap_policy = flow::SwapPolicy::kDrainOld;
    obs::MetricsRegistry metrics(obs::MetricsRegistry::Options{.shards = 2});
    opt.metrics = &metrics;
    ShardedInspector<core::Mfa> pipe(a, opt);
    pipe.start();
    pipe.swap_ruleset(reload::engine_of(set1), set1->generation);
    while (pipe.adopted_generation() < set1->generation) std::this_thread::yield();
    const std::string payload = "sig5end";
    for (std::uint32_t i = 1; i <= 32; ++i)
      pipe.submit(packet(flow::FlowKey{i, 1, 1, 1, 6}, 0, payload));
    // Let every flow be created on generation 1 before publishing 2, so the
    // draining flows are what keeps set1 pinned until the shards die.
    const auto processed = [&] {
      std::uint64_t n = 0;
      for (const auto& s : metrics.snapshot().shards) n += s.packets;
      return n;
    };
    while (processed() < 32) std::this_thread::yield();
    pipe.swap_ruleset(reload::engine_of(set2), set2->generation);
    pipe.finish();
    EXPECT_EQ(pipe.totals().matches, 32u);
    set1.reset();
    // After finish() the shards (and their draining flows) are destroyed:
    // nothing pins generation 1 anymore.
    EXPECT_TRUE(weak1.expired());
    EXPECT_FALSE(set2 == nullptr);  // gen 2 stays alive via registry + pipe
  }
  EXPECT_EQ(registry.current_generation(), 2u);
}

/// Re-publishing a swap before start() (or between runs) must reach fresh
/// workers: they adopt the staged generation on their first iteration.
TEST(SwapUnderLoad, SwapStagedBeforeStartIsAdoptedByFreshWorkers) {
  const core::Mfa a = build({".*atk1"});
  reload::RulesetRegistry<core::Mfa> registry;
  auto set = registry.publish(build({".*worm77"}), "pre-start");
  Options opt;
  opt.shards = 2;
  ShardedInspector<core::Mfa> pipe(a, opt);
  pipe.swap_ruleset(reload::engine_of(set), set->generation);
  pipe.start();
  while (pipe.adopted_generation() < set->generation) std::this_thread::yield();
  const std::string payload = "worm77";
  pipe.submit(packet(flow::FlowKey{1, 1, 1, 1, 6}, 0, payload));
  pipe.finish();
  EXPECT_EQ(pipe.totals().matches, 1u);
  EXPECT_EQ(pipe.matches_by_generation().at(set->generation), 1u);
}

}  // namespace
}  // namespace mfa::pipeline
