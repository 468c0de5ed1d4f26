// Hostile-traffic soak: randomized fault schedules (crashes, stalls,
// corrupt packets, allocation failures, queue saturation) over realistic
// traffic, checked against two contracts the robustness layer guarantees:
//  1. Exact accounting — every submitted packet is scanned or counted in
//     exactly one shed bucket (submitted == scanned + shed_total), per
//     shard and in aggregate, no matter which faults fire.
//  2. Parity on undisturbed flows — flows untouched by sheds, crashes and
//     failover produce byte-identical per-flow matches to the
//     reassembly-then-NFA oracle, and so does the flow inspector over each
//     of the NFA/DFA/MFA engines.
// Plus regressions for watchdog restart, drop-newest load shedding,
// per-flow CPU quarantine, and bounded-deadline shutdown.
#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "dfa/dfa.h"
#include "engine_test_util.h"
#include "flow/tiered.h"
#include "flow_oracle.h"
#include "mfa/mfa.h"
#include "nfa/nfa.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "trace/trace.h"
#include "util/faultpoint.h"

namespace mfa::pipeline {
namespace {

using mfa::testing::compile_patterns;

using mfa::testing::PerFlowMatches;

const std::vector<std::string> kPatterns = {".*attack[0-9]", ".*worm77",
                                            ".*beacon.ping"};

/// Ground truth: per-flow sorted kPatterns matches from the oracle.
PerFlowMatches per_flow_reference(const trace::Trace& t) {
  mfa::testing::FlowOracle oracle;
  t.for_each_packet([&](const flow::Packet& p) { oracle.packet(p); });
  return oracle.per_flow(nfa::build_nfa(compile_patterns(kPatterns)));
}

/// Per-flow sorted matches of one engine through the flow inspector.
template <typename EngineT>
PerFlowMatches per_flow_matches(const EngineT& engine, const trace::Trace& t) {
  flow::TieredFlowInspector<EngineT> insp{engine};
  PerFlowMatches out;
  t.for_each_packet([&](const flow::Packet& p) {
    insp.packet(p, [&](std::uint32_t id, std::uint64_t end) {
      out[p.key].push_back(Match{id, end});
    });
  });
  for (auto& [key, v] : out) std::sort(v.begin(), v.end());
  return out;
}

trace::Trace make_soak_trace(std::uint64_t seed) {
  // Big enough for a real flow population (dozens of flows): the soak
  // excludes every flow with a shed packet and every flow on a failed-over
  // shard, so it needs survivors left over to compare.
  return trace::make_real_life(trace::RealLifeProfile::kCyberDefense, 3000000,
                               seed, {"attack5 here", "worm77", "beaconXping"});
}

void check_invariant(const ShardStats& s, const char* what) {
  EXPECT_EQ(s.submitted, s.scanned + s.shed_total())
      << what << ": submitted=" << s.submitted << " scanned=" << s.scanned
      << " shed{adm=" << s.shed_admission << " byp=" << s.shed_bypass
      << " cor=" << s.shed_corrupt << " cra=" << s.shed_crash
      << " qua=" << s.shed_quarantine << " fov=" << s.shed_failover << "}";
}

class SoakTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultRegistry::instance().disarm_all(); }
  void TearDown() override { util::FaultRegistry::instance().disarm_all(); }
};

TEST_F(SoakTest, NfaDfaMfaAgreePerFlowOnCleanTraffic) {
  const auto inputs = compile_patterns(kPatterns);
  const nfa::Nfa n = nfa::build_nfa(inputs);
  const auto d = dfa::build_dfa(n);
  ASSERT_TRUE(d.has_value());
  const auto m = core::build_mfa(inputs);
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = make_soak_trace(11);
  const PerFlowMatches reference = per_flow_reference(t);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(per_flow_matches(n, t), reference) << "NFA";
  EXPECT_EQ(per_flow_matches(*d, t), reference) << "DFA";
  EXPECT_EQ(per_flow_matches(*m, t), reference) << "MFA";
}

TEST_F(SoakTest, FaultSoakKeepsAccountingExactAndUndisturbedFlowsIdentical) {
  if (!util::faultpoints_enabled())
    GTEST_SKIP() << "fault points compiled out (Release build)";
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = make_soak_trace(23);
  const PerFlowMatches reference = per_flow_reference(t);

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    auto& reg = util::FaultRegistry::instance();
    reg.disarm_all();
    // Two deterministic crashes early on, five corrupt packets, a pinch of
    // transient queue-full, one allocation failure, and short random
    // stalls: enough chaos to exercise every recovery path in one run.
    reg.arm("pipeline.worker.crash",
            {seed, 1000000, /*after=*/20, /*max_fires=*/2, 0});
    reg.arm("pipeline.packet.corrupt",
            {seed + 1, 1000000, /*after=*/10, /*max_fires=*/5, 0});
    reg.arm("pipeline.queue.full",
            {seed + 2, 20000, 0, ~std::uint64_t{0}, 0});
    reg.arm("flow.table.alloc",
            {seed + 3, 1000000, /*after=*/400, /*max_fires=*/1, 0});
    reg.arm("pipeline.worker.stall",
            {seed + 4, 300000, 0, /*max_fires=*/10, /*param=*/2});

    obs::MetricsRegistry metrics(3);
    std::mutex mu;
    std::unordered_set<flow::FlowKey, flow::FlowKeyHash> shed_flows;
    std::atomic<std::uint64_t> sink_calls{0};

    Options opt;
    opt.shards = 3;
    // Room for the whole trace in every shard, so the backlog never reaches
    // the high watermark: admission sheds come only from the seeded
    // "pipeline.queue.full" fault, and which flows they disturb depends on
    // the seed, not on how fast the workers run on this host.
    opt.queue_capacity = 2 * t.packet_count();
    opt.batch_size = 16;
    opt.collect_flow_matches = true;
    opt.metrics = &metrics;
    opt.watchdog = true;
    opt.watchdog_interval_ms = 1;
    opt.stall_timeout_ms = 10;
    opt.max_worker_restarts = 2;
    opt.shed_policy = ShedPolicy::kDropNewest;
    opt.shed_sink = [&](const flow::Packet& p, ShedReason) {
      sink_calls.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mu);
      shed_flows.insert(p.key);
    };

    ShardedInspector<core::Mfa> pipe(*m, opt);
    pipe.start();
    t.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
    pipe.finish();

    const ShardStats total = pipe.totals();
    EXPECT_EQ(total.submitted, t.packet_count()) << "seed " << seed;
    check_invariant(total, "totals");
    for (std::size_t i = 0; i < pipe.stats().size(); ++i)
      check_invariant(pipe.stats()[i], "shard");
    // The schedule guarantees at least the crashes and corruptions landed.
    EXPECT_GE(total.shed_corrupt, 1u) << "seed " << seed;
    EXPECT_GE(total.worker_restarts, 1u) << "seed " << seed;
    EXPECT_GT(total.shed_admission, 0u)
        << "seed " << seed << ": admission shedding never engaged";
    // Telemetry mirror agrees with the merged stats (nothing abandoned, so
    // every shed was mirrored).
    std::uint64_t mirrored_shed = 0;
    for (const auto& s : metrics.snapshot().shards) mirrored_shed += s.shed_total();
    EXPECT_EQ(mirrored_shed, total.shed_total()) << "seed " << seed;
    // shed_sink saw at least every distinctly-counted shed (crash bursts
    // may over-notify, never under-notify).
    EXPECT_GE(sink_calls.load(), total.shed_total()) << "seed " << seed;

    // Parity on undisturbed flows: exclude flows with any shed packet and
    // flows on shards that failed over. A restarted shard stays in: its
    // journal resets only the flows of the crashed burst, and every packet
    // of that burst reached the shed sink as kCrash. Crashes land on shards
    // chosen by thread timing, so excluding restarted shards could leave
    // no flow to compare.
    std::vector<bool> shard_disturbed(pipe.shard_count(), false);
    for (std::size_t i = 0; i < pipe.stats().size(); ++i)
      shard_disturbed[i] = pipe.stats()[i].shed_failover > 0;
    PerFlowMatches got;
    for (const FlowMatch& fm : pipe.flow_matches()) got[fm.key].push_back(fm.match);
    for (auto& [key, v] : got) std::sort(v.begin(), v.end());
    std::size_t compared = 0;
    for (const auto& [key, expected] : reference) {
      if (shed_flows.count(key) != 0) continue;
      if (shard_disturbed[pipe.shard_of(key)]) continue;
      const auto it = got.find(key);
      ASSERT_NE(it, got.end()) << "undisturbed flow lost its matches";
      EXPECT_EQ(it->second, expected) << "seed " << seed;
      ++compared;
    }
    // And no undisturbed flow may have grown matches out of nowhere.
    for (const auto& [key, v] : got) {
      if (shed_flows.count(key) != 0 || shard_disturbed[pipe.shard_of(key)])
        continue;
      EXPECT_NE(reference.find(key), reference.end())
          << "matches on a flow the reference never matched";
    }
    std::printf("soak seed %llu: %llu submitted, %llu scanned, %llu shed "
                "(%llu crash, %llu corrupt, %llu admission), %llu restarts, "
                "%zu/%zu flows compared\n",
                (unsigned long long)seed, (unsigned long long)total.submitted,
                (unsigned long long)total.scanned,
                (unsigned long long)total.shed_total(),
                (unsigned long long)total.shed_crash,
                (unsigned long long)total.shed_corrupt,
                (unsigned long long)total.shed_admission,
                (unsigned long long)total.worker_restarts, compared,
                reference.size());
    EXPECT_GT(compared, 0u)
        << "seed " << seed << ": soak excluded every flow — not a useful run";
  }
}

TEST_F(SoakTest, WatchdogRestartsCrashedWorkerAndRunContinues) {
  if (!util::faultpoints_enabled())
    GTEST_SKIP() << "fault points compiled out (Release build)";
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = make_soak_trace(31);
  util::FaultRegistry::instance().arm(
      "pipeline.worker.crash", {9, 1000000, /*after=*/0, /*max_fires=*/1, 0});

  Options opt;
  opt.shards = 2;
  opt.watchdog = true;
  opt.watchdog_interval_ms = 1;
  opt.max_worker_restarts = 3;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  t.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();

  const ShardStats total = pipe.totals();
  EXPECT_EQ(total.worker_restarts, 1u);
  EXPECT_GE(total.shed_crash, 1u);
  EXPECT_GT(total.scanned, 0u) << "the restarted worker must keep scanning";
  check_invariant(total, "totals");
}

TEST_F(SoakTest, RepeatCrasherFailsOverWithFullAccounting) {
  if (!util::faultpoints_enabled())
    GTEST_SKIP() << "fault points compiled out (Release build)";
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = make_soak_trace(37);
  // Every burst crashes: the single shard burns through its restart budget
  // and must fail over — all remaining traffic shed, none lost.
  util::FaultRegistry::instance().arm("pipeline.worker.crash",
                                      {5, 1000000, 0, ~std::uint64_t{0}, 0});
  Options opt;
  opt.shards = 1;
  opt.watchdog = true;
  opt.watchdog_interval_ms = 1;
  opt.max_worker_restarts = 2;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  t.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();

  const ShardStats total = pipe.totals();
  EXPECT_EQ(total.worker_restarts, 2u);
  EXPECT_EQ(total.scanned, 0u);
  EXPECT_GE(total.shed_failover, 1u) << "post-failover traffic must be shed";
  check_invariant(total, "totals");
  EXPECT_EQ(total.submitted, t.packet_count());
}

TEST_F(SoakTest, DropNewestShedsUnderOverloadAndAccountsExactly) {
  const auto m = core::build_mfa(compile_patterns({".*zzz9q"}));
  ASSERT_TRUE(m.has_value());
  // One slow shard: 16 KiB packets cost the worker far more than submit()
  // costs the producer, so the tiny queue must overflow its watermark.
  const std::string payload(16384, 'a');
  constexpr std::size_t kPackets = 1000;
  Options opt;
  opt.shards = 1;
  opt.queue_capacity = 64;
  opt.batch_size = 1;
  opt.shed_policy = ShedPolicy::kDropNewest;
  opt.shed_high_water = 32;
  opt.shed_low_water = 8;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  const flow::FlowKey key{1, 2, 3, 4, 6};
  std::uint64_t off = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    // Admitted packets advance the stream; shed ones are simply absent
    // upstream bytes (gaps), exactly like real drop-based shedding.
    pipe.submit(flow::Packet{key, off,
                             reinterpret_cast<const std::uint8_t*>(payload.data()),
                             static_cast<std::uint32_t>(payload.size())});
    off += payload.size();
  }
  pipe.finish();
  const ShardStats total = pipe.totals();
  EXPECT_EQ(total.submitted, kPackets);
  EXPECT_GT(total.shed_admission, 0u) << "overload never engaged shedding";
  EXPECT_GT(total.scanned, 0u);
  check_invariant(total, "totals");
}

TEST_F(SoakTest, HostileFlowQuarantinedWhileSiblingsKeepMatching) {
  const auto m = core::build_mfa(compile_patterns({".*needle77"}));
  ASSERT_TRUE(m.has_value());
  // One hostile flow pumps megabytes through the scanner; ten siblings send
  // one small matching packet each, interleaved. With a per-flow CPU budget
  // the hostile flow must be quarantined and the siblings must all match.
  // The bulk payload embeds the literal so the SIMD prefilter cannot skip
  // it — literal-free floods now cost next to nothing (DESIGN.md §13), so
  // the adversarial case for the budget is prefilter-resistant traffic.
  trace::Trace t("quarantine");
  const flow::FlowKey hostile{0xbad, 0xbad, 666, 666, 6};
  std::string bulk(8192, 'x');
  for (std::size_t p = 256; p + 8 < bulk.size(); p += 512)
    bulk.replace(p, 8, "needle77");
  std::uint64_t hoff = 0;
  int sibling = 0;
  for (int i = 0; i < 500; ++i) {
    t.add_packet(hostile, hoff, bulk);
    hoff += bulk.size();
    if (i % 50 == 25 && sibling < 10) {
      const flow::FlowKey key{10u + static_cast<std::uint32_t>(sibling), 20, 1000,
                              80, 6};
      t.add_packet(key, 0, "hello needle77 goodbye");
      ++sibling;
    }
  }
  ASSERT_EQ(sibling, 10);

  Options opt;
  opt.shards = 1;
  opt.collect_flow_matches = true;
  opt.flow_cpu_budget_ns = 1000000;  // 1 ms of scan CPU per flow
  ShardedInspector<core::Mfa> pipe(*m, opt);
  const auto t0 = std::chrono::steady_clock::now();
  pipe.start();
  t.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const ShardStats total = pipe.totals();
  EXPECT_GE(total.flows_quarantined, 1u) << "hostile flow evaded its budget";
  EXPECT_GT(total.shed_quarantine, 0u);
  check_invariant(total, "totals");
  std::size_t sibling_matches = 0;
  for (const FlowMatch& fm : pipe.flow_matches())
    if (!(fm.key == hostile)) ++sibling_matches;
  EXPECT_EQ(sibling_matches, 10u) << "sibling flows must be unaffected";
  std::printf("quarantine: %llu flows quarantined, %llu packets shed, "
              "%.1f MB scanned in %.3f s (%.0f MB/s)\n",
              (unsigned long long)total.flows_quarantined,
              (unsigned long long)total.shed_quarantine,
              static_cast<double>(total.bytes) / 1e6, secs,
              static_cast<double>(total.bytes) / 1e6 / (secs > 0 ? secs : 1));
}

TEST_F(SoakTest, FinishWithDeadlineReturnsTrueOnCleanRuns) {
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = make_soak_trace(41);
  Options opt;
  opt.shards = 2;
  opt.collect_matches = true;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  t.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  EXPECT_TRUE(pipe.finish(std::chrono::milliseconds(30000)));
  const ShardStats total = pipe.totals();
  EXPECT_EQ(total.scanned, t.packet_count());
  EXPECT_EQ(total.shed_total(), 0u);
  check_invariant(total, "totals");
}

TEST_F(SoakTest, FinishWithDeadlineNeverHangsOnStalledWorkers) {
  if (!util::faultpoints_enabled())
    GTEST_SKIP() << "fault points compiled out (Release build)";
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  // Both workers stall for 30 s on their first loop iteration; a 100 ms
  // deadline must still come back in well under a second per window.
  util::FaultRegistry::instance().arm(
      "pipeline.worker.stall",
      {3, 1000000, 0, /*max_fires=*/2, /*param=*/30000});
  Options opt;
  opt.shards = 2;
  opt.queue_capacity = 64;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  const std::string payload = "some bytes to leave in the queues";
  for (std::uint32_t i = 0; i < 32; ++i) {
    const flow::FlowKey key{i, 1, 2, 3, 6};
    pipe.submit(flow::Packet{key, 0,
                             reinterpret_cast<const std::uint8_t*>(payload.data()),
                             static_cast<std::uint32_t>(payload.size())});
  }
  const auto t0 = std::chrono::steady_clock::now();
  const bool clean = pipe.finish(std::chrono::milliseconds(100));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10)) << "finish(timeout) hung";
  EXPECT_FALSE(clean) << "a stalled shutdown must report itself";
  const ShardStats total = pipe.totals();
  EXPECT_EQ(total.submitted, 32u);
  check_invariant(total, "totals");
}

TEST_F(SoakTest, WatchdogFlagsStalledWorker) {
  if (!util::faultpoints_enabled())
    GTEST_SKIP() << "fault points compiled out (Release build)";
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  util::FaultRegistry::instance().arm(
      "pipeline.worker.stall", {4, 1000000, 0, /*max_fires=*/1, /*param=*/300});
  Options opt;
  opt.shards = 1;
  opt.watchdog = true;
  opt.watchdog_interval_ms = 1;
  opt.stall_timeout_ms = 30;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  pipe.finish();
  EXPECT_GE(pipe.totals().worker_stalls, 1u);
}

// Tiered-inspector soak under allocation faults: the hot-table growth path
// ("flow.table.alloc") and the reassembly buffering path
// ("flow.reassembly.alloc") both throw std::bad_alloc at a randomized rate
// while realistic traffic streams through a bare TieredFlowInspector. The
// contracts mirror the pipeline soak, at the inspector layer:
//  1. Exact accounting — every packet either scans or surfaces as exactly
//     one caught bad_alloc (scanned + dropped == total), and the inspector
//     object stays usable after every throw.
//  2. Parity on undisturbed flows — flows that never had a packet dropped
//     produce byte-identical matches to the oracle reference.
TEST_F(SoakTest, TieredInspectorSurvivesAllocFaultsWithExactAccounting) {
  if (!util::faultpoints_enabled())
    GTEST_SKIP() << "fault points compiled out (Release build)";
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = make_soak_trace(29);
  const PerFlowMatches reference = per_flow_reference(t);
  ASSERT_FALSE(reference.empty());
  // The table site is only reached on new-flow creation, so fire
  // deterministically on a run of creations mid-trace; the reassembly site
  // adds chaos whenever the trace actually buffers out-of-order bytes.
  util::FaultRegistry::instance().arm(
      "flow.table.alloc", {19, 1000000, /*after=*/50, /*max_fires=*/8, 0});
  util::FaultRegistry::instance().arm(
      "flow.reassembly.alloc", {23, 1000000, /*after=*/20, /*max_fires=*/8, 0});

  flow::TieredFlowInspector<core::Mfa> insp{*m};
  PerFlowMatches got;
  std::unordered_set<flow::FlowKey, flow::FlowKeyHash> disturbed;
  std::uint64_t scanned = 0, dropped = 0, total = 0;
  t.for_each_packet([&](const flow::Packet& p) {
    ++total;
    try {
      insp.packet(p, [&](std::uint32_t id, std::uint64_t end) {
        got[p.key].push_back(Match{id, end});
      });
      ++scanned;
    } catch (const std::bad_alloc&) {
      // The inspector guarantees the throw happens before any state for the
      // packet is committed: the flow just misses these bytes.
      ++dropped;
      disturbed.insert(p.key);
    }
  });
  EXPECT_EQ(scanned + dropped, total) << "alloc-fault accounting leaked";
  EXPECT_GT(dropped, 0u) << "fault schedule never fired — not a useful run";

  // A dropped packet leaves a hole in that flow's byte stream, so later
  // in-order bytes legitimately park in reassembly; only flows with no
  // drops owe the reference an exact answer.
  for (auto& [key, v] : got) std::sort(v.begin(), v.end());
  std::size_t compared = 0;
  for (const auto& [key, expected] : reference) {
    if (disturbed.count(key) != 0) continue;
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << "undisturbed flow lost its matches";
    EXPECT_EQ(it->second, expected);
    ++compared;
  }
  EXPECT_GT(compared, 0u) << "every flow disturbed — rates too hot to compare";

  // The inspector must still be fully alive once the faults disarm.
  util::FaultRegistry::instance().disarm_all();
  const std::string payload = "post-fault worm77 traffic";
  std::size_t post_matches = 0;
  insp.packet(flow::Packet{flow::FlowKey{9999, 1, 2, 3, 6}, 0,
                           reinterpret_cast<const std::uint8_t*>(payload.data()),
                           static_cast<std::uint32_t>(payload.size())},
              [&](std::uint32_t, std::uint64_t) { ++post_matches; });
  EXPECT_EQ(post_matches, 1u) << "inspector wedged after alloc faults";
  std::printf("tiered alloc soak: %llu scanned, %llu dropped, %zu flows "
              "disturbed, %zu/%zu compared clean\n",
              (unsigned long long)scanned, (unsigned long long)dropped,
              disturbed.size(), compared, reference.size());
}

// CI chaos-matrix leg: the seed and fault intensity come from the
// environment (MFA_SOAK_SEED, MFA_SOAK_FAULT_PPM) so one binary fans out
// across a randomized multi-seed matrix. Every recovery path is armed at
// once — a crash, stalls, corruption, queue pressure, alloc failures, and
// a synthetic overload spike that drives the degradation ladder — and the
// run gates only the two contracts that must hold under ANY schedule:
// exact accounting and a bounded finish(timeout). MFA_SOAK_TELEMETRY
// names a file that receives the run's mfa.telemetry.v1 snapshot so the
// workflow can artifact one per seed.
TEST_F(SoakTest, ChaosMatrixLegFromEnvironment) {
  if (!util::faultpoints_enabled())
    GTEST_SKIP() << "fault points compiled out (Release build)";
  std::uint64_t seed = 1;
  if (const char* e = std::getenv("MFA_SOAK_SEED"))
    seed = std::strtoull(e, nullptr, 10);
  std::uint32_t ppm = 120000;
  if (const char* e = std::getenv("MFA_SOAK_FAULT_PPM"))
    ppm = static_cast<std::uint32_t>(std::strtoul(e, nullptr, 10));
  // Above ~40% per-packet chaos nothing flows and the run proves nothing.
  ppm = std::min(ppm, 400000u);

  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = make_soak_trace(seed * 7919 + 101);

  auto& reg = util::FaultRegistry::instance();
  reg.arm("pipeline.worker.crash",
          {seed, 1000000, /*after=*/25, /*max_fires=*/1, 0});
  reg.arm("pipeline.packet.corrupt", {seed + 1, ppm / 8, 0, ~std::uint64_t{0}, 0});
  reg.arm("pipeline.queue.full", {seed + 2, ppm / 4, 0, ~std::uint64_t{0}, 0});
  reg.arm("pipeline.worker.stall",
          {seed + 3, ppm / 8, 0, /*max_fires=*/6, /*param=*/2});
  reg.arm("flow.table.alloc",
          {seed + 4, 1000000, /*after=*/300, /*max_fires=*/2, 0});
  reg.arm("flow.reassembly.alloc",
          {seed + 5, ppm / 8, 0, /*max_fires=*/4, 0});
  reg.arm("pipeline.overload.spike",
          {seed + 6, ppm, 0, ~std::uint64_t{0}, /*param=*/300});

  obs::MetricsRegistry metrics(3);
  std::atomic<std::uint64_t> sink_calls{0};
  Options opt;
  opt.shards = 3;
  opt.queue_capacity = 256;
  opt.batch_size = 16;
  opt.metrics = &metrics;
  opt.watchdog = true;
  opt.watchdog_interval_ms = 1;
  opt.stall_timeout_ms = 10;
  opt.max_worker_restarts = 3;
  opt.shed_policy = ShedPolicy::kDropNewest;
  opt.shed_sink = [&](const flow::Packet&, ShedReason) {
    sink_calls.fetch_add(1, std::memory_order_relaxed);
  };
  // Degradation live: the spike faultpoint forces controller pressure, so
  // the ladder gets walked regardless of how fast this runner really is.
  opt.slo.p99_ns = 5'000'000;
  opt.slo.max_shed_ratio = 0.05;
  opt.degrade.dwell_ms = 5;

  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  t.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  const auto t0 = std::chrono::steady_clock::now();
  const bool clean = pipe.finish(std::chrono::milliseconds(60000));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(clean) << "finish(timeout) hit its deadline — a worker wedged";
  EXPECT_LT(elapsed, std::chrono::seconds(60)) << "finish(timeout) hung";

  const ShardStats total = pipe.totals();
  EXPECT_EQ(total.submitted, t.packet_count()) << "seed " << seed;
  check_invariant(total, "totals");
  for (std::size_t i = 0; i < pipe.stats().size(); ++i)
    check_invariant(pipe.stats()[i], "shard");
  EXPECT_GT(total.scanned, 0u) << "chaos drowned all traffic; rates too hot";

  if (const char* path = std::getenv("MFA_SOAK_TELEMETRY")) {
    std::ofstream out(path);
    out << obs::to_json(metrics.snapshot()) << '\n';
    out.flush();
    ASSERT_TRUE(out.good()) << "failed to write telemetry artifact " << path;
  }
  std::printf(
      "chaos matrix leg: seed=%llu ppm=%u scanned=%llu shed=%llu "
      "restarts=%llu recovered=%llu degrade_transitions=%llu sink=%llu\n",
      (unsigned long long)seed, ppm, (unsigned long long)total.scanned,
      (unsigned long long)total.shed_total(),
      (unsigned long long)total.worker_restarts,
      (unsigned long long)total.flows_recovered,
      (unsigned long long)total.degrade_transitions,
      (unsigned long long)sink_calls.load());
}

}  // namespace
}  // namespace mfa::pipeline
