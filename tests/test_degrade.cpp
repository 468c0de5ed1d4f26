// Adaptive graceful degradation & crash-consistent recovery (DESIGN.md §14).
//
// Three layers under test:
//  1. DegradeController in isolation — PI stepping, one-rung-at-a-time,
//     dwell gating, hysteresis deadband, pinning, all on a fake clock.
//  2. The inspectors' ScanMode ladder rungs — L2 records prefilter hits
//     without advancing any automaton; L1 with sample_shift=0 degenerates
//     to an exact scan (every flow sampled).
//  3. The closed loop in the pipeline — real overload escalates the ladder
//     and the shard walks back to L0 once the load is gone; a worker crash
//     mid-burst restarts with the journal replayed, preserving parity with
//     the reassembly-then-NFA oracle (flow_oracle.h) for every flow the
//     crash did not touch (including flows on the restarted shard itself).
#include "pipeline/degrade.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "engine_test_util.h"
#include "flow/tiered.h"
#include "flow_oracle.h"
#include "mfa/mfa.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
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

trace::Trace make_trace(std::uint64_t seed) {
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

class DegradeTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultRegistry::instance().disarm_all(); }
  void TearDown() override { util::FaultRegistry::instance().disarm_all(); }
};

// --- 1. Controller unit tests (fake clock) --------------------------------

DegradeKnobs fast_knobs() {
  DegradeKnobs k;
  k.dwell_ms = 10;
  return k;
}

using Clock = DegradeController::Clock;

TEST_F(DegradeTest, ControllerEscalatesOneRungPerDwellPeriod) {
  DegradeController c({/*p99_ns=*/1000000, 0.05}, fast_knobs());
  Clock::time_point now = Clock::now();
  DegradeSignals hot;
  hot.queue_depth = 400;
  hot.batch_size = 16;
  hot.ns_per_packet = 50000.0;  // est 20.8 ms >> 1 ms SLO
  EXPECT_FALSE(c.update(hot, now)) << "first poll only primes the clock";
  EXPECT_EQ(c.level(), DegradeLevel::kL0Full);

  // Within the dwell window nothing may move, no matter the pressure.
  now += std::chrono::milliseconds(1);
  EXPECT_FALSE(c.update(hot, now));
  EXPECT_EQ(c.level(), DegradeLevel::kL0Full);

  // Each dwell expiry takes exactly one rung, never two.
  std::vector<DegradeLevel> seen;
  for (int step = 0; step < 6; ++step) {
    now += std::chrono::milliseconds(11);
    if (c.update(hot, now)) seen.push_back(c.level());
  }
  ASSERT_GE(seen.size(), 3u);
  EXPECT_EQ(seen[0], DegradeLevel::kL1Sampled);
  EXPECT_EQ(seen[1], DegradeLevel::kL2PrefilterOnly);
  EXPECT_EQ(seen[2], DegradeLevel::kL3Bypass);
  EXPECT_EQ(c.level(), DegradeLevel::kL3Bypass) << "L3 is the floor";
  now += std::chrono::milliseconds(11);
  EXPECT_FALSE(c.update(hot, now)) << "no rung below L3";
}

TEST_F(DegradeTest, ControllerDeescalatesWhenPressureClears) {
  DegradeController c({/*p99_ns=*/1000000, 0.05}, fast_knobs());
  Clock::time_point now = Clock::now();
  DegradeSignals hot;
  hot.queue_depth = 400;
  hot.batch_size = 16;
  hot.ns_per_packet = 50000.0;
  c.update(hot, now);  // prime
  for (int step = 0; step < 8; ++step) {
    now += std::chrono::milliseconds(11);
    c.update(hot, now);
  }
  ASSERT_EQ(c.level(), DegradeLevel::kL3Bypass);

  DegradeSignals idle;  // empty queue, cheap packets
  idle.queue_depth = 0;
  idle.batch_size = 16;
  idle.ns_per_packet = 100.0;
  std::vector<DegradeLevel> seen;
  for (int step = 0; step < 12; ++step) {
    now += std::chrono::milliseconds(11);
    if (c.update(idle, now)) seen.push_back(c.level());
  }
  ASSERT_GE(seen.size(), 3u);
  EXPECT_EQ(seen[0], DegradeLevel::kL2PrefilterOnly);
  EXPECT_EQ(seen[1], DegradeLevel::kL1Sampled);
  EXPECT_EQ(seen[2], DegradeLevel::kL0Full);
  EXPECT_EQ(c.level(), DegradeLevel::kL0Full);
}

TEST_F(DegradeTest, ControllerHoldsLevelInsideHysteresisBand) {
  DegradeController c({/*p99_ns=*/1000000, 0.05}, fast_knobs());
  Clock::time_point now = Clock::now();
  // Pressure pinned at exactly 1.0: err = 0, output = 0, inside the band.
  DegradeSignals at_slo;
  at_slo.queue_depth = 99;
  at_slo.batch_size = 1;
  at_slo.ns_per_packet = 10000.0;  // (99+1) * 10us = 1 ms = the SLO
  c.update(at_slo, now);
  for (int step = 0; step < 20; ++step) {
    now += std::chrono::milliseconds(11);
    EXPECT_FALSE(c.update(at_slo, now)) << "deadband must not flap";
  }
  EXPECT_EQ(c.level(), DegradeLevel::kL0Full);
}

TEST_F(DegradeTest, ControllerShedRatioSignalEscalatesAlone) {
  DegradeController c({/*p99_ns=*/1'000'000'000, 0.05}, fast_knobs());
  Clock::time_point now = Clock::now();
  DegradeSignals shedding;  // latency fine, but 40% of traffic is shed
  shedding.queue_depth = 0;
  shedding.batch_size = 1;
  shedding.ns_per_packet = 100.0;
  shedding.shed_ratio = 0.40;
  c.update(shedding, now);
  now += std::chrono::milliseconds(11);
  EXPECT_TRUE(c.update(shedding, now));
  EXPECT_EQ(c.level(), DegradeLevel::kL1Sampled);
}

TEST_F(DegradeTest, DisabledAndPinnedControllers) {
  DegradeController off;  // slo.p99_ns == 0
  EXPECT_FALSE(off.enabled());
  DegradeSignals hot;
  hot.queue_depth = 1000000;
  hot.batch_size = 1;
  hot.ns_per_packet = 1e9;
  Clock::time_point now = Clock::now();
  EXPECT_FALSE(off.update(hot, now));
  EXPECT_EQ(off.level(), DegradeLevel::kL0Full);

  DegradeKnobs pin = fast_knobs();
  pin.force_level = 2;
  DegradeController pinned({0, 0.05}, pin);
  EXPECT_TRUE(pinned.enabled());
  EXPECT_EQ(pinned.level(), DegradeLevel::kL2PrefilterOnly);
  EXPECT_FALSE(pinned.update(hot, now)) << "pinned ladder never moves";
  EXPECT_EQ(pinned.level(), DegradeLevel::kL2PrefilterOnly);
}

// --- 2. ScanMode ladder rungs in the inspector ----------------------------

TEST_F(DegradeTest, PrefilterOnlyModeRecordsHitsWithoutMatching) {
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  flow::TieredFlowInspector<core::Mfa> insp{*m};
  insp.set_scan_mode(flow::ScanMode::kPrefilterOnly);
  const std::string hit_payload = "xxxx worm77 yyyy";
  const std::string clean_payload(128, 'q');
  std::size_t matches = 0;
  const flow::FlowKey key{1, 2, 3, 4, 6};
  std::uint64_t off = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string& payload = i % 2 == 0 ? hit_payload : clean_payload;
    insp.packet(flow::Packet{key, off,
                             reinterpret_cast<const std::uint8_t*>(payload.data()),
                             static_cast<std::uint32_t>(payload.size())},
                [&](std::uint32_t, std::uint64_t) { ++matches; });
    off += payload.size();
  }
  EXPECT_EQ(matches, 0u) << "L2 must never advance the automaton to a match";
  EXPECT_GE(insp.degraded_hit_count(), 4u)
      << "every literal-bearing chunk must be recorded as a degraded hit";
}

TEST_F(DegradeTest, SampledModeWithShiftZeroIsExact) {
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = make_trace(77);
  const PerFlowMatches reference = per_flow_reference(t);
  ASSERT_FALSE(reference.empty());

  // sample_shift=0 -> mask 0 -> (hash & 0) == 0 for every flow: all flows
  // take the exact path, so L1 degenerates to L0 and parity must be exact.
  flow::TieredFlowInspector<core::Mfa> insp{*m};
  insp.set_scan_mode(flow::ScanMode::kSampled, /*sample_shift=*/0);
  PerFlowMatches got;
  t.for_each_packet([&](const flow::Packet& p) {
    insp.packet(p, [&](std::uint32_t id, std::uint64_t end) {
      got[p.key].push_back(Match{id, end});
    });
  });
  for (auto& [key, v] : got) std::sort(v.begin(), v.end());
  EXPECT_EQ(got.size(), reference.size());
  for (const auto& [key, expected] : reference) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end());
    EXPECT_EQ(it->second, expected);
  }
}

TEST_F(DegradeTest, ReturningToFullModeScansNewTrafficExactly) {
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  flow::TieredFlowInspector<core::Mfa> insp{*m};
  insp.set_scan_mode(flow::ScanMode::kPrefilterOnly);
  std::size_t matches = 0;
  const auto sink = [&](std::uint32_t, std::uint64_t) { ++matches; };
  const std::string payload = "zzzz worm77 zzzz";
  insp.packet(flow::Packet{flow::FlowKey{1, 1, 1, 1, 6}, 0,
                           reinterpret_cast<const std::uint8_t*>(payload.data()),
                           static_cast<std::uint32_t>(payload.size())},
              sink);
  EXPECT_EQ(matches, 0u);
  insp.set_scan_mode(flow::ScanMode::kFull);
  insp.packet(flow::Packet{flow::FlowKey{2, 2, 2, 2, 6}, 0,
                           reinterpret_cast<const std::uint8_t*>(payload.data()),
                           static_cast<std::uint32_t>(payload.size())},
              sink);
  EXPECT_EQ(matches, 1u) << "a fresh flow after L0 restore must match";
}

// --- 3. Closed loop in the pipeline ---------------------------------------

// Real overload (no fault injection, works in Release too): expensive
// payloads against a tiny queue force sustained depth, the controller must
// escalate; once the producer stops, idle polls must walk the shard back
// to L0 with no residual shedding pressure.
TEST_F(DegradeTest, OverloadEscalatesLadderAndRecoversToL0) {
  const auto m = core::build_mfa(compile_patterns({".*zzz9q"}));
  ASSERT_TRUE(m.has_value());
  const std::string payload(16384, 'a');

  // Calibrate the SLO to this machine: one packet's scan cost, sequentially.
  double ns_per_packet;
  {
    flow::TieredFlowInspector<core::Mfa> probe{*m};
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < 64; ++i)
      probe.packet(flow::Packet{flow::FlowKey{i, 0, 1, 2, 6}, 0,
                                reinterpret_cast<const std::uint8_t*>(payload.data()),
                                static_cast<std::uint32_t>(payload.size())},
                   [](std::uint32_t, std::uint64_t) {});
    ns_per_packet = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count() /
                    64.0;
  }

  obs::MetricsRegistry metrics(1);
  Options opt;
  opt.shards = 1;
  opt.queue_capacity = 64;
  opt.batch_size = 1;
  opt.metrics = &metrics;
  // SLO: ~6 packets of queueing. A full 64-deep queue sits ~10x over it;
  // an empty queue sits ~6x under it — clear signal on both sides.
  opt.slo.p99_ns = static_cast<std::uint64_t>(ns_per_packet * 6.0) + 1;
  opt.degrade.dwell_ms = 5;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  const flow::FlowKey key{1, 2, 3, 4, 6};
  std::uint64_t off = 0;
  // Sustain the overload for a wall-clock window of many dwell periods, not
  // a fixed packet count: on a fast scan a few thousand packets drain in
  // less than one dwell, and the controller may not move before then.
  const auto load_end = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(40 * opt.degrade.dwell_ms);
  for (std::size_t i = 0; i < 3000 || std::chrono::steady_clock::now() < load_end;
       ++i) {
    pipe.submit(flow::Packet{key, off,
                             reinterpret_cast<const std::uint8_t*>(payload.data()),
                             static_cast<std::uint32_t>(payload.size())});
    off += payload.size();
  }
  // Load gone: wait (bounded) for the shard to de-escalate back to L0.
  std::uint64_t live_level = ~std::uint64_t{0};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    live_level = 0;
    for (const auto& s : metrics.snapshot().shards)
      live_level = std::max(live_level, s.degrade_level);
    if (live_level == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pipe.finish();

  const ShardStats total = pipe.totals();
  check_invariant(total, "totals");
  EXPECT_GE(total.degrade_transitions, 2u)
      << "overload must escalate and recovery must de-escalate";
  EXPECT_EQ(live_level, 0u) << "shard stuck degraded after load removal";
  EXPECT_EQ(total.degrade_level, 0u);
  // The escalation is visible in the trace ring as transition events.
  bool saw_escalation = false;
  for (const auto& e : metrics.snapshot().trace_events)
    if (e.match_id == obs::kDegradeTransitionEventId && e.offset >= 1)
      saw_escalation = true;
  EXPECT_TRUE(saw_escalation) << "no degrade_transition trace event recorded";
  std::printf("overload ladder: %llu transitions, final level %llu, "
              "%llu scanned, %llu bypass-shed\n",
              (unsigned long long)total.degrade_transitions,
              (unsigned long long)total.degrade_level,
              (unsigned long long)total.scanned,
              (unsigned long long)total.shed_bypass);
}

// L3 is the ladder's count-and-bypass rung: pinned there, every submitted
// packet is counted as a kBypass shed, with its payload bytes in
// shed_bytes, and none is scanned. Bypass is the ladder's own action, so /healthz must not read
// it as shedding: the shed ratio stays 0 and the verdict stays ok. Each
// shard keeps one counter record, so its registry slot and stats() agree
// on every counter — including `packets`, which at L3 is 0 in both: the
// flow inspector is handed nothing.
TEST_F(DegradeTest, PinnedL3BypassCountsEveryPacketWithoutScanning) {
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = make_trace(61);
  ASSERT_FALSE(per_flow_reference(t).empty()) << "trace must carry matches";
  std::uint64_t payload_bytes = 0;
  t.for_each_packet([&](const flow::Packet& p) { payload_bytes += p.length; });

  obs::MetricsRegistry registry(2);
  Options opt;
  opt.shards = 2;
  opt.batch_size = 1;  // every submit reaches its worker; none waits in a buffer
  opt.metrics = &registry;
  opt.degrade.force_level = 3;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  t.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  // Read the verdict while still pinned, once every packet has been shed.
  const auto all_shed = [&] {
    return registry.snapshot().totals().shed_total() >= t.packet_count();
  };
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!all_shed() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const obs::HttpServer::Health health = pipe.health();
  pipe.finish();

  const ShardStats total = pipe.totals();
  check_invariant(total, "totals");
  EXPECT_EQ(total.submitted, t.packet_count());
  EXPECT_EQ(total.scanned, 0u);
  EXPECT_EQ(total.matches, 0u);
  EXPECT_EQ(total.shed_bypass, total.submitted);
  EXPECT_EQ(total.shed_bytes, payload_bytes);
  EXPECT_EQ(total.degrade_level, 3u);
  EXPECT_EQ(total.packets, 0u);
  EXPECT_EQ(total.bytes, 0u);
  const obs::RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(pipe.stats().size(), snap.shards.size());
  for (std::size_t i = 0; i < snap.shards.size(); ++i) {
    const obs::ShardSnapshot& reg = snap.shards[i];
    const ShardStats& st = pipe.stats()[i];
    int field = 0;  // position in ShardMetrics::for_each_field
    obs::ShardMetrics::for_each_field([&](auto, auto f) {
      EXPECT_EQ(reg.*f, st.*f) << "shard " << i << ", field #" << field;
      ++field;
    });
  }
  EXPECT_TRUE(health.ok) << health.body;
  EXPECT_EQ(health.body.rfind("{\"ok\":true,", 0), 0u) << health.body;
  EXPECT_NE(health.body.find("\"shed_ratio\":{\"value\":0.000000,"),
            std::string::npos)
      << health.body;
}

// Regression: an idle shard used to keep the last per-packet scan cost it
// measured, so one expensive packet under an SLO below that cost pinned the
// latency forecast over the SLO — the ladder escalated and never came back.
// Idle polls must decay the estimate until the shard returns to L0.
TEST_F(DegradeTest, IdleShardForgetsItsLastExpensiveBurst) {
  const auto m = core::build_mfa(compile_patterns({".*zzz9q"}));
  ASSERT_TRUE(m.has_value());
  const std::string payload(65536, 'a');
  const auto make = [&](std::uint32_t src) {
    return flow::Packet{flow::FlowKey{src, 0, 1, 2, 6}, 0,
                        reinterpret_cast<const std::uint8_t*>(payload.data()),
                        static_cast<std::uint32_t>(payload.size())};
  };
  // Calibrate one large packet's scan cost on this machine.
  double ns_per_packet;
  {
    flow::TieredFlowInspector<core::Mfa> probe{*m};
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < 16; ++i)
      probe.packet(make(i), [](std::uint32_t, std::uint64_t) {});
    ns_per_packet =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
            .count() /
        16.0;
  }

  obs::MetricsRegistry metrics(1);
  Options opt;
  opt.shards = 1;
  opt.batch_size = 1;
  opt.metrics = &metrics;
  // Below one packet's cost: the burst alone forecasts an SLO breach.
  opt.slo.p99_ns = static_cast<std::uint64_t>(ns_per_packet / 4.0) + 1;
  opt.degrade.dwell_ms = 5;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  pipe.submit(make(1));  // batch_size 1: handed to the worker at once
  const auto level = [&] { return metrics.snapshot().shards.at(0).degrade_level; };
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (metrics.snapshot().shards.at(0).packets < 1 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Idle for many dwell periods: a stale forecast would have walked the
  // ladder up by now and kept it there.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (level() != 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(level(), 0u) << "idle shard stuck degraded after one expensive burst";
  pipe.finish();
  check_invariant(pipe.totals(), "totals");
}

// Deterministic ladder walk via the injected overload spike (Debug only):
// the spike site forces pressure 4.0 regardless of real load, so the ladder
// must reach L3 and, once the fault schedule runs dry, return to L0.
TEST_F(DegradeTest, InjectedOverloadSpikeWalksLadderDeterministically) {
  if (!util::faultpoints_enabled())
    GTEST_SKIP() << "fault points compiled out (Release build)";
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  // Fire on every controller poll for a while, then stop.
  util::FaultRegistry::instance().arm(
      "pipeline.overload.spike",
      {7, 1000000, /*after=*/0, /*max_fires=*/4000, /*param=*/400});

  obs::MetricsRegistry metrics(1);
  Options opt;
  opt.shards = 1;
  opt.metrics = &metrics;
  opt.slo.p99_ns = 1'000'000'000;  // real load can never trip this
  opt.degrade.dwell_ms = 2;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  // Reach L3 on spike pressure alone (idle polls drive the controller).
  std::uint64_t peak = 0;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const auto& s : metrics.snapshot().shards)
      peak = std::max(peak, s.degrade_level);
    if (peak == 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(peak, 3u) << "spike pressure must walk the ladder to L3";
  // Fault schedule exhausted (max_fires): pressure drops to ~0, back to L0.
  util::FaultRegistry::instance().disarm("pipeline.overload.spike");
  std::uint64_t level = ~std::uint64_t{0};
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    level = 0;
    for (const auto& s : metrics.snapshot().shards)
      level = std::max(level, s.degrade_level);
    if (level == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(level, 0u);
  pipe.finish();
  check_invariant(pipe.totals(), "totals");
  EXPECT_GE(pipe.totals().degrade_transitions, 6u) << "3 up + 3 down";
}

// Crash consistency: kill a worker mid-burst; the watchdog restart must
// replay the shard journal — resetting exactly the flows of the open burst
// (counted flows_recovered) and keeping every other flow's context — so
// per-flow parity holds ON THE RESTARTED SHARD for all unshed flows, and
// the accounting invariant stays exact.
TEST_F(DegradeTest, CrashRecoveryPreservesParityOnRestartedShard) {
  if (!util::faultpoints_enabled())
    GTEST_SKIP() << "fault points compiled out (Release build)";
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = make_trace(53);
  const PerFlowMatches reference = per_flow_reference(t);
  util::FaultRegistry::instance().arm(
      "pipeline.worker.crash", {13, 1000000, /*after=*/40, /*max_fires=*/1, 0});

  std::mutex mu;
  std::unordered_set<flow::FlowKey, flow::FlowKeyHash> shed_flows;
  Options opt;
  opt.shards = 2;
  opt.batch_size = 16;
  opt.collect_flow_matches = true;
  opt.watchdog = true;
  opt.watchdog_interval_ms = 1;
  opt.max_worker_restarts = 3;
  opt.shed_sink = [&](const flow::Packet& p, ShedReason) {
    std::lock_guard<std::mutex> lock(mu);
    shed_flows.insert(p.key);
  };
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  t.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();

  const ShardStats total = pipe.totals();
  EXPECT_EQ(total.submitted, t.packet_count());
  check_invariant(total, "totals");
  for (const auto& s : pipe.stats()) check_invariant(s, "shard");
  ASSERT_EQ(total.worker_restarts, 1u) << "the crash must trigger a restart";
  EXPECT_GE(total.flows_recovered, 1u)
      << "an open journal at crash time must reset at least one flow";
  EXPECT_GE(total.shed_crash, 1u);

  // Parity including the restarted shard: the journal reset only flows of
  // the crashed burst, and those flows are exactly the crash-shed ones the
  // sink collected. Everything else must match the oracle reference —
  // a restart may no longer wipe undisturbed flows' contexts.
  bool shard_restarted = false;
  std::vector<bool> shard_failed(pipe.shard_count(), false);
  for (std::size_t i = 0; i < pipe.stats().size(); ++i) {
    shard_restarted |= pipe.stats()[i].worker_restarts > 0;
    shard_failed[i] = pipe.stats()[i].shed_failover > 0;
  }
  ASSERT_TRUE(shard_restarted);
  PerFlowMatches got;
  for (const FlowMatch& fm : pipe.flow_matches()) got[fm.key].push_back(fm.match);
  for (auto& [key, v] : got) std::sort(v.begin(), v.end());
  std::size_t compared = 0;
  for (const auto& [key, expected] : reference) {
    if (shed_flows.count(key) != 0) continue;
    if (shard_failed[pipe.shard_of(key)]) continue;
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << "flow untouched by the crash lost its matches";
    EXPECT_EQ(it->second, expected);
    ++compared;
  }
  EXPECT_GT(compared, 0u) << "crash shed every flow — not a useful run";
  std::printf("crash recovery: %llu flows recovered, %llu crash-shed, "
              "%zu/%zu flows byte-identical across the restart\n",
              (unsigned long long)total.flows_recovered,
              (unsigned long long)total.shed_crash, compared, reference.size());
}

// Satellite: one bursty /healthz poll must not flap the verdict. The first
// poll primes the EWMA while the pipeline is clean; a shed burst right
// after may not flip the very next poll (dt is tiny, so the smoothed
// signal barely moves), even though the instantaneous ratio is sky-high.
TEST_F(DegradeTest, HealthVerdictSmoothedAcrossBurstyPolls) {
  const auto m = core::build_mfa(compile_patterns({".*zzz9q"}));
  ASSERT_TRUE(m.has_value());
  const std::string payload(16384, 'c');
  Options opt;
  opt.shards = 1;
  opt.queue_capacity = 64;
  opt.batch_size = 1;
  opt.shed_policy = ShedPolicy::kDropNewest;
  opt.shed_high_water = 8;
  opt.shed_low_water = 2;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  // Clean baseline primes the smoothing at ~0.
  const obs::HttpServer::Health baseline = pipe.health();
  EXPECT_TRUE(baseline.ok);
  EXPECT_NE(baseline.body.find("\"degrade_level\":0"), std::string::npos)
      << baseline.body;
  // Overload burst: the instantaneous shed ratio blows past the 5% limit.
  const flow::FlowKey key{5, 6, 7, 8, 6};
  for (std::size_t i = 0; i < 600; ++i)
    pipe.submit(flow::Packet{key, i * payload.size(),
                             reinterpret_cast<const std::uint8_t*>(payload.data()),
                             static_cast<std::uint32_t>(payload.size())});
  const obs::HttpServer::Health during = pipe.health();
  EXPECT_TRUE(during.ok)
      << "one bursty poll flipped the verdict despite EWMA smoothing: "
      << during.body;
  pipe.finish();
  const ShardStats total = pipe.totals();
  EXPECT_GT(total.shed_admission, 0u) << "overload never engaged shedding";
  check_invariant(total, "totals");
}

// The /healthz shed ratio is shed / submitted. Quarantine sheds happen
// after the worker pops a packet, so a popped-based denominator counts them
// twice: with every flow quarantined it reads ~0.5 instead of ~1.
TEST_F(DegradeTest, HealthShedRatioCountsPostDequeueShedsOnce) {
  const auto m = core::build_mfa(compile_patterns(kPatterns));
  ASSERT_TRUE(m.has_value());
  const std::string payload(512, 'c');
  obs::MetricsRegistry registry(1);
  Options opt;
  opt.shards = 1;
  opt.batch_size = 1;
  opt.metrics = &registry;
  opt.flow_cpu_budget_ns = 1;  // any scan work quarantines the flow
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  constexpr std::uint64_t kPackets = 8 * 16;
  for (std::uint32_t f = 0; f < 8; ++f)
    for (std::uint64_t i = 0; i < 16; ++i)
      pipe.submit(flow::Packet{flow::FlowKey{f, 1, 2, 3, 6}, i * payload.size(),
                               reinterpret_cast<const std::uint8_t*>(payload.data()),
                               static_cast<std::uint32_t>(payload.size())});
  // Wait until the worker has delivered every packet, then until it is back
  // at its loop head (where it adopts a staged ruleset): by then its last
  // burst's accounting is published.
  while (registry.snapshot().totals().packets < kPackets) std::this_thread::yield();
  pipe.swap_ruleset(std::make_shared<const core::Mfa>(*m), 1);
  while (pipe.adopted_generation() < 1) std::this_thread::yield();
  // The first poll primes the EWMA with the raw ratio.
  const std::string body = pipe.health().body;
  pipe.finish();
  const ShardStats total = pipe.totals();
  check_invariant(total, "totals");
  ASSERT_EQ(total.submitted, kPackets);
  ASSERT_GT(total.shed_quarantine, 0u) << "the budget never quarantined a flow";
  const std::string tag = "\"shed_ratio\":{\"value\":";
  const std::size_t at = body.find(tag);
  ASSERT_NE(at, std::string::npos) << body;
  const double reported = std::strtod(body.c_str() + at + tag.size(), nullptr);
  const double expected = static_cast<double>(total.shed_total()) /
                          static_cast<double>(total.submitted);
  EXPECT_NEAR(reported, expected, 1e-5) << body;
}

}  // namespace
}  // namespace mfa::pipeline
