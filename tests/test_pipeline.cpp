// Sharded pipeline: SPSC queue unit behaviour, and the correctness contract
// of ShardedInspector — any shard count must produce exactly the
// reassembly-then-NFA oracle's matches, because flows are pinned to shards
// by hash.
#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine_test_util.h"
#include "flow_oracle.h"
#include "mfa/mfa.h"
#include "pipeline/spsc_queue.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace mfa::pipeline {
namespace {

using mfa::testing::compile_patterns;

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(4096).capacity(), 4096u);
  EXPECT_EQ(SpscQueue<int>(5000).capacity(), 8192u);
}

TEST(SpscQueue, FifoOrderSingleThread) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full
  EXPECT_EQ(q.depth(), 8u);
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));  // empty
  EXPECT_EQ(q.depth(), 0u);
}

TEST(SpscQueue, WrapsAroundManyTimes) {
  SpscQueue<int> q(4);
  int v = -1;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.try_push(i));
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
}

TEST(SpscQueue, CloseWakesBurstPoppingConsumerAndDeliversEverything) {
  // A consumer that spins on try_pop and only exits once the queue is both
  // empty AND closed must terminate without losing any element, even though
  // close() races with its final empty-check.
  SpscQueue<int> q(32);
  constexpr int kCount = 1000;
  std::atomic<int> got{0};
  std::thread consumer([&] {
    int v = -1;
    for (;;) {
      bool popped = false;
      while (q.try_pop(v)) {  // burst-drain whatever is visible
        got.fetch_add(1, std::memory_order_relaxed);
        popped = true;
      }
      if (popped) continue;
      if (q.closed()) {
        // close() happens after the final push, so one last drain pass
        // observes everything published before the close.
        while (q.try_pop(v)) got.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < kCount; ++i)
    while (!q.try_push(i)) std::this_thread::yield();
  q.close();
  consumer.join();  // must not hang
  EXPECT_EQ(got.load(), kCount);
  EXPECT_TRUE(q.closed());
  q.reopen();
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.try_push(7));
}

TEST(SpscQueue, TwoThreadHandoffDeliversEverything) {
  SpscQueue<std::uint64_t> q(64);
  constexpr std::uint64_t kCount = 200000;
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t v = 0, got = 0;
    while (got < kCount) {
      if (q.try_pop(v)) {
        sum += v;
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 1; i <= kCount; ++i)
    while (!q.try_push(i)) std::this_thread::yield();
  consumer.join();
  EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

// --- ShardedInspector vs the oracle ---

struct Fixture {
  core::Mfa mfa;
  trace::Trace trace;
  MatchVec reference;  // sorted oracle matches over the whole trace
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

Fixture make_fixture() {
  Fixture f;
  const auto inputs = compile_patterns({".*atk1.*vec2", ".*worm77", ".*sig[0-9]end"});
  auto m = core::build_mfa(inputs);
  EXPECT_TRUE(m.has_value());
  f.mfa = *std::move(m);
  f.trace = trace::make_real_life(trace::RealLifeProfile::kCyberDefense, 200000, 77,
                                  {"atk1 and vec2", "worm77", "sig5end"});
  mfa::testing::FlowOracle oracle;
  f.trace.for_each_packet([&](const flow::Packet& p) {
    ++f.packets;
    f.bytes += p.length;
    oracle.packet(p);
  });
  f.reference = mfa::testing::unattributed(oracle.matches(nfa::build_nfa(inputs)));
  return f;
}

TEST(ShardedInspector, MatchesSequentialAtEveryShardCount) {
  const Fixture f = make_fixture();
  ASSERT_FALSE(f.reference.empty());
  for (const std::size_t shards : {1u, 2u, 4u}) {
    Options opt;
    opt.shards = shards;
    opt.collect_matches = true;
    ShardedInspector<core::Mfa> pipe(f.mfa, opt);
    pipe.start();
    f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
    pipe.finish();
    EXPECT_EQ(pipe.merged_matches(), f.reference) << shards << " shards";
    EXPECT_EQ(pipe.totals().matches, f.reference.size()) << shards << " shards";
  }
}

TEST(ShardedInspector, PerShardStatsSumToTraceTotals) {
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 4;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  ASSERT_EQ(pipe.stats().size(), 4u);
  const ShardStats t = pipe.totals();
  EXPECT_EQ(t.packets, f.packets);
  EXPECT_EQ(t.bytes, f.bytes);
  EXPECT_EQ(t.matches, f.reference.size());
  // Hashing must actually spread this many flows over 4 shards.
  std::size_t active = 0;
  for (const auto& s : pipe.stats()) active += s.packets > 0 ? 1 : 0;
  EXPECT_GT(active, 1u);
  EXPECT_LE(t.max_queue_depth, 4096u);
}

TEST(ShardedInspector, PacketsLandOnTheirHashedShard) {
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 4;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  // Predict each shard's packet count from the dispatch hash alone.
  std::vector<std::uint64_t> expect(4, 0);
  f.trace.for_each_packet(
      [&](const flow::Packet& p) { ++expect[pipe.shard_of(p.key)]; });
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(pipe.stats()[i].packets, expect[i]) << "shard " << i;
}

TEST(ShardedInspector, FlowCapEvictsPerShard) {
  auto m = core::build_mfa(compile_patterns({".*needle"}));
  ASSERT_TRUE(m.has_value());
  Options opt;
  opt.shards = 2;
  opt.max_flows_per_shard = 8;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  const std::string payload = "a needle here";
  for (std::uint32_t i = 0; i < 100; ++i) {
    flow::Packet p{flow::FlowKey{i, 1, 2, 3, 6}, 0,
                   reinterpret_cast<const std::uint8_t*>(payload.data()),
                   static_cast<std::uint32_t>(payload.size())};
    pipe.submit(p);
  }
  pipe.finish();
  const ShardStats t = pipe.totals();
  EXPECT_EQ(t.matches, 100u);  // eviction never loses in-flight single packets
  EXPECT_LE(t.flows, 16u);     // 8 per shard
  EXPECT_EQ(t.flows + t.evictions, 100u);
}

TEST(ShardedInspector, TinyQueueStillDeliversEverything) {
  // Queue capacity far below the packet count forces submit() backpressure.
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 2;
  opt.queue_capacity = 4;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  EXPECT_EQ(pipe.totals().packets, f.packets);
  EXPECT_EQ(pipe.totals().matches, f.reference.size());
  EXPECT_LE(pipe.totals().max_queue_depth, 4u);
}

TEST(ShardedInspector, LiveSnapshotWhileScanning) {
  // The acceptance scenario from DESIGN.md Sec. 8: with workers actively
  // scanning, snapshot() must return non-zero, internally consistent
  // counters, and after finish() each registry slot is its shard's stats().
  const Fixture f = make_fixture();
  obs::MetricsRegistry registry(
      {.shards = 4, .match_id_capacity = 64, .trace_capacity = 256});
  Options opt;
  opt.shards = 4;
  opt.metrics = &registry;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  EXPECT_TRUE(pipe.telemetry_enabled());
  pipe.start();

  std::vector<flow::Packet> packets;
  f.trace.for_each_packet([&](const flow::Packet& p) { packets.push_back(p); });
  const std::size_t half = packets.size() / 2;
  for (std::size_t i = 0; i < half; ++i) pipe.submit(packets[i]);

  // Poll mid-run until the workers have visibly progressed. Counters are
  // monotonic, so every observed value is a lower bound on the final one.
  obs::RegistrySnapshot mid = pipe.snapshot();
  while (mid.totals().packets == 0) {
    std::this_thread::yield();
    mid = pipe.snapshot();
  }
  for (const obs::ShardSnapshot& s : mid.shards) {
    // The inspector publishes packets after scan_ns records, and the
    // snapshot reads packets first, so packets never leads scan_ns.count.
    EXPECT_LE(s.packets, s.scan_ns.count + 1);
    EXPECT_LE(s.packets, f.packets);
    EXPECT_LE(s.bytes, f.bytes);
    EXPECT_GE(s.packet_bytes.count, s.scan_ns.count);
  }
  EXPECT_LE(mid.totals().matches, f.reference.size());

  for (std::size_t i = half; i < packets.size(); ++i) pipe.submit(packets[i]);
  const obs::RegistrySnapshot later = pipe.snapshot();
  EXPECT_GE(later.totals().packets, mid.totals().packets);  // monotone
  pipe.finish();

  const obs::RegistrySnapshot fin = pipe.snapshot();
  const obs::ShardSnapshot t = fin.totals();
  EXPECT_EQ(t.packets, f.packets);
  EXPECT_EQ(t.bytes, f.bytes);
  EXPECT_EQ(t.matches, f.reference.size());
  EXPECT_EQ(t.scan_ns.count, f.packets);
  EXPECT_EQ(t.packet_bytes.sum, f.bytes);
  std::uint64_t hits = 0;
  for (const auto& [id, count] : fin.match_counts) hits += count;
  EXPECT_EQ(hits + fin.match_id_overflow, f.reference.size());
  EXPECT_EQ(fin.trace_recorded, f.reference.size());

  // Shard i of the pipeline keeps its counter record in registry slot i,
  // so the two reads agree exactly per shard.
  ASSERT_EQ(pipe.stats().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const ShardStats& st = pipe.stats()[i];
    const obs::ShardSnapshot& s = fin.shards[i];
    EXPECT_EQ(s.packets, st.packets) << "shard " << i;
    EXPECT_EQ(s.bytes, st.bytes) << "shard " << i;
    EXPECT_EQ(s.matches, st.matches) << "shard " << i;
    EXPECT_EQ(s.flows, st.flows) << "shard " << i;
    EXPECT_EQ(s.evictions, st.evictions) << "shard " << i;
    EXPECT_EQ(s.reassembly_drops, st.reassembly_drops) << "shard " << i;
    EXPECT_EQ(s.queue_full_spins, st.queue_full_spins) << "shard " << i;
  }
}

// Shard i keeps its counter record in registry slot i, so a registry with
// fewer slots than shards is a configuration error, not shared slots.
TEST(ShardedInspector, RegistryNeedsASlotPerShard) {
  const Fixture f = make_fixture();
  obs::MetricsRegistry registry(2);
  Options opt;
  opt.shards = 3;
  opt.metrics = &registry;
  EXPECT_THROW(ShardedInspector<core::Mfa>(f.mfa, opt), std::invalid_argument);
  opt.shards = 2;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  EXPECT_EQ(pipe.totals().packets, f.packets);
  EXPECT_EQ(registry.snapshot().totals().packets, f.packets);
}

TEST(ShardedInspector, BackpressureSpinsCounted) {
  // A queue far smaller than the packet count forces the producer to spin;
  // those spins must surface both in ShardStats and in the registry.
  const Fixture f = make_fixture();
  obs::MetricsRegistry registry(2);
  Options opt;
  opt.shards = 2;
  opt.queue_capacity = 4;
  opt.metrics = &registry;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  const ShardStats t = pipe.totals();
  EXPECT_EQ(t.packets, f.packets);
  EXPECT_GT(t.queue_full_spins, 0u);
  const obs::ShardSnapshot reg = pipe.snapshot().totals();
  EXPECT_EQ(reg.queue_full_spins, t.queue_full_spins);
  EXPECT_EQ(reg.max_queue_depth, t.max_queue_depth);
  EXPECT_EQ(reg.queue_depth.count, f.packets);  // sampled at every submit
}

TEST(ShardedInspector, RestartAfterFinishStartsClean) {
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 2;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  for (int round = 0; round < 2; ++round) {
    pipe.start();
    f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
    pipe.finish();
    EXPECT_EQ(pipe.totals().packets, f.packets) << "round " << round;
    EXPECT_EQ(pipe.totals().matches, f.reference.size()) << "round " << round;
  }
}

/// Sum of every sample of a Prometheus metric family (all label sets).
double prom_sum(const std::string& text, const std::string& name) {
  double sum = 0.0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind(name, 0) != 0 || line.size() <= name.size()) continue;
    const char next = line[name.size()];
    if (next != ' ' && next != '{') continue;
    sum += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return sum;
}

// start() zeroes every per-run counter on the registry, not only the shard
// blocks: after each of two runs the per-id and per-generation match
// counts sum to that run's matches, as the exporters show them.
TEST(ShardedInspector, RestartOnOneRegistryKeepsMatchTablesPerRun) {
  const Fixture f = make_fixture();
  ASSERT_FALSE(f.reference.empty());
  obs::MetricsRegistry registry({.shards = 2, .match_id_capacity = 16});
  Options opt;
  opt.shards = 2;
  opt.metrics = &registry;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  // Published before start(): every flow scans under generation 1, so the
  // generation table is live in both runs.
  pipe.swap_ruleset(std::make_shared<const core::Mfa>(f.mfa), 1);
  obs::RegistrySnapshot folded;
  std::uint64_t scan_samples = 0;
  for (int round = 0; round < 2; ++round) {
    pipe.start();
    f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
    pipe.finish();
    const obs::RegistrySnapshot snap = registry.snapshot();
    const std::string prom = obs::to_prometheus(snap);
    const double matches = static_cast<double>(f.reference.size());
    EXPECT_EQ(prom_sum(prom, "mfa_matches_total"), matches) << "round " << round;
    EXPECT_EQ(prom_sum(prom, "mfa_match_hits_total") +
                  prom_sum(prom, "mfa_match_id_overflow_total"),
              matches)
        << "round " << round;
    std::uint64_t by_generation = snap.generation_match_overflow;
    for (const auto& [generation, n] : snap.generation_matches)
      by_generation += n;
    EXPECT_EQ(by_generation, f.reference.size()) << "round " << round;
    scan_samples += snap.totals().scan_ns.count;
    folded.add_run(snap);
  }
  // Folding both runs' snapshots gives two-run totals; gauges keep the
  // later run's value.
  EXPECT_EQ(folded.totals().matches, 2 * f.reference.size());
  EXPECT_EQ(folded.totals().packets, 2 * f.packets);
  std::uint64_t hits = folded.match_id_overflow;
  for (const auto& [id, n] : folded.match_counts) hits += n;
  EXPECT_EQ(hits, 2 * f.reference.size());
  ASSERT_EQ(folded.generation_matches.size(), 1u);
  EXPECT_EQ(folded.generation_matches[0].first, 1u);
  EXPECT_EQ(folded.generation_matches[0].second, 2 * f.reference.size());
  EXPECT_EQ(folded.totals().flows, pipe.totals().flows);
  EXPECT_EQ(folded.totals().scan_ns.count, scan_samples);
}

// A worker abandoned by a bounded finish() may still write its registry
// slot and the match tables, so start() refuses that registry instead of
// sharing a record with it.
TEST(ShardedInspector, StartRefusesARegistryWithAnAbandonedWriter) {
  const Fixture f = make_fixture();
  obs::MetricsRegistry registry(2);
  Options opt;
  opt.shards = 2;
  opt.metrics = &registry;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  pipe.start();
  pipe.finish();
  registry.note_abandoned_writer();
  EXPECT_THROW(pipe.start(), std::logic_error);
  const flow::Packet p{flow::FlowKey{1, 2, 3, 4, 6}, 0,
                       reinterpret_cast<const std::uint8_t*>("x"), 1};
  EXPECT_THROW(pipe.submit(p), std::logic_error) << "start() must not half-run";
}

TEST(ShardedInspector, SubmitOutsideStartFinishThrows) {
  // Regression: submit() used to index shards_ unconditionally; before
  // start() the vector is empty, so the modulo indexed into nothing (UB).
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 2;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  const flow::Packet p{flow::FlowKey{1, 2, 3, 4, 6}, 0,
                       reinterpret_cast<const std::uint8_t*>("x"), 1};
  EXPECT_THROW(pipe.submit(p), std::logic_error);
  pipe.start();
  pipe.submit(p);
  pipe.finish();
  EXPECT_THROW(pipe.submit(p), std::logic_error);
  // And the pipeline still restarts cleanly after the misuse.
  pipe.start();
  pipe.submit(p);
  pipe.finish();
  EXPECT_EQ(pipe.totals().packets, 1u);
}

TEST(ShardedInspector, BatchSizeOneBehavesLikeUnbatched) {
  // batch_size=1 must flush every submit immediately and still match the
  // oracle reference (the pre-batching behavior as a special case).
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 2;
  opt.batch_size = 1;
  opt.collect_matches = true;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  EXPECT_EQ(pipe.merged_matches(), f.reference);
  EXPECT_EQ(pipe.totals().packets, f.packets);
}

TEST(ShardedInspector, LargeBatchMatchesSequential) {
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 2;
  opt.batch_size = 128;
  opt.collect_matches = true;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  EXPECT_EQ(pipe.merged_matches(), f.reference);
}

}  // namespace
}  // namespace mfa::pipeline
