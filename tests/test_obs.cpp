// Telemetry layer: histogram bucket boundaries and merge, trace-ring
// overwrite semantics, flow-inspector instrumentation, Prometheus/JSON
// exporter golden output (and that both render the same snapshot).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "engine_test_util.h"
#include "flow/tiered.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "pipeline/pipeline.h"
#include "trace/trace.h"

namespace mfa::obs {
namespace {

using mfa::testing::compile_patterns;

// --- Histogram ---

TEST(Histogram, BucketIndexBoundaries) {
  // Bucket i holds values of bit width i: 0 | 1 | 2-3 | 4-7 | 8-15 | ...
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), kHistogramBuckets - 1);
}

TEST(Histogram, BucketUpperBounds) {
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper_bound(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper_bound(10), 1023u);
  EXPECT_EQ(Histogram::bucket_upper_bound(kHistogramBuckets - 1), ~std::uint64_t{0});
  // Every value lands in the bucket whose bounds contain it.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 5ull, 100ull, 65535ull, 1ull << 30}) {
    const std::size_t b = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_upper_bound(b)) << v;
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_upper_bound(b - 1)) << v;
    }
  }
}

TEST(Histogram, RecordSnapshotAndMerge) {
  Histogram h;
  h.record(0);
  h.record(3);
  h.record(3);
  h.record(100);
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 106u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[2], 2u);
  EXPECT_EQ(s.counts[7], 1u);  // 100 has bit width 7
  EXPECT_DOUBLE_EQ(s.mean(), 106.0 / 4.0);
  EXPECT_EQ(s.max_bucket(), 7u);

  Histogram h2;
  h2.record(1 << 20);
  s += h2.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 106u + (1u << 20));
  EXPECT_EQ(s.counts[21], 1u);
  EXPECT_EQ(s.max_bucket(), 21u);
}

TEST(Histogram, QuantileIsLogGranular) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(10);    // bucket 4, upper bound 15
  for (int i = 0; i < 10; ++i) h.record(1000);  // bucket 10, upper bound 1023
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.quantile(0.5), 15u);
  EXPECT_EQ(s.quantile(0.99), 1023u);
  EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0u);
}

// --- MatchTraceRing ---

TEST(MatchTraceRing, OverwritesOldestKeepsNewest) {
  MatchTraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::uint32_t i = 0; i < 20; ++i)
    ring.record(i, 2 * i, 10, 20, 6, /*match_id=*/i, /*offset=*/100 + i, /*tsc=*/i);
  EXPECT_EQ(ring.recorded(), 20u);
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 8u);
  // The newest 8 events (ids 12..19), oldest first.
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(events[k].match_id, 12u + k);
    EXPECT_EQ(events[k].src_ip, 12u + k);
    EXPECT_EQ(events[k].dst_ip, 2 * (12u + k));
    EXPECT_EQ(events[k].src_port, 10u);
    EXPECT_EQ(events[k].dst_port, 20u);
    EXPECT_EQ(events[k].proto, 6u);
    EXPECT_EQ(events[k].offset, 112u + k);
  }
  // Draining does not consume: a second drain sees the same events.
  EXPECT_EQ(ring.drain().size(), 8u);
}

TEST(MatchTraceRing, PartiallyFilledDrainsInOrder) {
  MatchTraceRing ring(16);
  ring.record(1, 1, 1, 1, 6, 7, 50, 0);
  ring.record(2, 2, 2, 2, 17, 9, 60, 1);
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].match_id, 7u);
  EXPECT_EQ(events[1].match_id, 9u);
  EXPECT_EQ(events[1].proto, 17u);
}

TEST(MatchTraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MatchTraceRing(1).capacity(), 2u);
  EXPECT_EQ(MatchTraceRing(5).capacity(), 8u);
  EXPECT_EQ(MatchTraceRing(1024).capacity(), 1024u);
}

// --- MetricsRegistry ---

TEST(MetricsRegistry, SnapshotAggregatesShardsAndMatchIds) {
  MetricsRegistry reg({.shards = 2, .match_id_capacity = 16, .trace_capacity = 8});
  reg.shard(0).packets.fetch_add(3);
  reg.shard(0).bytes.fetch_add(300);
  reg.shard(1).packets.fetch_add(5);
  reg.shard(1).bytes.fetch_add(500);
  reg.shard(1).queue_full_spins.fetch_add(7);
  reg.count_match(5);
  reg.count_match(5);
  reg.count_match(99);  // beyond capacity -> overflow bucket
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.shards.size(), 2u);
  EXPECT_EQ(snap.shards[0].packets, 3u);
  EXPECT_EQ(snap.shards[1].packets, 5u);
  const ShardSnapshot t = snap.totals();
  EXPECT_EQ(t.packets, 8u);
  EXPECT_EQ(t.bytes, 800u);
  EXPECT_EQ(t.queue_full_spins, 7u);
  ASSERT_EQ(snap.match_counts.size(), 1u);
  EXPECT_EQ(snap.match_counts[0].first, 5u);
  EXPECT_EQ(snap.match_counts[0].second, 2u);
  EXPECT_EQ(snap.match_id_overflow, 1u);
  EXPECT_EQ(reg.match_count(5), 2u);
}

// --- flow inspector instrumentation ---

TEST(FlowInspectorTelemetry, CountsPacketsMatchesAndTraceEvents) {
  auto m = core::build_mfa(compile_patterns({".*needle"}));
  ASSERT_TRUE(m.has_value());
  MetricsRegistry reg({.shards = 1, .match_id_capacity = 16, .trace_capacity = 16});
  flow::TieredFlowInspector<core::Mfa> insp(*m);
  insp.set_metrics(&reg, 0);

  const std::string payload = "xx needle yy";
  const flow::FlowKey key{0x0a000001, 0x0a000002, 1234, 80, 6};
  CollectingSink sink;
  insp.packet(flow::Packet{key, 0,
                           reinterpret_cast<const std::uint8_t*>(payload.data()),
                           static_cast<std::uint32_t>(payload.size())},
              sink);
  // Second flow: an out-of-order segment that stays buffered.
  const flow::FlowKey key2{0x0a000003, 0x0a000004, 5, 6, 6};
  insp.packet(flow::Packet{key2, 100,
                           reinterpret_cast<const std::uint8_t*>(payload.data()),
                           static_cast<std::uint32_t>(payload.size())},
              sink);

  ASSERT_EQ(sink.matches.size(), 1u);
  const RegistrySnapshot snap = reg.snapshot();
  const ShardSnapshot& s = snap.shards.at(0);
  EXPECT_EQ(s.packets, 2u);
  EXPECT_EQ(s.bytes, 2 * payload.size());
  EXPECT_EQ(s.matches, 1u);
  EXPECT_EQ(s.flows, 2u);
  EXPECT_EQ(s.reassembly_pending_bytes, payload.size());
  EXPECT_EQ(s.scan_ns.count, 2u);
  EXPECT_EQ(s.packet_bytes.count, 2u);
  EXPECT_EQ(s.packet_bytes.sum, 2 * payload.size());

  ASSERT_EQ(snap.match_counts.size(), 1u);
  EXPECT_EQ(snap.match_counts[0].first, sink.matches[0].id);
  EXPECT_EQ(snap.match_counts[0].second, 1u);

  ASSERT_EQ(snap.trace_events.size(), 1u);
  const MatchTraceRing::Event& e = snap.trace_events[0];
  EXPECT_EQ(e.src_ip, key.src_ip);
  EXPECT_EQ(e.dst_ip, key.dst_ip);
  EXPECT_EQ(e.src_port, key.src_port);
  EXPECT_EQ(e.dst_port, key.dst_port);
  EXPECT_EQ(e.proto, key.proto);
  EXPECT_EQ(e.match_id, sink.matches[0].id);
  EXPECT_EQ(e.offset, sink.matches[0].end);
}

TEST(FlowInspectorTelemetry, DetachedInspectorTouchesNothing) {
  auto m = core::build_mfa(compile_patterns({".*needle"}));
  ASSERT_TRUE(m.has_value());
  MetricsRegistry reg(1);
  flow::TieredFlowInspector<core::Mfa> insp(*m);  // never attached
  const std::string payload = "a needle";
  CollectingSink sink;
  insp.packet(flow::Packet{flow::FlowKey{1, 2, 3, 4, 6}, 0,
                           reinterpret_cast<const std::uint8_t*>(payload.data()),
                           static_cast<std::uint32_t>(payload.size())},
              sink);
  EXPECT_EQ(sink.matches.size(), 1u);
  EXPECT_EQ(reg.snapshot().totals().packets, 0u);
}

// --- Exporters ---

RegistrySnapshot known_snapshot() {
  MetricsRegistry reg({.shards = 1, .match_id_capacity = 16, .trace_capacity = 8});
  ShardMetrics& s = reg.shard(0);
  s.packets.fetch_add(3);
  s.bytes.fetch_add(1500);
  s.matches.fetch_add(2);
  s.flows.store(4);
  s.evictions.fetch_add(1);
  s.flows_spilled.fetch_add(5);
  s.queue_full_spins.fetch_add(9);
  s.max_queue_depth.store(17);
  s.scan_ns.record(100);
  s.scan_ns.record(1000);
  s.packet_bytes.record(500);
  reg.count_match(7);
  reg.count_match(7);
  reg.trace().record(1, 2, 3, 4, 6, 7, 42, 5);
  return reg.snapshot();
}

TEST(Exporters, PrometheusGoldenLines) {
  const std::string out = to_prometheus(known_snapshot());
  EXPECT_NE(out.find("# TYPE mfa_packets_total counter\n"
                     "mfa_packets_total{shard=\"0\"} 3\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("mfa_bytes_total{shard=\"0\"} 1500\n"), std::string::npos);
  EXPECT_NE(out.find("mfa_matches_total{shard=\"0\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE mfa_flows gauge\nmfa_flows{shard=\"0\"} 4\n"),
            std::string::npos);
  EXPECT_NE(out.find("mfa_queue_full_spins_total{shard=\"0\"} 9\n"),
            std::string::npos);
  EXPECT_NE(out.find("mfa_queue_max_depth{shard=\"0\"} 17\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE mfa_flow_spills_total counter\n"
                     "mfa_flow_spills_total{shard=\"0\"} 5\n"),
            std::string::npos);
  // Histogram: 100 -> bucket bound 127, 1000 -> bucket bound 1023; buckets
  // are cumulative and end with +Inf == count.
  EXPECT_NE(out.find("mfa_scan_ns_bucket{shard=\"0\",le=\"127\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("mfa_scan_ns_bucket{shard=\"0\",le=\"1023\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("mfa_scan_ns_bucket{shard=\"0\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("mfa_scan_ns_sum{shard=\"0\"} 1100\n"), std::string::npos);
  EXPECT_NE(out.find("mfa_scan_ns_count{shard=\"0\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("mfa_match_hits_total{id=\"7\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("mfa_trace_events_total 1\n"), std::string::npos);
}

TEST(Exporters, JsonGoldenFields) {
  const std::string out = to_json(known_snapshot());
  EXPECT_EQ(out.find("{\"schema\":\"mfa.telemetry.v1\""), 0u) << out;
  EXPECT_NE(out.find("\"packets\":3"), std::string::npos);
  EXPECT_NE(out.find("\"bytes\":1500"), std::string::npos);
  EXPECT_NE(out.find("\"queue_full_spins\":9"), std::string::npos);
  EXPECT_NE(out.find("\"flows_spilled\":5"), std::string::npos);
  EXPECT_NE(out.find("\"scan_ns\":{\"count\":2,\"sum\":1100,\"buckets\":"
                     "[[127,1],[1023,1]]}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"match_counts\":[[7,2]]"), std::string::npos);
  EXPECT_NE(out.find("\"trace\":{\"recorded\":1,\"events\":[{\"src_ip\":1,"
                     "\"dst_ip\":2,\"src_port\":3,\"dst_port\":4,\"proto\":6,"
                     "\"id\":7,\"offset\":42,\"tsc\":5}]}"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find('\n'), std::string::npos);  // single line (JSONL-safe)
}

TEST(Exporters, PrometheusAndJsonRenderTheSameSnapshot) {
  const RegistrySnapshot snap = known_snapshot();
  const std::string prom = to_prometheus(snap);
  const std::string json = to_json(snap);
  const ShardSnapshot t = snap.totals();
  // Every headline counter appears with the same value in both renderings.
  EXPECT_NE(prom.find("mfa_packets_total{shard=\"0\"} " + std::to_string(t.packets)),
            std::string::npos);
  EXPECT_NE(json.find("\"packets\":" + std::to_string(t.packets)), std::string::npos);
  EXPECT_NE(prom.find("mfa_bytes_total{shard=\"0\"} " + std::to_string(t.bytes)),
            std::string::npos);
  EXPECT_NE(json.find("\"bytes\":" + std::to_string(t.bytes)), std::string::npos);
  EXPECT_NE(prom.find("mfa_matches_total{shard=\"0\"} " + std::to_string(t.matches)),
            std::string::npos);
  EXPECT_NE(json.find("\"matches\":" + std::to_string(t.matches)), std::string::npos);
}

TEST(Exporters, BenchReportSchema) {
  BenchReport report("unit");
  report.add("C8", "LL1", "mfa", 49.25, 12, 4);
  report.set_telemetry(known_snapshot());
  const std::string out = report.to_json();
  EXPECT_EQ(out.find("{\"schema\":\"mfa.bench.v1\",\"bench\":\"unit\""), 0u) << out;
  EXPECT_NE(out.find("{\"set\":\"C8\",\"trace\":\"LL1\",\"engine\":\"mfa\","
                     "\"shards\":4,\"cycles_per_byte\":49.25,\"matches\":12}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"telemetry\":{\"schema\":\"mfa.telemetry.v1\""),
            std::string::npos);
}

// --- Ruleset hot-swap telemetry (DESIGN.md Sec. 10) ---

TEST(RulesetSwapTelemetry, RecordsGaugeCounterHistogramAndTraceEvent) {
  MetricsRegistry reg(1);
  reg.record_ruleset_swap(3, 1500);
  reg.count_match_generation(3);
  reg.count_match_generation(3);
  reg.count_match_generation(1);

  EXPECT_EQ(reg.ruleset_generation(), 3u);
  EXPECT_EQ(reg.ruleset_swaps(), 1u);
  EXPECT_EQ(reg.generation_match_count(3), 2u);
  EXPECT_EQ(reg.generation_match_count(1), 1u);
  EXPECT_EQ(reg.generation_match_count(2), 0u);

  const RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.ruleset_generation, 3u);
  EXPECT_EQ(snap.ruleset_swaps, 1u);
  EXPECT_EQ(snap.ruleset_swap_ns.count, 1u);
  EXPECT_EQ(snap.ruleset_swap_ns.sum, 1500u);
  ASSERT_EQ(snap.generation_matches.size(), 2u);  // ascending generation
  EXPECT_EQ(snap.generation_matches[0], (std::pair<std::uint64_t, std::uint64_t>{1, 1}));
  EXPECT_EQ(snap.generation_matches[1], (std::pair<std::uint64_t, std::uint64_t>{3, 2}));
  EXPECT_EQ(snap.generation_match_overflow, 0u);

  // The swap leaves a trace-ring marker carrying the generation.
  bool saw_event = false;
  for (const auto& e : snap.trace_events)
    if (e.match_id == kRulesetSwappedEventId) {
      saw_event = true;
      EXPECT_EQ(e.offset, 3u);
    }
  EXPECT_TRUE(saw_event);
}

TEST(RulesetSwapTelemetry, SlotCollisionCountsOverflowInsteadOfMisattributing) {
  MetricsRegistry reg(1);
  // Generations 5 and 5+32 hash to the same slot; the second claim must be
  // rejected and counted as overflow, never added to generation 5.
  reg.count_match_generation(5);
  reg.count_match_generation(5 + 32);
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.generation_matches.size(), 1u);
  EXPECT_EQ(snap.generation_matches[0].first, 5u);
  EXPECT_EQ(snap.generation_matches[0].second, 1u);
  EXPECT_EQ(snap.generation_match_overflow, 1u);
}

TEST(RulesetSwapTelemetry, ExportersRenderSwapFields) {
  MetricsRegistry reg(1);
  reg.record_ruleset_swap(2, 1000);
  reg.count_match_generation(2);
  const RegistrySnapshot snap = reg.snapshot();

  const std::string prom = to_prometheus(snap);
  EXPECT_NE(prom.find("mfa_ruleset_generation 2\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("mfa_ruleset_swaps_total 1\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE mfa_ruleset_swap_ns histogram"), std::string::npos);
  EXPECT_NE(prom.find("mfa_ruleset_swap_ns_count 1\n"), std::string::npos);
  EXPECT_NE(prom.find("mfa_generation_matches_total{generation=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("mfa_generation_match_overflow_total 0\n"), std::string::npos);

  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"ruleset\":{\"generation\":2,\"swaps\":1,"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"generation_matches\":[[2,1]]"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // still JSONL-safe
}

// --- Histogram edge cases ---

TEST(Histogram, EmptyHistogramQuantilesAreZero) {
  const HistogramSnapshot s = Histogram().snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.quantile(0.0), 0u);
  EXPECT_EQ(s.quantile(0.5), 0u);
  EXPECT_EQ(s.quantile(0.99), 0u);
  EXPECT_EQ(s.quantile(1.0), 0u);
}

TEST(Histogram, SingleBucketAnswersEveryQuantile) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(5);  // all land in bucket 3 (4-7)
  const HistogramSnapshot s = h.snapshot();
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0})
    EXPECT_EQ(s.quantile(q), 7u) << q;
}

TEST(Histogram, SaturatingTopBucketHoldsMaxValues) {
  Histogram h;
  h.record(~std::uint64_t{0});
  h.record(~std::uint64_t{0} - 1);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.counts[kHistogramBuckets - 1], 2u);
  EXPECT_EQ(s.quantile(1.0), ~std::uint64_t{0});
  EXPECT_EQ(s.max_bucket(), kHistogramBuckets - 1);
}

// --- SpanTraceRing ---

TEST(SpanTraceRing, RecordsAndDrainsOldestFirst) {
  SpanTraceRing ring(4);
  for (std::uint32_t i = 1; i <= 3; ++i)
    ring.record(i, i + 100, 1, 2, 6, /*shard=*/i, /*submit=*/10 * i,
                10 * i + 1, 10 * i + 2, 10 * i + 3);
  EXPECT_EQ(ring.recorded(), 3u);
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 3u);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    const SpanTraceRing::Event& e = events[i - 1];
    EXPECT_EQ(e.src_ip, i);
    EXPECT_EQ(e.dst_ip, i + 100);
    EXPECT_EQ(e.shard, i);
    EXPECT_EQ(e.submit_tsc, 10u * i);
    EXPECT_EQ(e.dequeue_tsc, 10u * i + 1);
    EXPECT_EQ(e.scan_start_tsc, 10u * i + 2);
    EXPECT_EQ(e.scan_end_tsc, 10u * i + 3);
  }
}

TEST(SpanTraceRing, OverwritesOldestKeepsNewest) {
  SpanTraceRing ring(4);
  for (std::uint32_t i = 0; i < 10; ++i)
    ring.record(i, i, 0, 0, 6, 0, i, i, i, i);
  EXPECT_EQ(ring.recorded(), 10u);
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(events[k].src_ip, 6u + k);
}

// Concurrent drain is best-effort but must never tear an event: every
// drained record carries one writer's self-consistent field pattern.
TEST(SpanTraceRing, ConcurrentWritersNeverTearEvents) {
  SpanTraceRing ring(64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::uint32_t w = 0; w < 3; ++w) {
    writers.emplace_back([&ring, &stop, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++i;
        ring.record(w, static_cast<std::uint32_t>(i), 1, 2, 6, w, i, i + 1,
                    i + 2, i + 3);
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    for (const SpanTraceRing::Event& e : ring.drain()) {
      EXPECT_LT(e.src_ip, 3u);
      EXPECT_EQ(e.shard, e.src_ip);
      EXPECT_EQ(e.dequeue_tsc, e.submit_tsc + 1);
      EXPECT_EQ(e.scan_start_tsc, e.submit_tsc + 2);
      EXPECT_EQ(e.scan_end_tsc, e.submit_tsc + 3);
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

TEST(MatchTraceRing, ConcurrentWritersNeverTearEvents) {
  MatchTraceRing ring(64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::uint32_t w = 0; w < 3; ++w) {
    writers.emplace_back([&ring, &stop, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ++i;
        ring.record(w, static_cast<std::uint32_t>(i), 1, 2, 6, w, i, i + 7);
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    for (const MatchTraceRing::Event& e : ring.drain()) {
      EXPECT_LT(e.src_ip, 3u);
      EXPECT_EQ(e.match_id, e.src_ip);
      EXPECT_EQ(e.tsc, e.offset + 7);
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

// --- Exporter conformance ---

TEST(Exporters, PromEscapeLabelHandlesHostileValues) {
  EXPECT_EQ(prom_escape_label("plain"), "plain");
  EXPECT_EQ(prom_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label("a\nb"), "a\\nb");
  EXPECT_EQ(prom_escape_label("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Exporters, PromMetricNameValidity) {
  EXPECT_TRUE(prom_metric_name_valid("mfa_packets_total"));
  EXPECT_TRUE(prom_metric_name_valid("a:b_c9"));
  EXPECT_TRUE(prom_metric_name_valid("_x"));
  EXPECT_FALSE(prom_metric_name_valid(""));
  EXPECT_FALSE(prom_metric_name_valid("9starts_with_digit"));
  EXPECT_FALSE(prom_metric_name_valid("has-dash"));
  EXPECT_FALSE(prom_metric_name_valid("has space"));
  EXPECT_FALSE(prom_metric_name_valid("has\nnewline"));
}

TEST(Exporters, JsonEscapeControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Exporters, HostileRuleNamesStayConformant) {
  MetricsRegistry reg({.shards = 1, .match_id_capacity = 8});
  reg.shard(0).packets.fetch_add(1);
  reg.count_match(1);
  reg.count_match(2);
  // Names a malicious or merely unlucky ruleset could carry.
  const std::vector<std::string> names = {"", "ok",
                                          "evil\"quote\\back\nline"};
  const RegistrySnapshot snap = reg.snapshot();
  const std::string prom = to_prometheus(snap, &names);
  // The hostile name appears escaped; no raw newline may survive inside a
  // label value (that would split the exposition line).
  EXPECT_NE(prom.find("rule=\"evil\\\"quote\\\\back\\nline\""),
            std::string::npos);
  EXPECT_EQ(prom.find("back\nline"), std::string::npos);
  // Every non-comment line is `name{...} value` or `name value`.
  std::size_t start = 0;
  while (start < prom.size()) {
    std::size_t end = prom.find('\n', start);
    if (end == std::string::npos) end = prom.size();
    const std::string line = prom.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_TRUE(prom_metric_name_valid(line.substr(0, name_end))) << line;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
  // The JSON exporter escapes the same names.
  const std::string json = to_json(snap);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

// --- Profiler ---

TEST(Profiler, EvenSplitConservesTotals) {
  Profiler prof({.rule_capacity = 8, .state_capacity = 0, .sample_shift = 0});
  const std::uint32_t ids[] = {1, 1, 2};
  prof.record_rules(ids, 3, /*ns=*/10, /*bytes=*/8);
  prof.record_unmatched(5, 100);
  const ProfileSnapshot s = prof.snapshot();
  EXPECT_EQ(s.sampled_packets, 2u);
  EXPECT_EQ(s.sampled_ns, 15u);
  EXPECT_EQ(s.sampled_bytes, 108u);
  std::uint64_t rule_ns = 0, rule_bytes = 0, rule_samples = 0;
  for (const RuleCost& r : s.rules) {
    rule_ns += r.ns;
    rule_bytes += r.bytes;
    rule_samples += r.samples;
  }
  // Attribution conserves the packet's totals exactly (remainder included).
  EXPECT_EQ(rule_ns + s.unmatched.ns, s.sampled_ns);
  EXPECT_EQ(rule_bytes + s.unmatched.bytes, s.sampled_bytes);
  EXPECT_EQ(rule_samples, 3u);  // one per id occurrence
  ASSERT_EQ(s.rules.size(), 2u);
  EXPECT_EQ(s.rules[0].id, 1u);
  EXPECT_EQ(s.rules[0].samples, 2u);
  EXPECT_EQ(s.rules[1].id, 2u);
  EXPECT_EQ(s.rules[1].ns, 10u / 3);
}

TEST(Profiler, NoMatchIdsChargeUnmatched) {
  Profiler prof({.rule_capacity = 4, .state_capacity = 0, .sample_shift = 0});
  prof.record_rules(nullptr, 0, 7, 70);
  const ProfileSnapshot s = prof.snapshot();
  EXPECT_TRUE(s.rules.empty());
  EXPECT_EQ(s.unmatched.samples, 1u);
  EXPECT_EQ(s.unmatched.ns, 7u);
  EXPECT_EQ(s.unmatched.bytes, 70u);
}

TEST(Profiler, IdsBeyondCapacityCountOverflow) {
  Profiler prof({.rule_capacity = 2, .state_capacity = 4, .sample_shift = 0});
  const std::uint32_t ids[] = {1, 99};
  prof.record_rules(ids, 2, 10, 10);
  prof.record_state(3);
  prof.record_state(100);
  const ProfileSnapshot s = prof.snapshot();
  EXPECT_EQ(s.rule_overflow, 1u);
  EXPECT_EQ(s.state_overflow, 1u);
  ASSERT_EQ(s.state_visits.size(), 4u);
  EXPECT_EQ(s.state_visits[3], 1u);
  EXPECT_EQ(s.hot_states(), 1u);
}

TEST(Profiler, ProfileJsonAndTableRender) {
  Profiler prof({.rule_capacity = 8, .state_capacity = 4, .sample_shift = 2});
  const std::uint32_t ids[] = {1};
  prof.record_rules(ids, 1, 1000, 500);
  prof.record_state(2);
  const std::vector<std::string> names = {"", "alpha\"quote"};
  const ProfileSnapshot s = prof.snapshot();
  const std::string json = to_profile_json(s, 5, &names);
  EXPECT_EQ(json.find("{\"schema\":\"mfa.profile.v1\""), 0u);
  EXPECT_NE(json.find("\"sample_shift\":2"), std::string::npos);
  EXPECT_NE(json.find("\"id\":1"), std::string::npos);
  EXPECT_NE(json.find("alpha\\\"quote"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  const std::string table = profile_table(s, 5, &names);
  EXPECT_NE(table.find("alpha\"quote"), std::string::npos);
  EXPECT_NE(table.find("hot/tracked: 1/4"), std::string::npos);
}

// --- Profiler wired through the flow inspector ---

TEST(TieredFlowInspectorProfiler, AttributesCostToRulesAndStates) {
  auto m = core::build_mfa(compile_patterns({".*needle"}));
  ASSERT_TRUE(m.has_value());
  MetricsRegistry reg(1);
  Profiler prof({.rule_capacity = 8,
                 .state_capacity = m->state_count(),
                 .sample_shift = 0});  // sample every scan unit
  flow::TieredFlowInspector<core::Mfa> insp(*m);
  insp.set_metrics(&reg, 0);
  insp.set_profiler(&prof);
  const std::string hit = "xx needle yy";
  const std::string miss = "nothing here";
  CollectingSink sink;
  insp.packet(flow::Packet{flow::FlowKey{1, 2, 3, 4, 6}, 0,
                           reinterpret_cast<const std::uint8_t*>(hit.data()),
                           static_cast<std::uint32_t>(hit.size())},
              sink);
  insp.packet(flow::Packet{flow::FlowKey{5, 6, 7, 8, 6}, 0,
                           reinterpret_cast<const std::uint8_t*>(miss.data()),
                           static_cast<std::uint32_t>(miss.size())},
              sink);
  EXPECT_EQ(sink.matches.size(), 1u);
  const ProfileSnapshot s = prof.snapshot();
  EXPECT_EQ(s.sampled_packets, 2u);
  EXPECT_EQ(s.sampled_bytes, hit.size() + miss.size());
  ASSERT_EQ(s.rules.size(), 1u);
  EXPECT_EQ(s.rules[0].id, 1u);
  EXPECT_EQ(s.rules[0].bytes, hit.size());
  EXPECT_EQ(s.unmatched.samples, 1u);
  EXPECT_EQ(s.unmatched.bytes, miss.size());
  // Both live flows' automaton states were sampled.
  std::uint64_t visits = 0;
  for (const std::uint64_t v : s.state_visits) visits += v;
  EXPECT_EQ(visits + s.state_overflow, 2u);
}

// --- Latency spans through the sharded pipeline ---

TEST(PipelineSpans, EveryPacketSampledAtShiftZero) {
  auto m = core::build_mfa(compile_patterns({".*atk1.*vec2", ".*worm77"}));
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = trace::make_real_life(
      trace::RealLifeProfile::kCyberDefense, 100000, 7, {"atk1 and vec2"});
  MetricsRegistry reg({.shards = 2, .span_capacity = 64});
  pipeline::Options opt;
  opt.shards = 2;
  opt.metrics = &reg;
  opt.trace_sample_shift = 0;  // stamp every submitted packet
  pipeline::ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  std::uint64_t packets = 0;
  t.for_each_packet([&](const flow::Packet& p) {
    ++packets;
    pipe.submit(p);
  });
  pipe.finish();

  const RegistrySnapshot snap = reg.snapshot();
  const ShardSnapshot totals = snap.totals();
  EXPECT_EQ(totals.spans_sampled, packets);
  EXPECT_EQ(totals.queue_wait_ns.count, packets);
  EXPECT_EQ(totals.span_scan_ns.count, packets);
  EXPECT_EQ(totals.e2e_ns.count, packets);
  EXPECT_EQ(snap.span_recorded, packets);
  ASSERT_FALSE(snap.span_events.empty());
  for (const SpanTraceRing::Event& e : snap.span_events) {
    EXPECT_LT(e.shard, 2u);
    EXPECT_NE(e.submit_tsc, 0u);
    EXPECT_GE(e.scan_end_tsc, e.scan_start_tsc);  // same worker thread
    EXPECT_GE(e.scan_start_tsc, e.dequeue_tsc);
  }
  // Both exporters carry the span data.
  const std::string prom = to_prometheus(snap);
  EXPECT_NE(prom.find("mfa_spans_sampled_total"), std::string::npos);
  EXPECT_NE(prom.find("mfa_queue_wait_ns_bucket"), std::string::npos);
  EXPECT_NE(prom.find("mfa_e2e_ns_count"), std::string::npos);
  const std::string json = to_json(snap);
  EXPECT_NE(json.find("\"spans\":"), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_ns\""), std::string::npos);
}

TEST(PipelineSpans, DefaultShiftSamplesSparselyAndOffDisables) {
  auto m = core::build_mfa(compile_patterns({".*worm77"}));
  ASSERT_TRUE(m.has_value());
  const trace::Trace t = trace::make_real_life(
      trace::RealLifeProfile::kCyberDefense, 200000, 9, {"worm77"});
  std::uint64_t packets = 0;
  t.for_each_packet([&](const flow::Packet&) { ++packets; });

  MetricsRegistry sparse_reg({.shards = 1});
  pipeline::Options opt;
  opt.shards = 1;
  opt.metrics = &sparse_reg;  // default shift 6 = 1 in 64
  pipeline::ShardedInspector<core::Mfa> sparse(*m, opt);
  sparse.start();
  t.for_each_packet([&](const flow::Packet& p) { sparse.submit(p); });
  sparse.finish();
  const std::uint64_t sampled = sparse_reg.snapshot().totals().spans_sampled;
  EXPECT_GT(sampled, 0u);
  EXPECT_LE(sampled, packets / 32);  // ~1/64 expected; allow 2x jitter

  MetricsRegistry off_reg({.shards = 1});
  opt.metrics = &off_reg;
  opt.trace_sample_shift = 64;  // spans disabled entirely
  pipeline::ShardedInspector<core::Mfa> off(*m, opt);
  off.start();
  t.for_each_packet([&](const flow::Packet& p) { off.submit(p); });
  off.finish();
  EXPECT_EQ(off_reg.snapshot().totals().spans_sampled, 0u);
  EXPECT_EQ(off_reg.snapshot().span_recorded, 0u);
}

}  // namespace
}  // namespace mfa::obs
