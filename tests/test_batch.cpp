// Burst delivery tests: the flow inspector's packet_batch must do exactly
// what one packet() call per packet does, in packet order, under
// fragmentation, reorder and retransmission; and the SPSC queue's batch
// push/pop must keep the FIFO contract of the scalar operations.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "engine_test_util.h"
#include "flow/tiered.h"
#include "mfa/mfa.h"
#include "nfa/nfa.h"
#include "pipeline/spsc_queue.h"
#include "util/rng.h"

namespace mfa {
namespace {

using mfa::testing::compile_patterns;
using mfa::testing::sorted;

const std::vector<std::string> kSources = {".*ab12.*cd34", ".*wxyz",
                                           ".*ha[0-9]ck"};

std::string make_content(util::Rng& rng, std::size_t max_len) {
  std::string s;
  while (s.size() < max_len) {
    s += rng.lower_string(1 + rng.below(16));
    switch (rng.below(6)) {
      case 0: s += "ab12"; break;
      case 1: s += "cd34"; break;
      case 2: s += "wxyz"; break;
      case 3: s += "ha7ck"; break;
      default: break;
    }
  }
  s.resize(max_len);
  return s;
}

// ---------------------------------------------------------------------------
// packet_batch vs packet: identical matches, flows and drop counters over
// randomized multi-flow traffic (the DESIGN.md Sec. 7 batching contract).

struct Delivery {
  flow::FlowKey key;
  std::uint64_t seq = 0;
  std::string bytes;
};

std::vector<Delivery> plan_traffic(util::Rng& rng, MatchVec* expected,
                                   const nfa::Nfa& ref) {
  std::vector<Delivery> plan;
  const std::size_t nflows = 1 + rng.below(6);
  for (std::uint32_t f = 0; f < nflows; ++f) {
    const flow::FlowKey key{f + 1, 7, 1234, 80, 6};
    const std::string content = make_content(rng, 20 + rng.below(120));
    if (expected != nullptr) {
      Scanner scanner(ref);
      for (const Match& m : scanner.scan(content)) expected->push_back(m);
    }
    std::size_t off = 0;
    while (off < content.size()) {
      const std::size_t len = std::min(content.size() - off, 1 + rng.below(9));
      plan.push_back({key, off, content.substr(off, len)});
      off += len;
    }
    // Retransmissions (duplicates and overlaps).
    for (std::size_t i = rng.below(3); i > 0; --i) {
      const std::size_t start = rng.below(content.size());
      plan.push_back({key, start,
                      content.substr(start, 1 + rng.below(12))});
    }
  }
  // Cross-flow interleave + bounded-window reorder.
  for (std::size_t i = 0; i + 1 < plan.size(); ++i) {
    const std::size_t j =
        i + 1 + rng.below(std::min<std::size_t>(4, plan.size() - i - 1));
    if (rng.chance(0.5)) std::swap(plan[i], plan[j]);
  }
  return plan;
}

std::vector<flow::Packet> to_packets(const std::vector<Delivery>& plan) {
  std::vector<flow::Packet> pkts;
  for (const auto& d : plan)
    pkts.push_back({d.key, d.seq,
                    reinterpret_cast<const std::uint8_t*>(d.bytes.data()),
                    static_cast<std::uint32_t>(d.bytes.size())});
  return pkts;
}

TEST(FlowBatch, PacketBatchMatchesSinglePacketPath) {
  const auto inputs = compile_patterns(kSources);
  const nfa::Nfa ref = nfa::build_nfa(inputs);
  const auto m = core::build_mfa(inputs);
  ASSERT_TRUE(m.has_value());

  for (std::uint64_t round = 0; round < 20; ++round) {
    util::Rng rng(6100 + round);
    MatchVec expected;
    const auto plan = plan_traffic(rng, &expected, ref);
    const auto pkts = to_packets(plan);

    flow::TieredFlowInspector<core::Mfa> single{*m};
    CollectingSink ssink;
    for (const auto& p : pkts) single.packet(p, ssink);

    flow::TieredFlowInspector<core::Mfa> batched{*m};
    CollectingSink bsink;
    std::size_t i = 0;
    while (i < pkts.size()) {
      const std::size_t burst = std::min(pkts.size() - i, 1 + rng.below(17));
      batched.packet_batch(pkts.data() + i, burst, bsink);
      i += burst;
    }

    // A burst is its packets in order: the match sequence itself, not
    // just its set, equals the per-packet loop's.
    EXPECT_EQ(bsink.matches, ssink.matches) << "round " << round;
    EXPECT_EQ(sorted(ssink.matches), sorted(std::move(expected))) << "round " << round;
    EXPECT_EQ(batched.flow_count(), single.flow_count()) << "round " << round;
    EXPECT_EQ(batched.reassembly_dropped_count(),
              single.reassembly_dropped_count()) << "round " << round;
  }
}

TEST(FlowBatch, SameFlowRunInOneBurstStaysInOrder) {
  // Every packet of one flow lands in a single burst: they must be fed
  // strictly in order so a pattern spanning all fragments still matches.
  const auto m = core::build_mfa(compile_patterns({".*a needle"}));
  ASSERT_TRUE(m.has_value());
  const std::string text = "here is a needle in a haystack";
  std::vector<Delivery> plan;
  const flow::FlowKey key{9, 9, 9, 9, 6};
  for (std::size_t off = 0; off < text.size(); off += 3)
    plan.push_back({key, off, text.substr(off, 3)});
  const auto pkts = to_packets(plan);

  flow::TieredFlowInspector<core::Mfa> insp{*m};
  CollectingSink sink;
  insp.packet_batch(pkts.data(), pkts.size(), sink);
  ASSERT_EQ(sink.matches.size(), 1u);
  EXPECT_EQ(sink.matches[0].end, text.find("a needle") + 7);
}

TEST(FlowBatch, FallsBackToSequentialFeedForNonBatchEngines) {
  // A big-state engine (Nfa: no inline context, every flow holds a cold
  // record) takes the same sequential per-packet path.
  const nfa::Nfa n = nfa::build_nfa(compile_patterns(kSources));
  util::Rng rng(31337);
  MatchVec expected;
  const auto plan = plan_traffic(rng, &expected, n);
  const auto pkts = to_packets(plan);
  flow::TieredFlowInspector<nfa::Nfa> insp{n};
  CollectingSink sink;
  insp.packet_batch(pkts.data(), pkts.size(), sink);
  EXPECT_EQ(sorted(std::move(sink.matches)), sorted(std::move(expected)));
}

TEST(FlowBatch, EvictionDuringBurstKeepsQueuedJobsValid) {
  // A tiny flow cap forces evictions inside a burst: each packet is fed
  // before the next one's flow can evict it (ASan would catch a dangling
  // context here), so every packet still reports its match.
  const auto m = core::build_mfa(compile_patterns({".*wxyz"}));
  ASSERT_TRUE(m.has_value());
  flow::TieredFlowInspector<core::Mfa> insp{*m, /*max_flows=*/2};
  std::vector<Delivery> plan;
  for (std::uint32_t f = 0; f < 8; ++f)
    plan.push_back({flow::FlowKey{f + 1, 1, 1, 1, 6}, 0, "wxyz"});
  const auto pkts = to_packets(plan);
  CollectingSink sink;
  insp.packet_batch(pkts.data(), pkts.size(), sink);
  EXPECT_EQ(sink.matches.size(), 8u);
  EXPECT_LE(insp.flow_count(), 2u);
  EXPECT_EQ(insp.evicted_count(), 6u);
}

// ---------------------------------------------------------------------------
// SpscQueue batch operations.

TEST(SpscBatch, BatchPushPopKeepFifoOrder) {
  pipeline::SpscQueue<int> q(8);
  int in[5] = {1, 2, 3, 4, 5};
  EXPECT_EQ(q.try_push_batch(in, 5), 5u);
  int out[8] = {};
  EXPECT_EQ(q.try_pop_batch(out, 8), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], i + 1);
  EXPECT_EQ(q.try_pop_batch(out, 8), 0u);
}

TEST(SpscBatch, PartialPushWhenNearlyFull) {
  pipeline::SpscQueue<int> q(4);  // capacity rounds to 4
  int in[6] = {10, 11, 12, 13, 14, 15};
  EXPECT_EQ(q.try_push_batch(in, 3), 3u);
  EXPECT_EQ(q.try_push_batch(in + 3, 3), 1u);  // only one slot left
  EXPECT_EQ(q.try_push_batch(in, 1), 0u);      // full
  int out[4] = {};
  ASSERT_EQ(q.try_pop_batch(out, 4), 4u);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[3], 13);
}

TEST(SpscBatch, WrapAroundPreservesContents) {
  pipeline::SpscQueue<int> q(4);
  int scratch[4] = {};
  for (int round = 0; round < 10; ++round) {
    int in[3] = {round * 3, round * 3 + 1, round * 3 + 2};
    ASSERT_EQ(q.try_push_batch(in, 3), 3u);
    ASSERT_EQ(q.try_pop_batch(scratch, 4), 3u);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(scratch[i], round * 3 + i);
  }
}

TEST(SpscBatch, MixedScalarAndBatchInterleave) {
  pipeline::SpscQueue<int> q(8);
  int in[2] = {1, 2};
  ASSERT_TRUE(q.try_push(0));
  ASSERT_EQ(q.try_push_batch(in, 2), 2u);
  int v = -1;
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 0);
  int out[8] = {};
  ASSERT_EQ(q.try_pop_batch(out, 8), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
}

TEST(SpscBatch, TwoThreadBatchHandoffDeliversEverythingInOrder) {
  constexpr int kTotal = 100000;
  pipeline::SpscQueue<int> q(64);
  std::vector<int> received;
  received.reserve(kTotal);
  std::thread consumer([&] {
    int buf[32];
    while (received.size() < static_cast<std::size_t>(kTotal)) {
      const std::size_t n = q.try_pop_batch(buf, 32);
      for (std::size_t i = 0; i < n; ++i) received.push_back(buf[i]);
    }
  });
  int next = 0;
  while (next < kTotal) {
    int buf[16];
    int n = 0;
    while (n < 16 && next < kTotal) buf[n++] = next++;
    int pushed = 0;
    while (pushed < n)
      pushed += static_cast<int>(q.try_push_batch(buf + pushed, n - pushed));
  }
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) ASSERT_EQ(received[i], i);
}

}  // namespace
}  // namespace mfa
