#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "engine_test_util.h"
#include "flow/tiered.h"

namespace mfa::trace {
namespace {

using mfa::testing::compile_patterns;

TEST(Trace, AddAndReadBack) {
  Trace t("demo");
  const flow::FlowKey key{1, 2, 3, 4, 6};
  t.add_packet(key, 0, "hello");
  t.add_packet(key, 5, " world");
  EXPECT_EQ(t.packet_count(), 2u);
  EXPECT_EQ(t.payload_bytes(), 11u);
  const flow::Packet p0 = t.packet(0);
  EXPECT_EQ(p0.length, 5u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(p0.payload), p0.length), "hello");
  EXPECT_EQ(t.packet(1).seq, 5u);
}

TEST(Trace, SaveLoadRoundTrip) {
  Trace t("roundtrip");
  const flow::FlowKey a{1, 2, 3, 4, 6};
  const flow::FlowKey b{9, 8, 7, 6, 17};
  t.add_packet(a, 0, "first");
  t.add_packet(b, 0, std::string("\x00\x01\xff", 3));
  t.add_packet(a, 5, "second");
  const std::string path = ::testing::TempDir() + "/mfa_trace_test.mftr";
  ASSERT_TRUE(t.save(path));
  Trace loaded;
  ASSERT_TRUE(Trace::load(path, loaded));
  EXPECT_EQ(loaded.name(), "roundtrip");
  ASSERT_EQ(loaded.packet_count(), 3u);
  EXPECT_EQ(loaded.payload_bytes(), t.payload_bytes());
  const flow::Packet p1 = loaded.packet(1);
  EXPECT_EQ(p1.key, b);
  EXPECT_EQ(p1.length, 3u);
  EXPECT_EQ(p1.payload[2], 0xff);
  std::remove(path.c_str());
}

TEST(Trace, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/mfa_trace_garbage.mftr";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace file at all", f);
  std::fclose(f);
  Trace t;
  EXPECT_FALSE(Trace::load(path, t));
  EXPECT_FALSE(Trace::load(path + ".does_not_exist", t));
  std::remove(path.c_str());
}

TEST(SyntheticTrace, SizesAndDeterminism) {
  const auto inputs = compile_patterns({".*attack1.*vector2", ".*worm99"});
  const auto d = dfa::build_dfa(nfa::build_nfa(inputs));
  ASSERT_TRUE(d.has_value());
  const Trace t1 = make_synthetic(*d, 0.5, 20000, /*seed=*/1);
  const Trace t2 = make_synthetic(*d, 0.5, 20000, /*seed=*/1);
  const Trace t3 = make_synthetic(*d, 0.5, 20000, /*seed=*/2);
  EXPECT_EQ(t1.payload_bytes(), 20000u);
  EXPECT_GT(t1.packet_count(), 10u);
  // Determinism: same seed -> identical bytes; different seed -> different.
  bool same12 = t1.packet_count() == t2.packet_count();
  bool diff13 = false;
  for (std::size_t i = 0; same12 && i < t1.packet_count(); ++i) {
    const auto p1 = t1.packet(i);
    const auto p2 = t2.packet(i);
    same12 = p1.length == p2.length &&
             std::equal(p1.payload, p1.payload + p1.length, p2.payload);
  }
  const auto p1 = t1.packet(0);
  const auto p3 = t3.packet(0);
  diff13 = !std::equal(p1.payload, p1.payload + std::min(p1.length, p3.length), p3.payload);
  EXPECT_TRUE(same12);
  EXPECT_TRUE(diff13);
}

TEST(SyntheticTrace, HigherPmYieldsMoreMatches) {
  // The whole point of the p_M knob (paper Fig. 5): more malicious traffic
  // means more match events to process.
  const auto inputs = compile_patterns({".*evil01.*evil02", ".*bad33[^\\n]*bad44"});
  const auto d = dfa::build_dfa(nfa::build_nfa(inputs));
  ASSERT_TRUE(d.has_value());
  std::uint64_t prev = 0;
  bool nondecreasing = true;
  std::uint64_t low_pm_matches = 0;
  std::uint64_t high_pm_matches = 0;
  for (const double pm : {0.0, 0.55, 0.95}) {
    const Trace t = make_synthetic(*d, pm, 60000, 7);
    Scanner s(*d);
    CountingSink sink;
    t.for_each_packet([&](const flow::Packet& p) {
      s.feed(p.payload, p.length, p.seq, sink);
    });
    if (pm == 0.0) low_pm_matches = sink.count;
    if (pm == 0.95) high_pm_matches = sink.count;
    nondecreasing = nondecreasing && sink.count >= prev;
    prev = sink.count;
  }
  EXPECT_TRUE(nondecreasing);
  EXPECT_GT(high_pm_matches, low_pm_matches);
}

TEST(RealLifeTrace, ProfilesProduceMultiplexedFlows) {
  for (const auto profile : {RealLifeProfile::kDarpa, RealLifeProfile::kCyberDefense,
                             RealLifeProfile::kNitroba}) {
    const Trace t = make_real_life(profile, 50000, 3, {});
    EXPECT_GE(t.payload_bytes(), 50000u);
    EXPECT_GT(t.packet_count(), 30u);
    // Multiple flows must be interleaved.
    std::vector<flow::FlowKey> keys;
    t.for_each_packet([&](const flow::Packet& p) { keys.push_back(p.key); });
    bool interleaved = false;
    for (std::size_t i = 2; i < keys.size() && !interleaved; ++i)
      interleaved = !(keys[i] == keys[i - 1]) && !(keys[i - 1] == keys[i - 2]);
    EXPECT_TRUE(interleaved);
  }
}

TEST(RealLifeTrace, AttackExemplarsProduceMatches) {
  const std::vector<std::string> pats = {".*maliciouscmd.*rootshell"};
  const auto inputs = compile_patterns(pats);
  const auto d = dfa::build_dfa(nfa::build_nfa(inputs));
  ASSERT_TRUE(d.has_value());
  // Exemplar = a full sampled match of the pattern.
  const Trace t = make_real_life(RealLifeProfile::kCyberDefense, 200000, 11,
                                 {"maliciouscmd 1337 rootshell"});
  flow::TieredFlowInspector<dfa::Dfa> insp{*d};
  CountingSink sink;
  t.for_each_packet([&](const flow::Packet& p) { insp.packet(p, sink); });
  EXPECT_GT(sink.count, 0u);
}

TEST(RealLifeTrace, SequencingWithinFlowsIsContiguous) {
  const Trace t = make_real_life(RealLifeProfile::kNitroba, 30000, 5, {});
  std::unordered_map<flow::FlowKey, std::uint64_t, flow::FlowKeyHash> next;
  t.for_each_packet([&](const flow::Packet& p) {
    const auto it = next.find(p.key);
    const std::uint64_t expect = it == next.end() ? 0 : it->second;
    EXPECT_EQ(p.seq, expect);
    next[p.key] = p.seq + p.length;
  });
}

}  // namespace
}  // namespace mfa::trace
