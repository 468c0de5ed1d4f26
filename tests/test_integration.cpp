// Whole-pipeline integration: builtin rule sets compiled through every
// engine, scanned over generated traces via the flow inspector, compared
// against the reassembly-then-NFA oracle and engine-to-engine; persisted
// automata; failure injection.
#include <gtest/gtest.h>

#include "eval/harness.h"
#include "flow_oracle.h"
#include "rules/rules.h"

namespace mfa {
namespace {

/// Count (id, flow-offset) alerts of one engine via the flow inspector.
template <typename EngineT>
std::uint64_t count_alerts(const EngineT& engine, const trace::Trace& t) {
  flow::TieredFlowInspector<EngineT> inspector{engine};
  CountingSink sink;
  t.for_each_packet([&](const flow::Packet& p) { inspector.packet(p, sink); });
  return sink.count;
}

/// The reference alert count: the NFA over every flow's reassembled stream.
std::uint64_t oracle_alerts(const nfa::Nfa& nfa, const trace::Trace& t) {
  mfa::testing::FlowOracle oracle;
  t.for_each_packet([&](const flow::Packet& p) { oracle.packet(p); });
  return oracle.matches(nfa).size();
}

TEST(Integration, S24OverCdxTraceAllEnginesAgree) {
  const patterns::PatternSet set = patterns::set_by_name("S24");
  eval::SuiteOptions opts;
  const eval::Suite suite = eval::build_suite(set, opts);
  ASSERT_TRUE(suite.dfa && suite.mfa && suite.hfa && suite.xfa);
  const auto exemplars = eval::attack_exemplars(set, 3, 42);
  const trace::Trace t = trace::make_real_life(trace::RealLifeProfile::kCyberDefenseNoisy,
                                               400000, 42, exemplars);
  const std::uint64_t reference = oracle_alerts(suite.nfa, t);
  EXPECT_GT(reference, 0u);
  EXPECT_EQ(count_alerts(suite.nfa, t), reference);
  EXPECT_EQ(count_alerts(*suite.dfa, t), reference);
  EXPECT_EQ(count_alerts(*suite.mfa, t), reference);
  EXPECT_EQ(count_alerts(*suite.hfa, t), reference);
  EXPECT_EQ(count_alerts(*suite.xfa, t), reference);
}

TEST(Integration, C10SyntheticHighPmAllEnginesAgree) {
  const patterns::PatternSet set = patterns::set_by_name("C10");
  const eval::Suite suite = eval::build_suite(set);
  ASSERT_TRUE(suite.dfa && suite.mfa && suite.hfa && suite.xfa);
  const trace::Trace t = trace::make_synthetic(*suite.dfa, 0.95, 100000, 9);
  const std::uint64_t reference = oracle_alerts(suite.nfa, t);
  EXPECT_GT(reference, 0u);  // p_M 0.95 must actually produce matches
  EXPECT_EQ(count_alerts(*suite.dfa, t), reference);
  EXPECT_EQ(count_alerts(*suite.mfa, t), reference);
  EXPECT_EQ(count_alerts(*suite.hfa, t), reference);
  EXPECT_EQ(count_alerts(*suite.xfa, t), reference);
}

TEST(Integration, B217pMfaSurvivesWhereDfaFails) {
  // The paper's headline B217p result, end to end.
  const patterns::PatternSet set = patterns::set_by_name("B217p");
  eval::SuiteOptions opts;
  opts.dfa_max_states = 50000;  // keep the failure quick in tests
  opts.build_hfa = false;
  opts.build_xfa = false;
  const eval::Suite suite = eval::build_suite(set, opts);
  EXPECT_FALSE(suite.dfa_build.ok);
  ASSERT_TRUE(suite.mfa_build.ok);
  const auto exemplars = eval::attack_exemplars(set, 1, 5);
  const trace::Trace t = trace::make_real_life(trace::RealLifeProfile::kCyberDefenseNoisy,
                                               300000, 5, exemplars);
  const std::uint64_t mfa_alerts = count_alerts(*suite.mfa, t);
  EXPECT_EQ(mfa_alerts, oracle_alerts(suite.nfa, t));
  EXPECT_GT(mfa_alerts, 0u);
}

TEST(Integration, PersistedAutomatonMatchesFreshBuild) {
  const patterns::PatternSet set = patterns::set_by_name("C8");
  auto fresh = core::build_mfa(set.patterns);
  ASSERT_TRUE(fresh.has_value());
  const std::string path = ::testing::TempDir() + "/c8.mfac";
  ASSERT_TRUE(fresh->save(path));
  auto loaded = core::Mfa::load(path);
  ASSERT_TRUE(loaded.has_value());
  const auto exemplars = eval::attack_exemplars(set, 2, 77);
  const trace::Trace t =
      trace::make_real_life(trace::RealLifeProfile::kNitroba, 150000, 77, exemplars);
  EXPECT_EQ(count_alerts(*fresh, t),
            count_alerts(*loaded, t));
  std::remove(path.c_str());
}

TEST(Integration, TraceRoundTripPreservesAlerts) {
  const patterns::PatternSet set = patterns::set_by_name("C8");
  auto mfa = core::build_mfa(set.patterns);
  ASSERT_TRUE(mfa.has_value());
  const auto exemplars = eval::attack_exemplars(set, 2, 31);
  const trace::Trace original =
      trace::make_real_life(trace::RealLifeProfile::kCyberDefense, 120000, 31, exemplars);
  const std::string path = ::testing::TempDir() + "/roundtrip_alerts.mftr";
  ASSERT_TRUE(original.save(path));
  trace::Trace reloaded;
  ASSERT_TRUE(trace::Trace::load(path, reloaded));
  EXPECT_EQ(count_alerts(*mfa, original),
            count_alerts(*mfa, reloaded));
  std::remove(path.c_str());
}

TEST(Integration, SuiteOptionsSkipEngines) {
  const patterns::PatternSet set = patterns::set_by_name("C8");
  eval::SuiteOptions opts;
  opts.build_dfa = false;
  opts.build_hfa = false;
  opts.build_xfa = false;
  const eval::Suite suite = eval::build_suite(set, opts);
  EXPECT_FALSE(suite.dfa.has_value());
  EXPECT_FALSE(suite.hfa.has_value());
  EXPECT_FALSE(suite.xfa.has_value());
  EXPECT_TRUE(suite.mfa.has_value());
}

TEST(Integration, RulesFileToTraceAlerts) {
  // Rules file -> MFA -> trace with planted content -> sid-keyed alerts.
  const char* rules_text =
      "alert tcp any any -> any 80 (msg:\"r1\"; content:\"implant9\"; "
      "content:\"beacon7\"; sid:101;)\n"
      "alert tcp any any -> any 80 (msg:\"r2\"; pcre:\"/.*Evil-UA[^\\r\\n]*probe/\"; "
      "sid:102;)\n";
  const rules::LoadResult loaded = rules::parse_rules(rules_text);
  ASSERT_TRUE(loaded.ok());
  auto mfa = core::build_mfa(rules::to_pattern_inputs(loaded.rules));
  ASSERT_TRUE(mfa.has_value());
  const std::vector<std::string> exemplars = {"implant9 ... beacon7",
                                              "Evil-UA 2.0 probe"};
  const trace::Trace t = trace::make_real_life(trace::RealLifeProfile::kCyberDefenseNoisy,
                                               400000, 13, exemplars);
  flow::TieredFlowInspector<core::Mfa> inspector{*mfa};
  std::set<std::uint32_t> sids;
  t.for_each_packet([&](const flow::Packet& p) {
    inspector.packet(p, [&](std::uint32_t id, std::uint64_t) { sids.insert(id); });
  });
  EXPECT_TRUE(sids.count(101));
  EXPECT_TRUE(sids.count(102));
}

TEST(Integration, MinimizedMfaDfaStillEquivalent) {
  const patterns::PatternSet set = patterns::set_by_name("C8");
  core::BuildOptions min_opts;
  min_opts.dfa.minimize = true;
  auto minimized = core::build_mfa(set.patterns, min_opts);
  auto plain = core::build_mfa(set.patterns);
  ASSERT_TRUE(minimized && plain);
  EXPECT_LE(minimized->character_dfa().state_count(),
            plain->character_dfa().state_count());
  const auto exemplars = eval::attack_exemplars(set, 2, 55);
  const trace::Trace t =
      trace::make_real_life(trace::RealLifeProfile::kDarpa, 100000, 55, exemplars);
  EXPECT_EQ(count_alerts(*minimized, t),
            count_alerts(*plain, t));
}

}  // namespace
}  // namespace mfa
