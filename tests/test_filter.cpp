#include "filter/engine.h"

#include <gtest/gtest.h>

#include "filter/action.h"
#include "util/match.h"

namespace mfa::filter {
namespace {

/// Run a sequence of (engine_id, pos) events through a program.
MatchVec run(const Program& program, const std::vector<std::pair<std::uint32_t, std::uint64_t>>& events) {
  Engine engine(program);
  Memory memory(program.position_slots, program.memory_bits);
  CollectingSink sink;
  for (const auto& [id, pos] : events) engine.on_match(id, pos, memory, sink);
  return sink.matches;
}

TEST(Filter, PlainReportPassesThrough) {
  Program p;
  p.actions.push_back(Action{kNone, kNone, kNone, 7});
  const MatchVec m = run(p, {{0, 3}, {0, 9}});
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0], (Match{7, 3}));
  EXPECT_EQ(m[1], (Match{7, 9}));
}

TEST(Filter, SetThenTestConfirms) {
  // Paper Sec. IV-A: 1a: Set 0, 1: Test 0 to Match.
  Program p;
  p.memory_bits = 1;
  p.actions.push_back(Action{kNone, 0, kNone, kNone});  // id 0 = "1a"
  p.actions.push_back(Action{0, kNone, kNone, 1});      // id 1 = "1"
  EXPECT_TRUE(run(p, {{1, 5}}).empty());                 // B before A: dropped
  const MatchVec m = run(p, {{0, 2}, {1, 5}});
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0], (Match{1, 5}));
}

TEST(Filter, ClearBreaksTheLink) {
  // Paper Sec. IV-B: 1a: Set 0, 1b: Clear 0, 1: Test 0 to Match.
  Program p;
  p.memory_bits = 1;
  p.actions.push_back(Action{kNone, 0, kNone, kNone});   // set
  p.actions.push_back(Action{kNone, kNone, 0, kNone});   // clear
  p.actions.push_back(Action{0, kNone, kNone, 1});       // test->match
  EXPECT_TRUE(run(p, {{0, 1}, {1, 2}, {2, 3}}).empty());
  EXPECT_EQ(run(p, {{0, 1}, {2, 3}}).size(), 1u);
  EXPECT_EQ(run(p, {{1, 0}, {0, 1}, {2, 3}}).size(), 1u);
}

TEST(Filter, ChainedGuards) {
  // 1a: Set 0; 1b: Test 0 to Set 1; 1: Test 1 to Match (paper Sec. IV-A).
  Program p;
  p.memory_bits = 2;
  p.actions.push_back(Action{kNone, 0, kNone, kNone});
  p.actions.push_back(Action{0, 1, kNone, kNone});
  p.actions.push_back(Action{1, kNone, kNone, 1});
  EXPECT_TRUE(run(p, {{1, 0}, {2, 1}}).empty());          // B,C without A
  EXPECT_TRUE(run(p, {{0, 0}, {2, 1}}).empty());          // A,C without B
  EXPECT_TRUE(run(p, {{1, 0}, {0, 1}, {2, 2}}).empty());  // B before A
  EXPECT_EQ(run(p, {{0, 0}, {1, 1}, {2, 2}}).size(), 1u);
}

TEST(Filter, TestGuardBlocksEffects) {
  // A guarded set must not fire when the guard bit is clear.
  Program p;
  p.memory_bits = 2;
  p.actions.push_back(Action{0, 1, kNone, kNone});  // test 0 -> set 1
  p.actions.push_back(Action{1, kNone, kNone, 9});  // test 1 -> match
  EXPECT_TRUE(run(p, {{0, 0}, {1, 1}}).empty());
}

TEST(Filter, MemoryResetsToZero) {
  Memory m;
  m.set_bit(3);
  EXPECT_TRUE(m.test_bit(3));
  m.reset();
  EXPECT_FALSE(m.test_bit(3));
}

TEST(Filter, MemoryBitsIndependent) {
  Memory m;
  for (int i = 0; i < 256; i += 7) m.set_bit(i);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(m.test_bit(i), i % 7 == 0) << i;
  m.clear_bit(0);
  EXPECT_FALSE(m.test_bit(0));
  EXPECT_TRUE(m.test_bit(7));
}

TEST(Filter, ActionOrderComparator) {
  std::vector<Action> actions(3);
  actions[0].order = 4;  // first segment (setter): runs last
  actions[1].order = 2;  // middle segment
  actions[2].order = 0;  // final segment (reporter): runs first
  const ActionOrderLess less{&actions};
  EXPECT_TRUE(less(2, 1));
  EXPECT_TRUE(less(1, 0));
  EXPECT_FALSE(less(0, 2));
  // Equal orders tie-break by engine id, deterministically.
  actions[0].order = actions[1].order = 0;
  EXPECT_TRUE(less(0, 1));
  EXPECT_FALSE(less(1, 0));
}

TEST(Filter, PseudocodeRendering) {
  Action a;
  a.set = 0;
  EXPECT_EQ(a.to_pseudocode(), "Set 0");
  Action b;
  b.test = 0;
  b.report = 1;
  EXPECT_EQ(b.to_pseudocode(), "Test 0 to Match 1");
  Action c;
  c.test = 0;
  c.set = 1;
  EXPECT_EQ(c.to_pseudocode(), "Test 0 to Set 1");
  Action d;
  d.clear = 2;
  EXPECT_EQ(d.to_pseudocode(), "Clear 2");
}

TEST(Filter, ContextBytesAccounting) {
  EXPECT_EQ(Memory::context_bytes(1, 0), 8u);
  EXPECT_EQ(Memory::context_bytes(64, 0), 8u);
  EXPECT_EQ(Memory::context_bytes(65, 0), 16u);
  EXPECT_EQ(Memory::context_bytes(0, 2), 16u);  // two position slots
  EXPECT_EQ(Memory::context_bytes(1, 1), 16u);
}

TEST(Filter, ProgramImageBytes) {
  // The paper's four integers plus the gap extension's three and the rank.
  static_assert(sizeof(Action) == 8 * sizeof(std::int32_t));
  Program p;
  p.actions.resize(10);
  EXPECT_EQ(p.memory_image_bytes(), 10 * sizeof(Action));
}

TEST(Filter, IsPlainReport) {
  Action a;
  a.report = 3;
  EXPECT_TRUE(a.is_plain_report());
  a.test = 0;
  EXPECT_FALSE(a.is_plain_report());
}

TEST(FilterValidate, AcceptsProgramWithinGeometry) {
  Program p;
  p.memory_bits = 2;
  p.position_slots = 1;
  Action a;
  a.test = 0;
  a.set = 1;
  a.set_slot = 0;
  p.actions.push_back(a);
  std::string err;
  EXPECT_TRUE(p.validate(&err)) << err;
  EXPECT_TRUE(err.empty());
}

TEST(FilterValidate, RejectsMemoryBitsBeyondCap) {
  Program p;
  p.memory_bits = kMaxMemoryBits + 1;
  std::string err;
  EXPECT_FALSE(p.validate(&err));
  EXPECT_NE(err.find("memory bits"), std::string::npos);
  // Exactly at the cap is fine.
  p.memory_bits = kMaxMemoryBits;
  EXPECT_TRUE(p.validate());
}

TEST(FilterValidate, RejectsOutOfRangeBitOperands) {
  Program p;
  p.memory_bits = 4;
  Action a;
  a.set = 4;  // bits are 0..3
  p.actions.push_back(a);
  EXPECT_FALSE(p.validate());
  p.actions[0] = Action{};
  p.actions[0].test = 7;
  EXPECT_FALSE(p.validate());
  p.actions[0] = Action{};
  p.actions[0].clear = -2;  // any negative other than kNone is invalid
  EXPECT_FALSE(p.validate());
}

TEST(FilterValidate, RejectsOutOfRangeSlots) {
  Program p;
  p.memory_bits = 1;
  p.position_slots = 1;
  Action a;
  a.set_slot = 1;  // slots are 0..0
  p.actions.push_back(a);
  EXPECT_FALSE(p.validate());
  p.actions[0] = Action{};
  p.actions[0].test_slot = 9;
  EXPECT_FALSE(p.validate());
}

TEST(FilterValidate, RejectsGapWithoutTestAndSlot) {
  // A gap is measured from the tested bit's recorded position, so an
  // action with min_gap > 0 must name both.
  Program p;
  p.memory_bits = 1;
  p.position_slots = 1;
  Action a;
  a.test = 0;
  a.test_slot = 0;
  a.min_gap = 3;
  a.report = 1;
  p.actions.push_back(a);
  EXPECT_TRUE(p.validate());
  p.actions[0].test_slot = kNone;
  std::string err;
  EXPECT_FALSE(p.validate(&err));
  EXPECT_NE(err.find("gap"), std::string::npos);
  p.actions[0].test_slot = 0;
  p.actions[0].test = kNone;
  EXPECT_FALSE(p.validate());
}

}  // namespace
}  // namespace mfa::filter

namespace mfa::filter {
namespace {

constexpr std::uint16_t E = kSparseEmpty;

TEST(SparseMemory, KeepsLiveIdsSortedAndPadded) {
  std::uint16_t live[kSparseLive] = {E, E, E, E};
  SparseMemory m(live);
  EXPECT_TRUE(m.empty());
  for (const std::int32_t id : {900, 7, 65534, 7, 300}) m.set_bit(id);
  EXPECT_EQ((std::vector<std::uint16_t>(live, live + 4)),
            (std::vector<std::uint16_t>{7, 300, 900, 65534}));
  EXPECT_TRUE(m.test_bit(300));
  EXPECT_FALSE(m.test_bit(301));
  EXPECT_FALSE(m.test_bit(E));  // the padding id is never a live bit
  m.clear_bit(300);
  m.clear_bit(301);  // absent: no-op
  EXPECT_EQ((std::vector<std::uint16_t>(live, live + 4)),
            (std::vector<std::uint16_t>{7, 900, 65534, E}));
  // Word 14 holds bits [896, 960): the mask drops 900 and nothing else.
  m.clear_word(14, (std::uint64_t{1} << 4) | (std::uint64_t{1} << 60));
  EXPECT_EQ((std::vector<std::uint16_t>(live, live + 4)),
            (std::vector<std::uint16_t>{7, 65534, E, E}));
  m.clear_word(0, ~std::uint64_t{0});
  m.clear_word(1023, ~std::uint64_t{0});
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.position(0), 0u);  // no position was ever recorded inline
}

TEST(SparseMemory, AdmitsOnlyWhatTheSetCanHold) {
  std::uint16_t live[kSparseLive] = {1, 2, 3, E};
  SparseMemory m(live);
  Action set4;
  set4.set = 4;
  EXPECT_TRUE(m.admits(set4));  // a free entry
  m.set_bit(4);
  EXPECT_TRUE(m.admits(set4));  // full, but the bit is already live
  Action set5;
  set5.set = 5;
  EXPECT_FALSE(m.admits(set5));  // a fifth live bit
  set5.clear = 2;
  EXPECT_TRUE(m.admits(set5));   // ... unless its own Clear frees an entry
  Action far;
  far.set = E;
  std::uint16_t none[kSparseLive] = {E, E, E, E};
  EXPECT_FALSE(SparseMemory(none).admits(far));  // id past the inline range
  Action slot;
  slot.set = 1;
  slot.set_slot = 0;
  EXPECT_FALSE(SparseMemory(none).admits(slot));
  Action report;
  report.test = 1;
  report.report = 9;
  EXPECT_TRUE(m.admits(report));
}

TEST(SparseMemory, OnMatchRefusesBeforeChangingAnything) {
  Program p;
  p.memory_bits = 8;
  p.actions.push_back(Action{kNone, 5, 1, 3});  // clear 1, set 5, report 3
  Engine engine(p);
  std::uint16_t live[kSparseLive] = {0, 2, 3, 4};
  SparseMemory m(live);
  CollectingSink sink;
  EXPECT_FALSE(engine.on_match(0, 9, m, sink));  // 1 is not live: no room
  EXPECT_EQ((std::vector<std::uint16_t>(live, live + 4)),
            (std::vector<std::uint16_t>{0, 2, 3, 4}));
  EXPECT_TRUE(sink.matches.empty());
  live[1] = 1;  // now the action's own Clear frees an entry
  EXPECT_TRUE(engine.on_match(0, 9, m, sink));
  EXPECT_EQ((std::vector<std::uint16_t>(live, live + 4)),
            (std::vector<std::uint16_t>{0, 3, 4, 5}));
  EXPECT_EQ(sink.matches, (MatchVec{{3, 9}}));
}

TEST(SparseMemory, FullMemoryConvertsBackWhenItFits) {
  Memory full(/*position_slots=*/1, /*bits=*/70000);
  std::uint16_t live[kSparseLive] = {E, 0, E, E};
  for (const std::int32_t id : {3, 64, 299, 65534}) full.set_bit(id);
  ASSERT_TRUE(full.to_sparse(live));
  EXPECT_EQ((std::vector<std::uint16_t>(live, live + 4)),
            (std::vector<std::uint16_t>{3, 64, 299, 65534}));
  const std::uint16_t before[kSparseLive] = {live[0], live[1], live[2], live[3]};
  full.set_bit(1000);  // a fifth bit
  EXPECT_FALSE(full.to_sparse(live));
  full.clear_bit(1000);
  full.set_bit(E);  // an id past the inline range
  EXPECT_FALSE(full.to_sparse(live));
  full.clear_bit(E);
  Memory gap(/*position_slots=*/1, /*bits=*/8);
  gap.record_position(0, 17);
  EXPECT_FALSE(gap.to_sparse(live));
  EXPECT_TRUE(std::equal(live, live + 4, before));  // failures leave it alone
  EXPECT_GT(full.heap_bytes(), 0u);
}

}  // namespace
}  // namespace mfa::filter
