#include <gtest/gtest.h>

#include "util/dynamic_bitset.h"
#include "util/rng.h"
#include "util/row_stride.h"
#include "util/table.h"
#include "util/timing.h"

namespace mfa::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  EXPECT_NE(a(), c());
}

TEST(Rng, BelowStaysInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.between(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, Uniform01InRange) {
  Rng r(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, LowerStringContents) {
  Rng r(4);
  const std::string s = r.lower_string(64);
  EXPECT_EQ(s.size(), 64u);
  for (const char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng r(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Fnv1a, StableAndDistinct) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
}

TEST(DynamicBitset, SetTestReset) {
  DynamicBitset b(200);
  EXPECT_FALSE(b.any());
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(199);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(199));
  EXPECT_FALSE(b.test(100));
  EXPECT_EQ(b.count(), 4u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  b.clear();
  EXPECT_FALSE(b.any());
}

TEST(DynamicBitset, OrAndIntersect) {
  DynamicBitset a(128), b(128);
  a.set(3);
  a.set(100);
  b.set(100);
  b.set(5);
  EXPECT_TRUE(a.intersects(b));
  DynamicBitset c = a;
  c |= b;
  EXPECT_EQ(c.count(), 3u);
  c &= b;
  EXPECT_EQ(c.count(), 2u);
  DynamicBitset d(128);
  d.set(7);
  EXPECT_FALSE(a.intersects(d));
}

TEST(DynamicBitset, ForEachAndIndices) {
  DynamicBitset b(130);
  b.set(1);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.to_indices(), (std::vector<std::uint32_t>{1, 64, 129}));
}

TEST(DynamicBitset, HashAndEquality) {
  DynamicBitset a(64), b(64);
  a.set(5);
  b.set(5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(6);
  EXPECT_FALSE(a == b);
}

TEST(Timing, RdtscMonotonicish) {
  const auto a = rdtsc_now();
  const auto b = rdtsc_now();
  EXPECT_GE(b, a);
  EXPECT_GT(tsc_ticks_per_second(), 1e6);
}

TEST(Timing, WallTimerAdvances) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(Table, AlignedRendering) {
  TextTable t({"Set", "States", "MB"});
  t.add_row({"C7p", "104", "0.05"});
  t.add_row({"B217p", "5332", "2.60"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("C7p"), std::string::npos);
  EXPECT_NE(s.find("5332"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, CsvRendering) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsPadded) {
  TextTable t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_double(1.2345, 2), "1.23");
  EXPECT_EQ(format_bytes_mb(1024 * 1024), "1.00");
  EXPECT_EQ(format_bytes_mb(256 * 1024 * 1024, 0), "256");
}

TEST(RowStride, ExactDivisionForEveryWidthUpToTheCap) {
  // Every table width, ids from 0 up to the last row the cap admits:
  // offset() is the plain product and id() inverts it exactly. Widths like
  // 65 (odd part > 1) and 192 (shift and inverse) both have to hold.
  Rng rng(65);
  for (std::uint32_t ncols = 1; ncols <= 256; ++ncols) {
    const RowStride rows(ncols);
    const auto max_rows = static_cast<std::uint32_t>((kMaxRowOffsets - 1) / ncols);
    ASSERT_TRUE(RowStride::fits(max_rows, ncols)) << ncols;
    ASSERT_FALSE(RowStride::fits(std::uint64_t{max_rows} + 1, ncols)) << ncols;
    std::uint32_t bad = 0;
    const auto check = [&](std::uint32_t id) {
      const std::uint32_t off = rows.offset(id);
      bad += off != static_cast<std::uint64_t>(id) * ncols || rows.id(off) != id;
    };
    for (std::uint32_t id = 0; id < 512; ++id) check(id);
    for (std::uint32_t id = max_rows - 511; id <= max_rows; ++id) check(id);
    for (int i = 0; i < 512; ++i) check(static_cast<std::uint32_t>(rng.below(max_rows)));
    EXPECT_EQ(bad, 0u) << "ncols " << ncols;
    EXPECT_EQ(rows.ncols(), ncols);
  }
}

}  // namespace
}  // namespace mfa::util
