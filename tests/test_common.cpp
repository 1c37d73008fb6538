// Unit tests for the common substrate: byte units, size parsing, checksums,
// pattern fill/verify, iovec math, statistics.
#include <gtest/gtest.h>

#include "common/checksum.hpp"
#include "common/common.hpp"
#include "common/iovec.hpp"
#include "common/options.hpp"
#include "common/timing.hpp"

namespace nemo {
namespace {

TEST(Common, RoundUpDownPow2) {
  EXPECT_EQ(round_up(0, 64), 0u);
  EXPECT_EQ(round_up(1, 64), 64u);
  EXPECT_EQ(round_up(64, 64), 64u);
  EXPECT_EQ(round_up(65, 64), 128u);
  EXPECT_EQ(round_down(63, 64), 0u);
  EXPECT_EQ(round_down(64, 64), 64u);
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(64), 6u);
  EXPECT_EQ(log2_exact(4 * MiB), 22u);
}

TEST(Common, FormatSize) {
  EXPECT_EQ(format_size(64 * KiB), "64KiB");
  EXPECT_EQ(format_size(4 * MiB), "4MiB");
  EXPECT_EQ(format_size(2 * GiB), "2GiB");
  EXPECT_EQ(format_size(1000), "1000B");
  EXPECT_EQ(format_size(65 * KiB), "65KiB");
}

TEST(Common, ParseSize) {
  EXPECT_EQ(parse_size("123"), 123u);
  EXPECT_EQ(parse_size("64KiB"), 64 * KiB);
  EXPECT_EQ(parse_size("64k"), 64 * KiB);
  EXPECT_EQ(parse_size("4M"), 4 * MiB);
  EXPECT_EQ(parse_size("1G"), 1 * GiB);
  EXPECT_EQ(parse_size("1.5M"), MiB + MiB / 2);
  EXPECT_THROW(parse_size(""), std::invalid_argument);
  EXPECT_THROW(parse_size("12Q"), std::invalid_argument);
  EXPECT_THROW(parse_size("abc"), std::invalid_argument);
}

TEST(Common, PatternFillCheckDetectsCorruption) {
  std::vector<std::byte> buf(4096);
  pattern_fill(buf, 7);
  EXPECT_EQ(pattern_check(buf, 7), kPatternOk);
  EXPECT_NE(pattern_check(buf, 8), kPatternOk);
  buf[1234] ^= std::byte{1};
  EXPECT_EQ(pattern_check(buf, 7), 1234u);
}

TEST(Common, PatternCheckWithOffsetMatchesSuffix) {
  std::vector<std::byte> buf(256);
  pattern_fill(buf, 3);
  std::span<const std::byte> tail(buf.data() + 100, 156);
  EXPECT_EQ(pattern_check(tail, 3, 100), kPatternOk);
  EXPECT_NE(pattern_check(tail, 3, 99), kPatternOk);
}

TEST(Common, Fnv1aStableAndSensitive) {
  std::vector<std::byte> a(100), b(100);
  pattern_fill(a, 1);
  pattern_fill(b, 1);
  EXPECT_EQ(fnv1a(a), fnv1a(b));
  b[50] ^= std::byte{4};
  EXPECT_NE(fnv1a(a), fnv1a(b));
}

TEST(Common, SplitMixDeterministic) {
  SplitMix64 a(9), b(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(10);
  EXPECT_NE(SplitMix64(9).next(), c.next());
  for (int i = 0; i < 1000; ++i) {
    double d = c.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    EXPECT_LT(c.next_below(17), 17u);
  }
}

TEST(Common, StatsSummaries) {
  Stats s;
  for (double v : {3.0, 1.0, 2.0, 5.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Common, MibPerS) {
  EXPECT_NEAR(mib_per_s(1 * MiB, 1'000'000'000ull), 1.0, 1e-9);
  EXPECT_NEAR(mib_per_s(64 * KiB, 8'000ull), 7812.5, 0.1);
  EXPECT_EQ(mib_per_s(123, 0), 0.0);
}

TEST(Iovec, TotalBytesAndAsConst) {
  std::vector<std::byte> b(100);
  SegmentList v{{b.data(), 40}, {b.data() + 50, 10}};
  EXPECT_EQ(total_bytes(v), 50u);
  const ConstSegmentList c = nemo::as_const(v);
  EXPECT_EQ(total_bytes(c), 50u);
  EXPECT_EQ(c[1].base, b.data() + 50);
}

TEST(Iovec, SegmentListKeepsOneSegmentInlineAndSpillsPastIt) {
  std::vector<std::byte> b(100);
  SegmentList one{{b.data(), 64}};
  // The lone segment lives inside the list object: no heap buffer.
  auto* self = reinterpret_cast<const std::byte*>(&one);
  EXPECT_GE(reinterpret_cast<const std::byte*>(one.data()), self);
  EXPECT_LT(reinterpret_cast<const std::byte*>(one.data()),
            self + sizeof one);
  SegmentList moved = std::move(one);
  EXPECT_TRUE(one.empty());
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].base, b.data());
  EXPECT_EQ(moved[0].len, 64u);

  SegmentList many;
  for (std::size_t i = 0; i < 10; ++i) many.push_back({b.data() + i, i});
  SegmentList copy = many;
  SegmentList stolen = std::move(many);
  EXPECT_TRUE(many.empty());
  ASSERT_EQ(copy.size(), 10u);
  ASSERT_EQ(stolen.size(), 10u);
  EXPECT_NE(copy.data(), stolen.data());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(copy[i].base, b.data() + i);
    EXPECT_EQ(stolen[i].len, i);
  }
  copy = moved;  // A spilled list can take an inline one's contents.
  ASSERT_EQ(copy.size(), 1u);
  EXPECT_EQ(copy[0].len, 64u);
}

TEST(Iovec, SegmentCursorWalksAcrossBoundaries) {
  std::vector<std::byte> b(100);
  SegmentList v{{b.data(), 10}, {b.data() + 20, 0}, {b.data() + 30, 15}};
  SegmentCursor cur(v);
  EXPECT_EQ(cur.remaining(), 25u);
  Segment s1 = cur.take(6);
  EXPECT_EQ(s1.base, b.data());
  EXPECT_EQ(s1.len, 6u);
  Segment s2 = cur.take(100);
  EXPECT_EQ(s2.len, 4u);  // Rest of first segment only (contiguity break).
  Segment s3 = cur.take(100);
  EXPECT_EQ(s3.base, b.data() + 30);
  EXPECT_EQ(s3.len, 15u);
  EXPECT_TRUE(cur.done());
}

TEST(Iovec, GatherScatterCopyCrossingBoundaries) {
  std::vector<std::byte> src(64), dst(64, std::byte{0});
  pattern_fill(src, 5);
  ConstSegmentList sv{{src.data(), 10}, {src.data() + 10, 30},
                      {src.data() + 40, 24}};
  SegmentList dv{{dst.data(), 7}, {dst.data() + 7, 57}};
  EXPECT_EQ(gather_scatter_copy(dv, sv), 64u);
  EXPECT_EQ(pattern_check(dst, 5), kPatternOk);
}

TEST(Iovec, GatherScatterCopiesMinOfTotals) {
  std::vector<std::byte> src(32), dst(16);
  pattern_fill(src, 2);
  ConstSegmentList sv{{src.data(), 32}};
  SegmentList dv{{dst.data(), 16}};
  EXPECT_EQ(gather_scatter_copy(dv, sv), 16u);
  EXPECT_EQ(pattern_check(dst, 2), kPatternOk);
}

TEST(Options, ParseAndTypes) {
  const char* argv[] = {"prog", "--size=64KiB", "--iters=10",
                        "--ratio=0.5", "--flag"};
  Options o(5, const_cast<char**>(argv));
  EXPECT_EQ(o.get_size("size", 0), 64 * KiB);
  EXPECT_EQ(o.get_int("iters", 0), 10);
  EXPECT_DOUBLE_EQ(o.get_double("ratio", 0), 0.5);
  EXPECT_TRUE(o.get_flag("flag"));
  EXPECT_FALSE(o.get_flag("other"));
  EXPECT_EQ(o.get_int("missing", 42), 42);
}

TEST(Options, FinalizeRejectsUnknown) {
  const char* argv[] = {"prog", "--oops=1"};
  Options o(2, const_cast<char**>(argv));
  o.declare("size", "message size");
  EXPECT_THROW(o.finalize(), std::invalid_argument);
}

TEST(Options, RejectsMalformed) {
  const char* argv[] = {"prog", "notanoption"};
  EXPECT_THROW(Options(2, const_cast<char**>(argv)), std::invalid_argument);
}

TEST(Options, TypedGettersShareTheKnobParsers) {
  const char* argv[] = {"prog",         "--ranks=eight", "--procs=off",
                        "--quick=on",   "--ratio=half",  "--size=4Q",
                        "--flag=maybe", "--iters=12x"};
  Options o(8, const_cast<char**>(argv));
  // A non-number is an error naming the option, not a silent 0.
  try {
    (void)o.get_int("ranks", 4);
    ADD_FAILURE() << "--ranks=eight parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--ranks"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)o.get_int("iters", 1), std::invalid_argument);
  EXPECT_THROW((void)o.get_double("ratio", 1.0), std::invalid_argument);
  EXPECT_THROW((void)o.get_size("size", 0), std::invalid_argument);
  // Flags use the knob vocabulary: off is false, on is true, junk throws.
  EXPECT_FALSE(o.get_flag("procs"));
  EXPECT_TRUE(o.get_flag("quick"));
  EXPECT_THROW((void)o.get_flag("flag"), std::invalid_argument);
}

TEST(Options, ValueParsers) {
  EXPECT_EQ(parse_int("k", "-3", -5, 5), -3);
  EXPECT_THROW(parse_int("k", "6", -5, 5), std::invalid_argument);
  EXPECT_THROW(parse_int("k", "", 0, 5), std::invalid_argument);
  EXPECT_DOUBLE_EQ(parse_double("k", "2.5"), 2.5);
  EXPECT_THROW(parse_double("k", "inf"), std::invalid_argument);
  for (const char* t : {"1", "true", "on", "yes"})
    EXPECT_TRUE(parse_flag("k", t));
  for (const char* f : {"0", "false", "off", "no"})
    EXPECT_FALSE(parse_flag("k", f));
  EXPECT_EQ(parse_size("k", "4KiB"), 4 * KiB);
  EXPECT_EQ(parse_size("k", "off", /*allow_off=*/true), SIZE_MAX);
  EXPECT_THROW(parse_size("k", "off"), std::invalid_argument);
}

}  // namespace
}  // namespace nemo
