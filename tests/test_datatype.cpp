// Datatypes: size/extent math, segment lowering with merging, pack/unpack
// round trips (including a property sweep over geometries).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/checksum.hpp"
#include "core/datatype.hpp"

namespace nemo::core {
namespace {

TEST(Datatype, ContiguousBasics) {
  Datatype dt = Datatype::contiguous(100);
  EXPECT_EQ(dt.size(), 100u);
  EXPECT_EQ(dt.extent(), 100u);
  EXPECT_TRUE(dt.is_contiguous());
  std::vector<std::byte> buf(300);
  SegmentList segs = dt.map(buf.data(), 3);
  ASSERT_EQ(segs.size(), 1u);  // Packed elements merge into one run.
  EXPECT_EQ(segs[0].len, 300u);
}

TEST(Datatype, VectorGeometry) {
  Datatype dt = Datatype::vector(4, 16, 64);
  EXPECT_EQ(dt.size(), 64u);
  EXPECT_EQ(dt.extent(), 3 * 64 + 16u);
  EXPECT_FALSE(dt.is_contiguous());
}

TEST(Datatype, VectorWithStrideEqualBlocklenIsContiguous) {
  Datatype dt = Datatype::vector(8, 32, 32);
  EXPECT_TRUE(dt.is_contiguous());
  EXPECT_EQ(dt.size(), dt.extent());
  std::vector<std::byte> buf(dt.extent() * 2);
  SegmentList segs = dt.map(buf.data(), 2);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].len, dt.size() * 2);
}

TEST(Datatype, MapProducesOneSegmentPerBlock) {
  Datatype dt = Datatype::vector(3, 10, 50);
  std::vector<std::byte> buf(dt.extent());
  SegmentList segs = dt.map(buf.data(), 1);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].base, buf.data());
  EXPECT_EQ(segs[1].base, buf.data() + 50);
  EXPECT_EQ(segs[2].base, buf.data() + 100);
  for (const auto& s : segs) EXPECT_EQ(s.len, 10u);
}

TEST(Datatype, AdjacentBlocksAcrossElementsMerge) {
  // Element: 2 blocks of 8 at stride 8 -> fully contiguous inside; extent 16
  // means elements also abut: everything merges.
  Datatype dt = Datatype::vector(2, 8, 8);
  std::vector<std::byte> buf(64);
  SegmentList segs = dt.map(buf.data(), 4);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].len, 64u);
}

TEST(Datatype, IndexedGeometryAndMerging) {
  // Three blocks, the middle two abutting: {4@0, 8@16, 8@24} -> two merged
  // blocks {4@0, 16@16}.
  Datatype dt = Datatype::indexed({4, 8, 8}, {0, 16, 24});
  EXPECT_EQ(dt.size(), 20u);
  EXPECT_EQ(dt.extent(), 32u);
  EXPECT_FALSE(dt.is_contiguous());
  ASSERT_EQ(dt.blocks().size(), 2u);
  EXPECT_EQ(dt.blocks()[0].off, 0u);
  EXPECT_EQ(dt.blocks()[0].len, 4u);
  EXPECT_EQ(dt.blocks()[1].off, 16u);
  EXPECT_EQ(dt.blocks()[1].len, 16u);
}

TEST(Datatype, IndexedFullyAdjacentCollapsesToContiguous) {
  Datatype dt = Datatype::indexed({8, 8, 16}, {0, 8, 16});
  EXPECT_TRUE(dt.is_contiguous());
  EXPECT_EQ(dt.size(), 32u);
  EXPECT_EQ(dt.extent(), 32u);
}

TEST(Datatype, IndexedLeadingGapIsNotContiguous) {
  // A single block not at offset 0 packs fine but is not contiguous (the
  // element base does not coincide with the data).
  Datatype dt = Datatype::indexed({16}, {8});
  EXPECT_FALSE(dt.is_contiguous());
  EXPECT_EQ(dt.size(), 16u);
  EXPECT_EQ(dt.extent(), 24u);
}

TEST(Datatype, IndexedMapPackUnpackRoundTrip) {
  Datatype dt = Datatype::indexed({3, 5, 2}, {1, 10, 20});
  constexpr std::size_t kElems = 6;
  std::vector<std::byte> original(dt.extent() * kElems);
  pattern_fill(original, 97);

  std::vector<std::byte> packed(dt.size() * kElems);
  dt.pack(original.data(), kElems, packed.data());
  std::vector<std::byte> restored(original.size(), std::byte{0});
  dt.unpack(packed.data(), kElems, restored.data());

  SegmentList segs = dt.map(restored.data(), kElems);
  SegmentList orig_segs = dt.map(original.data(), kElems);
  ASSERT_EQ(segs.size(), orig_segs.size());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    ASSERT_EQ(segs[i].len, orig_segs[i].len);
    EXPECT_EQ(std::memcmp(segs[i].base, orig_segs[i].base, segs[i].len), 0);
  }
  EXPECT_EQ(total_bytes(segs), packed.size());
  // Gap bytes stay zero after unpack.
  std::size_t nonzero = 0;
  for (std::byte b : restored)
    if (b != std::byte{0}) ++nonzero;
  EXPECT_LE(nonzero, dt.size() * kElems);
}

using Geometry = std::tuple<std::size_t, std::size_t, std::size_t,
                            std::size_t>;  // count, blocklen, stride, elems

class DatatypePackProperty : public ::testing::TestWithParam<Geometry> {};

TEST_P(DatatypePackProperty, PackUnpackRoundTrip) {
  auto [count, blocklen, stride, elems] = GetParam();
  Datatype dt = Datatype::vector(count, blocklen, stride);
  std::size_t footprint = dt.extent() * elems;
  std::vector<std::byte> original(footprint);
  pattern_fill(original, count * 31 + blocklen);

  std::vector<std::byte> packed(dt.size() * elems);
  dt.pack(original.data(), elems, packed.data());

  std::vector<std::byte> restored(footprint, std::byte{0});
  dt.unpack(packed.data(), elems, restored.data());

  // Every block byte restored; gap bytes zero.
  SegmentList segs = dt.map(restored.data(), elems);
  SegmentList orig_segs = dt.map(original.data(), elems);
  ASSERT_EQ(segs.size(), orig_segs.size());
  for (std::size_t i = 0; i < segs.size(); ++i) {
    ASSERT_EQ(segs[i].len, orig_segs[i].len);
    EXPECT_EQ(std::memcmp(segs[i].base, orig_segs[i].base, segs[i].len), 0);
  }
  // Total mapped bytes == packed size.
  EXPECT_EQ(total_bytes(segs), packed.size());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DatatypePackProperty,
    ::testing::Values(Geometry{1, 1, 1, 1}, Geometry{1, 128, 128, 4},
                      Geometry{4, 16, 64, 3}, Geometry{7, 3, 5, 10},
                      Geometry{16, 64, 100, 2}, Geometry{2, 8, 8, 8},
                      Geometry{256, 1024, 3072, 1}, Geometry{3, 1, 7, 5}));

TEST(Datatype, MapConstMatchesMutable) {
  Datatype dt = Datatype::vector(4, 8, 24);
  std::vector<std::byte> buf(dt.extent());
  SegmentList m = dt.map(buf.data(), 1);
  ConstSegmentList c =
      dt.map(static_cast<const std::byte*>(buf.data()), 1);
  ASSERT_EQ(m.size(), c.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m[i].base, c[i].base);
    EXPECT_EQ(m[i].len, c[i].len);
  }
}

}  // namespace
}  // namespace nemo::core
