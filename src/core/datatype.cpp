#include "core/datatype.hpp"

#include <cstring>

#include "common/common.hpp"
#include "shm/nt_copy.hpp"

namespace nemo::core {

Datatype::Datatype(std::vector<Block> blocks, std::size_t extent)
    : blocks_(std::move(blocks)), extent_(extent) {
  NEMO_ASSERT(!blocks_.empty());
  for (const Block& b : blocks_) size_ += b.len;
  NEMO_ASSERT(extent_ >= blocks_.back().off + blocks_.back().len);
}

Datatype Datatype::contiguous(std::size_t bytes) {
  NEMO_ASSERT(bytes > 0);
  return Datatype({Block{0, bytes}}, bytes);
}

Datatype Datatype::vector(std::size_t count, std::size_t blocklen,
                          std::size_t stride) {
  NEMO_ASSERT(count >= 1 && blocklen >= 1);
  NEMO_ASSERT(stride >= blocklen);
  std::vector<std::size_t> lens(count, blocklen), offs(count);
  for (std::size_t i = 0; i < count; ++i) offs[i] = i * stride;
  return indexed(lens, offs);
}

Datatype Datatype::indexed(const std::vector<std::size_t>& blocklens,
                           const std::vector<std::size_t>& displs) {
  NEMO_ASSERT(!blocklens.empty() && blocklens.size() == displs.size());
  std::vector<Block> blocks;
  blocks.reserve(blocklens.size());
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    NEMO_ASSERT(blocklens[i] >= 1);
    // Ascending, non-overlapping layout (the map/pack order is the memory
    // order, so an overlapping or reordered list has no single meaning).
    if (!blocks.empty()) {
      std::size_t prev_end = blocks.back().off + blocks.back().len;
      NEMO_ASSERT(displs[i] >= prev_end);
      if (displs[i] == prev_end) {  // Abutting blocks merge.
        blocks.back().len += blocklens[i];
        continue;
      }
    }
    blocks.push_back(Block{displs[i], blocklens[i]});
  }
  std::size_t extent = blocks.back().off + blocks.back().len;
  return Datatype(std::move(blocks), extent);
}

namespace {

template <typename Seg, typename Byte>
SegVec<Seg> map_impl(Byte* base, std::size_t count,
                     const std::vector<Datatype::Block>& blocks,
                     std::size_t extent) {
  SegVec<Seg> out;
  out.reserve(blocks.size() == 1 ? 1 : count * blocks.size());
  for (std::size_t e = 0; e < count; ++e) {
    Byte* eb = base + e * extent;
    for (const Datatype::Block& b : blocks) {
      Byte* p = eb + b.off;
      // Merge with the previous segment when adjacent (this is what turns
      // a packed element array into a single run).
      if (!out.empty() && out.back().base + out.back().len == p)
        out.back().len += b.len;
      else
        out.push_back(Seg{p, b.len});
    }
  }
  return out;
}

}  // namespace

SegmentList Datatype::map(std::byte* base, std::size_t count) const {
  return map_impl<Segment>(base, count, blocks_, extent_);
}

ConstSegmentList Datatype::map(const std::byte* base,
                               std::size_t count) const {
  return map_impl<ConstSegment>(base, count, blocks_, extent_);
}

void Datatype::pack(const std::byte* base, std::size_t count, std::byte* out,
                    bool nt) const {
  if (is_contiguous()) {
    shm::copy_for(nt, out, base, size_ * count);
    return;
  }
  for (std::size_t e = 0; e < count; ++e) {
    const std::byte* eb = base + e * extent_;
    for (const Block& b : blocks_) {
      shm::copy_for(nt, out, eb + b.off, b.len);
      out += b.len;
    }
  }
}

void Datatype::unpack(const std::byte* in, std::size_t count,
                      std::byte* base, bool nt) const {
  if (is_contiguous()) {
    shm::copy_for(nt, base, in, size_ * count);
    return;
  }
  for (std::size_t e = 0; e < count; ++e) {
    std::byte* eb = base + e * extent_;
    for (const Block& b : blocks_) {
      shm::copy_for(nt, eb + b.off, in, b.len);
      in += b.len;
    }
  }
}

}  // namespace nemo::core
