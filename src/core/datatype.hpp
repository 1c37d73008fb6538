// Minimal MPI-style datatypes: contiguous blocks, strided vectors, and
// indexed block lists, plus lowering to segment lists. KNEM cookies take
// the segment lists directly ("vectorial buffers", one of KNEM's
// advantages over LiMIC2 per §5), and the strided collectives hand them to
// the pt2pt engine instead of packing.
#pragma once

#include <cstddef>
#include <vector>

#include "common/iovec.hpp"

namespace nemo::core {

class Datatype {
 public:
  /// One merged block of an element's layout: `off` bytes from the element
  /// base, `len` contiguous bytes. Blocks are ascending and non-adjacent
  /// (adjacent input blocks merge at construction).
  struct Block {
    std::size_t off;
    std::size_t len;
  };

  /// `bytes` contiguous bytes per element.
  static Datatype contiguous(std::size_t bytes);

  /// `count` blocks of `blocklen` bytes, placed `stride` bytes apart
  /// (stride >= blocklen). Extent is (count-1)*stride + blocklen.
  static Datatype vector(std::size_t count, std::size_t blocklen,
                         std::size_t stride);

  /// MPI_Type_indexed-style: blocks.size() blocks where block i spans
  /// [displs[i], displs[i] + blocklens[i]) bytes from the element base.
  /// Displacements must ascend without overlap; blocks that abut are
  /// merged, so e.g. {8,8} at {0,8} collapses to contiguous(16). Extent is
  /// the end of the last block.
  static Datatype indexed(const std::vector<std::size_t>& blocklens,
                          const std::vector<std::size_t>& displs);

  /// Packed payload bytes of one element.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Memory footprint of one element (distance between consecutive
  /// elements in an array of this type).
  [[nodiscard]] std::size_t extent() const { return extent_; }

  [[nodiscard]] bool is_contiguous() const {
    return blocks_.size() == 1 && blocks_[0].off == 0 &&
           blocks_[0].len == size_;
  }

  /// Merged per-element layout (ascending, non-adjacent).
  [[nodiscard]] const std::vector<Block>& blocks() const { return blocks_; }

  /// Lower `count` elements at `base` to a segment list. Adjacent segments
  /// are merged, including across element boundaries.
  [[nodiscard]] SegmentList map(std::byte* base, std::size_t count) const;
  [[nodiscard]] ConstSegmentList map(const std::byte* base,
                                     std::size_t count) const;

  /// Pack `count` elements from `base` into `out` (out must hold
  /// size()*count bytes); unpack is the inverse.
  void pack(const std::byte* base, std::size_t count, std::byte* out) const;
  void unpack(const std::byte* in, std::size_t count, std::byte* base) const;

 private:
  Datatype(std::vector<Block> blocks, std::size_t extent);
  std::vector<Block> blocks_;
  std::size_t size_ = 0;
  std::size_t extent_ = 0;
};

}  // namespace nemo::core
