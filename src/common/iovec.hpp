// Scatter/gather segment lists. KNEM cookies describe send buffers as vectors
// of virtual segments; datatypes (vector/strided) lower to the same form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "common/common.hpp"

namespace nemo {

/// One contiguous virtual-memory segment.
struct Segment {
  std::byte* base = nullptr;
  std::size_t len = 0;
};

struct ConstSegment {
  const std::byte* base = nullptr;
  std::size_t len = 0;
};

/// A segment list: a vector that keeps its first segment inline, so a
/// contiguous buffer (one segment, the common case) never touches the heap.
/// It offers the part of std::vector's interface the runtime uses; longer
/// lists spill to a heap buffer that doubles as they grow.
template <typename Seg>
class SegVec {
  static_assert(std::is_trivially_copyable_v<Seg>);

 public:
  using value_type = Seg;

  SegVec() = default;
  SegVec(std::initializer_list<Seg> segs) { assign(segs.begin(), segs.end()); }
  template <std::input_iterator It>
  SegVec(It first, It last) {
    assign(first, last);
  }
  SegVec(const SegVec& o) { assign(o.begin(), o.end()); }
  SegVec(SegVec&& o) noexcept { steal(o); }
  SegVec& operator=(const SegVec& o) {
    if (this != &o) assign(o.begin(), o.end());
    return *this;
  }
  SegVec& operator=(SegVec&& o) noexcept {
    if (this != &o) {
      ::operator delete(heap_);
      steal(o);
    }
    return *this;
  }
  SegVec& operator=(std::initializer_list<Seg> segs) {
    assign(segs.begin(), segs.end());
    return *this;
  }
  ~SegVec() { ::operator delete(heap_); }

  template <std::input_iterator It>
  void assign(It first, It last) {
    clear();
    if constexpr (std::forward_iterator<It>)
      reserve(static_cast<std::size_t>(std::distance(first, last)));
    for (; first != last; ++first) push_back(*first);
  }

  void reserve(std::size_t n) {
    if (n <= cap_) return;
    auto* grown = static_cast<Seg*>(::operator new(n * sizeof(Seg)));
    if (size_ != 0) std::memcpy(grown, data(), size_ * sizeof(Seg));
    ::operator delete(heap_);
    heap_ = grown;
    cap_ = n;
  }
  void push_back(const Seg& s) {
    const Seg copy = s;  // `s` may live in the buffer reserve() frees.
    if (size_ == cap_) reserve(2 * cap_);
    data()[size_++] = copy;
  }
  void clear() { size_ = 0; }  // Keeps the capacity.

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] Seg* data() { return heap_ != nullptr ? heap_ : &one_; }
  [[nodiscard]] const Seg* data() const {
    return heap_ != nullptr ? heap_ : &one_;
  }
  Seg* begin() { return data(); }
  Seg* end() { return data() + size_; }
  [[nodiscard]] const Seg* begin() const { return data(); }
  [[nodiscard]] const Seg* end() const { return data() + size_; }
  Seg& operator[](std::size_t i) { return data()[i]; }
  const Seg& operator[](std::size_t i) const { return data()[i]; }
  Seg& back() { return data()[size_ - 1]; }
  [[nodiscard]] const Seg& back() const { return data()[size_ - 1]; }

 private:
  /// Take `o`'s contents (its heap buffer or a copy of its inline segment)
  /// and leave it empty with inline capacity.
  void steal(SegVec& o) noexcept {
    heap_ = std::exchange(o.heap_, nullptr);
    size_ = std::exchange(o.size_, 0);
    cap_ = std::exchange(o.cap_, 1);
    one_ = o.one_;
  }

  Seg* heap_ = nullptr;  ///< Spilled storage; null while inline.
  std::size_t size_ = 0;
  std::size_t cap_ = 1;
  Seg one_{};
};

using SegmentList = SegVec<Segment>;
using ConstSegmentList = SegVec<ConstSegment>;

inline std::size_t total_bytes(const SegmentList& v) {
  std::size_t n = 0;
  for (const auto& s : v) n += s.len;
  return n;
}
inline std::size_t total_bytes(const ConstSegmentList& v) {
  std::size_t n = 0;
  for (const auto& s : v) n += s.len;
  return n;
}

inline ConstSegmentList as_const(const SegmentList& v) {
  ConstSegmentList out;
  out.reserve(v.size());
  for (const auto& s : v) out.push_back({s.base, s.len});
  return out;
}

/// Cursor over a segment list, for chunked copies that cross segment
/// boundaries. Advancing never allocates.
class SegmentCursor {
 public:
  explicit SegmentCursor(std::span<const Segment> segs) : segs_(segs) {}

  [[nodiscard]] bool done() const { return idx_ >= segs_.size(); }

  /// Remaining bytes across all segments.
  [[nodiscard]] std::size_t remaining() const {
    std::size_t n = 0;
    for (std::size_t i = idx_; i < segs_.size(); ++i) n += segs_[i].len;
    return n >= off_ ? n - off_ : 0;
  }

  /// The next contiguous piece, at most `max_len` bytes. Advances the cursor.
  Segment take(std::size_t max_len) {
    NEMO_ASSERT(!done());
    const Segment& s = segs_[idx_];
    std::size_t avail = s.len - off_;
    std::size_t n = avail < max_len ? avail : max_len;
    Segment out{s.base + off_, n};
    off_ += n;
    if (off_ == s.len) {
      ++idx_;
      off_ = 0;
      // Skip empty segments so done() is accurate.
      while (idx_ < segs_.size() && segs_[idx_].len == 0) ++idx_;
    }
    return out;
  }

 private:
  std::span<const Segment> segs_;
  std::size_t idx_ = 0;
  std::size_t off_ = 0;
};

/// Copy between two segment lists (generalised memcpy). Returns bytes copied
/// = min(total(src), total(dst)).
std::size_t gather_scatter_copy(std::span<const Segment> dst,
                                std::span<const ConstSegment> src);

inline std::size_t gather_scatter_copy(std::span<const Segment> dst,
                                       std::span<const Segment> src) {
  ConstSegmentList c;
  c.reserve(src.size());
  for (const auto& s : src) c.push_back({s.base, s.len});
  return gather_scatter_copy(dst, std::span<const ConstSegment>(c));
}

}  // namespace nemo
