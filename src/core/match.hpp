// MPI-style message matching: posted-receive queue and unexpected-message
// queue with wildcard source/tag, FIFO within a matching class so the MPI
// non-overtaking rule holds (cells from one sender arrive in order, and both
// queues are scanned oldest-first).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/iovec.hpp"
#include "common/pool.hpp"
#include "lmt/lmt.hpp"
#include "tune/counters.hpp"

namespace nemo::core {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct RequestState;

/// A receive the application has posted but that has no matching message yet.
struct PostedRecv {
  int src = kAnySource;
  int tag = kAnyTag;
  int context = 0;  ///< 0 = user pt2pt, 1 = internal collective traffic.
  SegmentList segs;          ///< Destination buffer.
  std::size_t capacity = 0;  ///< total_bytes(segs).
  std::shared_ptr<RequestState> req;
  PostedRecv* next = nullptr;  ///< MatchEngine's queue link.
};

/// A message that arrived before its receive was posted. Either an eager
/// payload (possibly still being reassembled) or a rendezvous RTS.
struct UnexpectedMsg {
  int src = -1;
  int tag = -1;
  int context = 0;
  std::uint32_t seq = 0;
  bool is_rndv = false;

  // Eager: buffered payload.
  std::vector<std::byte> data;
  std::size_t bytes_arrived = 0;
  std::size_t total = 0;
  [[nodiscard]] bool eager_complete() const { return bytes_arrived == total; }

  // Rendezvous: the RTS wire cookie.
  lmt::RtsWire rts{};

  UnexpectedMsg* next = nullptr;  ///< MatchEngine's queue link.
};

/// Oldest-first queue of nodes linked through their `next` field: queuing
/// and unlinking never allocate. Owns the queued nodes.
template <typename Node>
class NodeQueue {
 public:
  NodeQueue() = default;
  NodeQueue(const NodeQueue&) = delete;
  NodeQueue& operator=(const NodeQueue&) = delete;
  ~NodeQueue() {
    while (head_ != nullptr) delete std::exchange(head_, head_->next);
  }

  void push_back(std::unique_ptr<Node> n) {
    Node* p = n.release();
    p->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = p;
    tail_ = p;
    ++size_;
  }

  /// The oldest node for which `pred` holds, if any.
  template <typename Pred>
  Node* find(Pred&& pred) const {
    for (Node* n = head_; n != nullptr; n = n->next)
      if (pred(*n)) return n;
    return nullptr;
  }

  /// Unlink and return the oldest node for which `pred` holds.
  template <typename Pred>
  std::unique_ptr<Node> take(Pred&& pred) {
    for (Node *n = head_, *prev = nullptr; n != nullptr;
         prev = n, n = n->next) {
      if (!pred(*n)) continue;
      (prev != nullptr ? prev->next : head_) = n->next;
      if (tail_ == n) tail_ = prev;
      --size_;
      n->next = nullptr;
      return std::unique_ptr<Node>(n);
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  std::size_t size_ = 0;
};

[[nodiscard]] inline bool matches(int want_src, int want_tag,
                                  int want_context, int src, int tag,
                                  int context) {
  // Context is never a wildcard: internal collective traffic must not be
  // visible to user-level wildcard receives.
  return want_context == context &&
         (want_src == kAnySource || want_src == src) &&
         (want_tag == kAnyTag || want_tag == tag);
}

class MatchEngine {
 public:
  /// Recycled nodes kept around per kind; beyond this they free. Room for
  /// a 96-receive window (perfbench's fan-in) to come back whole.
  static constexpr std::size_t kPoolCap = 128;

  MatchEngine();
  ~MatchEngine();
  MatchEngine(const MatchEngine&) = delete;
  MatchEngine& operator=(const MatchEngine&) = delete;

  /// Post a receive: first scan unexpected (oldest first); if found, the
  /// unexpected entry is removed and returned and `pr` is left untouched
  /// (recycle() the entry once its payload is consumed). Otherwise `pr` is
  /// moved into a pooled node and queued.
  std::unique_ptr<UnexpectedMsg> post_recv(PostedRecv& pr);

  /// An incoming envelope (eager-first or RTS): match against posted recvs
  /// (oldest first). Returns the posted recv if matched; recycle() it once
  /// its buffer and request are handed on.
  std::unique_ptr<PostedRecv> match_incoming(int src, int tag, int context);

  /// A blank UnexpectedMsg with `data` sized to `payload_bytes`, reusing a
  /// pooled node/buffer when one is large enough — the unexpected-receive
  /// hot path used to pay a heap allocation per message here. Pool traffic
  /// is counted on the attached tune::Counters (um_pool_hits/misses).
  std::unique_ptr<UnexpectedMsg> acquire_unexpected(std::size_t payload_bytes);

  /// Return a fully-consumed unexpected message to the pool (buffer
  /// capacity is kept; contents are dead).
  void recycle(std::unique_ptr<UnexpectedMsg> um);
  /// Return a matched posted receive to the pool. Its request reference and
  /// segment list are dropped at once, so the pool holds no request.
  void recycle(std::unique_ptr<PostedRecv> pr);

  /// Queue an unexpected message.
  void add_unexpected(std::unique_ptr<UnexpectedMsg> um);

  /// Find an unexpected eager message still being reassembled.
  UnexpectedMsg* find_partial(int src, std::uint32_t seq);

  /// Telemetry sink for the pool counters (not owned; may be null).
  void set_counters(tune::Counters* c) { counters_ = c; }

  [[nodiscard]] std::size_t posted_count() const { return posted_.size(); }
  [[nodiscard]] std::size_t unexpected_count() const {
    return unexpected_.size();
  }
  /// Pooled UnexpectedMsg nodes.
  [[nodiscard]] std::size_t pooled_count() const { return pool_.size(); }
  /// Pooled PostedRecv nodes.
  [[nodiscard]] std::size_t posted_pooled_count() const {
    return posted_pool_.size();
  }

 private:
  NodeQueue<PostedRecv> posted_;
  NodeQueue<UnexpectedMsg> unexpected_;
  // Parked nodes are poisoned under ASan (common/pool.hpp).
  std::vector<std::unique_ptr<UnexpectedMsg>> pool_;
  std::vector<std::unique_ptr<PostedRecv>> posted_pool_;
  tune::Counters* counters_ = nullptr;
};

}  // namespace nemo::core
