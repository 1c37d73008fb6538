// Nemesis-style lock-free shared-memory queues.
//
// Each rank owns one RECEIVE queue (multi-producer / single-consumer) and one
// FREE queue holding its pool of message cells. A sender dequeues a cell from
// ITS OWN free queue, fills it, and enqueues it on the receiver's recv queue;
// after draining a cell the receiver returns it to the owner's free queue.
// This is the enqueue/dequeue design used by MPICH's Nemesis channel: tail is
// updated with an atomic exchange, and the transiently broken head->next link
// is repaired by the producer while the consumer waits it out.
//
// Everything is offset-based so the layout works across address spaces.
//
// The runtime no longer uses these queues (every pt2pt message rides the
// pair's fastbox record ring, shm/fastbox.hpp); they stay for the layer
// probes that time them and for tests/test_queue.cpp.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/common.hpp"
#include "shm/arena.hpp"

namespace nemo::shm {

/// Message cell types (protocol messages of the nemo runtime).
enum class CellType : std::uint16_t {
  kEagerFirst = 1,  ///< First (or only) chunk of an eager message.
  kEagerBody = 2,   ///< Continuation chunk of an eager message.
  kRts = 3,         ///< Rendezvous request-to-send, payload = LMT wire cookie.
  kCts = 4,         ///< Clear-to-send, payload = receiver LMT wire cookie.
  kFin = 5,         ///< Transfer finished (releases sender-side resources).
};

/// Fixed-size message cell. Header + inline payload.
struct alignas(kCacheLine) Cell {
  std::uint64_t next;        ///< Offset of next cell in queue (atomic), kNil.
  std::uint32_t src;         ///< Sending rank.
  std::uint16_t type;        ///< CellType.
  std::uint16_t flags;
  std::int32_t tag;          ///< User tag (eager/RTS) or backend data.
  std::uint32_t msg_seq;     ///< Per-(src,dst) sequence for reassembly.
  std::uint64_t total_size;  ///< Full message size (eager-first, RTS).
  std::uint64_t chunk_off;   ///< Offset of this chunk within the message.
  std::uint32_t payload_len; ///< Valid bytes in payload.
  std::uint32_t owner;       ///< Rank whose free queue this cell returns to.

  static constexpr std::size_t kHeaderBytes = 48;
  static constexpr std::size_t kSize = 16 * KiB;
  static constexpr std::size_t kPayload = kSize - kHeaderBytes;

  std::byte payload[kPayload];

  [[nodiscard]] std::byte* data() { return payload; }
  [[nodiscard]] const std::byte* data() const { return payload; }
};
static_assert(sizeof(Cell) == Cell::kSize);
static_assert(offsetof(Cell, payload) == Cell::kHeaderBytes);

/// MPSC queue head/tail block, cacheline-separated to avoid false sharing
/// between the consumer (head) and producers (tail).
struct QueueState {
  alignas(kCacheLine) std::uint64_t head;
  alignas(kCacheLine) std::uint64_t tail;
};

/// A view over a QueueState living in an arena. Cheap to construct; holds no
/// state of its own.
class QueueView {
 public:
  QueueView(Arena& arena, std::uint64_t state_off)
      : arena_(&arena), q_(arena.at_as<QueueState>(state_off)) {}

  /// Initialise an empty queue (single-threaded, at world setup).
  void init() {
    aref(q_->head).store(kNil, std::memory_order_relaxed);
    aref(q_->tail).store(kNil, std::memory_order_release);
  }

  /// Multi-producer enqueue of the cell at `cell_off`.
  void enqueue(std::uint64_t cell_off) {
    Cell* c = arena_->at_as<Cell>(cell_off);
    aref(c->next).store(kNil, std::memory_order_relaxed);
    std::uint64_t prev =
        aref(q_->tail).exchange(cell_off, std::memory_order_acq_rel);
    if (prev == kNil) {
      aref(q_->head).store(cell_off, std::memory_order_release);
    } else {
      Cell* pc = arena_->at_as<Cell>(prev);
      aref(pc->next).store(cell_off, std::memory_order_release);
    }
  }

  /// Single-consumer dequeue; returns kNil when (apparently) empty.
  std::uint64_t dequeue() {
    std::uint64_t h = aref(q_->head).load(std::memory_order_acquire);
    if (h == kNil) return kNil;
    Cell* hc = arena_->at_as<Cell>(h);
    std::uint64_t n = aref(hc->next).load(std::memory_order_acquire);
    if (n != kNil) {
      aref(q_->head).store(n, std::memory_order_relaxed);
      return h;
    }
    // h looks like the last cell. Detach head, then try to swing tail from h
    // to nil. If another producer already replaced the tail, its link to
    // h->next is imminent: wait for it.
    aref(q_->head).store(kNil, std::memory_order_relaxed);
    std::uint64_t expected = h;
    if (aref(q_->tail).compare_exchange_strong(expected, kNil,
                                               std::memory_order_acq_rel)) {
      return h;
    }
    std::uint64_t next;
    do {
      next = aref(hc->next).load(std::memory_order_acquire);
    } while (next == kNil);
    aref(q_->head).store(next, std::memory_order_relaxed);
    return h;
  }

  /// True when both head and tail are nil. Only a hint under concurrency.
  [[nodiscard]] bool empty_hint() const {
    return aref(q_->head).load(std::memory_order_acquire) == kNil &&
           aref(q_->tail).load(std::memory_order_acquire) == kNil;
  }

 private:
  Arena* arena_;
  QueueState* q_;
};

/// Per-rank queue block: receive queue + free-cell queue + the cells.
struct RankQueues {
  std::uint64_t recv_q;  ///< Offset of QueueState.
  std::uint64_t free_q;  ///< Offset of QueueState.
};

/// Allocate and initialise the queue block for one rank: both QueueStates and
/// `ncells` cells parked on the free queue. Returns the RankQueues offsets.
inline RankQueues make_rank_queues(Arena& arena, std::uint32_t owner_rank,
                                   std::size_t ncells) {
  RankQueues rq{};
  rq.recv_q = arena.alloc(sizeof(QueueState), kCacheLine);
  rq.free_q = arena.alloc(sizeof(QueueState), kCacheLine);
  QueueView recv(arena, rq.recv_q), free_q(arena, rq.free_q);
  recv.init();
  free_q.init();
  for (std::size_t i = 0; i < ncells; ++i) {
    std::uint64_t off = arena.alloc(sizeof(Cell), kCacheLine);
    Cell* c = arena.at_as<Cell>(off);
    c->owner = owner_rank;
    free_q.enqueue(off);
  }
  return rq;
}

}  // namespace nemo::shm
