// The Large Message Transfer (LMT) interface — nemolmt's reimplementation of
// the MPICH2-Nemesis internal API this paper extends (§2).
//
// A rendezvous transfer flows:
//
//   sender                                receiver
//   ------                                --------
//   send_init()  -> RTS(wire cookie) ->   [match posted recv]
//                                          recv_init()
//                <- CTS (if needs_cts) <-
//   send_progress() ... data ...           recv_progress() ...
//                <- FIN (if needs_fin) <-
//   send_fin(), request completes          request completes
//
// Each backend fills/consumes the wire cookie and moves the payload its own
// way: double-buffered shm ring (default), vmsplice'd pipe (single copy),
// writev'd pipe (two copies, Fig. 3's comparison), or the KNEM device
// (single copy, optionally DMA-offloaded and/or asynchronous).
//
// KNEM's synchronous CPU copy splits that single copy between both cores:
//
//   sender                                receiver
//   ------                                --------
//   send_init(): cookie -> RTS ->          recv_init(): resolve the cookie,
//                                          cut chunks, publish them in the
//                                          cookie's share block
//   send_progress(): claim + copy chunks   recv_progress(): claim + copy
//     until none is left                     chunks; done once every
//                                            chunk has landed
//                <- FIN <-
//   send_fin(): release the cookie
#pragma once

#include <cstdint>
#include <memory>

#include "common/iovec.hpp"
#include "common/topology.hpp"
#include "knem/knem_device.hpp"

namespace nemo {

namespace core {
class World;
class Engine;
}  // namespace core

namespace lmt {

/// Which transfer mechanism a rendezvous uses.
enum class LmtKind : std::uint32_t {
  kDefaultShm = 0,     ///< Double-buffered copy through shared memory.
  kVmsplice = 1,       ///< Single copy via vmsplice + readv.
  kVmspliceWritev = 2, ///< Two copies via writev + readv (Fig. 3 baseline).
  kKnem = 3,           ///< Single copy via the KNEM pseudo-device.
  kAuto = 100,         ///< Let the policy pick per message (§3.5).
};

const char* to_string(LmtKind k);

/// KNEM operating mode (paper §3.3-3.4).
enum class KnemMode : std::uint32_t {
  kSyncCopy = 0,   ///< CPU copy split between receiver and waiting sender.
  kAsyncCopy = 1,  ///< Kernel-thread offload on the receiver core.
  kSyncDma = 2,    ///< I/OAT engine, polled before returning.
  kAsyncDma = 3,   ///< I/OAT engine, status-byte completion.
  kAuto = 100,     ///< DMA iff size >= DMAmin; async iff DMA (paper default).
};

const char* to_string(KnemMode m);

/// Wire cookie carried inside the RTS (and echoed info in CTS) cells.
struct RtsWire {
  std::uint64_t total = 0;        ///< Message payload size in bytes.
  std::uint32_t kind = 0;         ///< Concrete LmtKind chosen by the sender.
  std::uint32_t knem_flags = 0;   ///< kFlagDma/kFlagAsync hints.
  std::uint64_t knem_cookie = 0;  ///< KNEM cookie id (kKnem only).
  std::uint32_t sender_core = 0;  ///< For receiver-side policy decisions.
  std::uint32_t nsegs = 0;        ///< Segment count of the send buffer.
};
static_assert(sizeof(RtsWire) == 32);

/// Sender-side per-transfer state.
struct SendCtx {
  int peer = -1;
  int tag = 0;
  std::uint32_t seq = 0;
  ConstSegmentList segs;
  std::uint64_t total = 0;
  RtsWire rts{};

  bool cts_seen = false;
  bool fin_seen = false;
  bool data_done = false;  ///< Backend finished its sender-side data motion.

  // Backend scratch.
  std::uint64_t ring_cursor = 0;   ///< shm ring chunk index.
  std::size_t bytes_moved = 0;
  std::size_t seg_idx = 0;         ///< Position in segs...
  std::size_t seg_off = 0;         ///< ...and offset within segs[seg_idx].
  std::uint64_t knem_cookie = 0;

  void* user = nullptr;  ///< Engine backref (request state).
};

/// Receiver-side per-transfer state.
struct RecvCtx {
  int peer = -1;
  int tag = 0;
  std::uint32_t seq = 0;
  SegmentList segs;
  std::uint64_t total = 0;   ///< From RTS (may be < recv buffer capacity).
  RtsWire rts{};

  bool cts_sent = false;
  bool data_done = false;
  bool fin_sent = false;

  // Backend scratch.
  std::uint64_t ring_cursor = 0;
  std::size_t bytes_moved = 0;
  std::size_t seg_idx = 0;
  std::size_t seg_off = 0;
  std::uint8_t async_status = 0;  ///< KNEM async completion byte.
  bool async_submitted = false;
  knem::ShareRecv knem_share;  ///< KNEM synchronous CPU copy: resolved once.

  void* user = nullptr;

  /// Waits for a queued KNEM DMA job first (lmt_knem.cpp).
  ~RecvCtx();
};

/// Backend interface. One instance per (rank, kind); stateless across
/// transfers except for references to shared structures.
class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual LmtKind kind() const = 0;

  /// Sender must wait for CTS before moving data (ring/pipe backends).
  [[nodiscard]] virtual bool needs_cts() const = 0;

  /// Receiver must send FIN when done (cookie release / page-reuse safety).
  [[nodiscard]] virtual bool needs_fin() const = 0;

  /// Fill ctx.rts (register cookies etc.). Called before the RTS is sent.
  virtual void send_init(SendCtx& ctx) = 0;

  /// Move sender-side data. Returns true when the sender-local part is done.
  /// Only called after CTS when needs_cts().
  virtual bool send_progress(SendCtx& ctx) = 0;

  /// Called when FIN arrives (release registration). Also called on abort.
  virtual void send_fin(SendCtx& ctx) = 0;

  /// Prepare receiver state after RTS is matched with a posted recv.
  virtual void recv_init(RecvCtx& ctx) = 0;

  /// Move receiver-side data. Returns true when all payload has landed.
  virtual bool recv_progress(RecvCtx& ctx) = 0;
};

/// Overall sender completion: data moved, and FIN seen when required.
inline bool send_complete(const Backend& b, const SendCtx& ctx) {
  if (!ctx.data_done) return false;
  if (b.needs_fin() && !ctx.fin_seen) return false;
  return true;
}

}  // namespace lmt
}  // namespace nemo
