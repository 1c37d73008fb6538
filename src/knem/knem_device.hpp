// KNEM pseudo-device: a user-space reimplementation of the KNEM kernel
// module's command interface (paper §3.2-3.4, Figure 1).
//
//   send command:    declare a (possibly vectorial) send buffer; the device
//                    records its virtual segments, accounts the page pinning,
//                    and returns a COOKIE id. The cookie travels to the
//                    receiver through the normal rendezvous handshake.
//   receive command: hand the device a cookie + a local buffer; the device
//                    moves the data with a single copy. Flags select the
//                    copy engine (CPU vs DMA) and completion model (inline
//                    vs status-byte polled), exactly as in the paper:
//                      (none)     -> CPU copy, cut into chunks that the
//                                    receiver and the waiting sender claim
//                                    from the cookie's share block
//                      kFlagDma   -> I/OAT-like engine (non-temporal, no
//                                    cache fill, background channel)
//                      kFlagAsync -> return immediately; completion = the
//                                    engine's trailing 1-byte status write.
//
// The cookie table lives in the shared arena so every rank (thread or forked
// process) sees the same registry — standing in for kernel memory. Where the
// real module reads the sender's pages via its kernel mapping, we read them
// directly when they are shared (same address space or arena pages) and via
// cross-memory attach otherwise. Without cross-memory attach, the sender
// sends such a buffer through the copy ring instead (Engine::resolve_kind).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/iovec.hpp"
#include "shm/arena.hpp"
#include "shm/dma_engine.hpp"
#include "shm/remote_mem.hpp"

namespace nemo::knem {

inline constexpr std::uint32_t kFlagDma = 1u << 0;
inline constexpr std::uint32_t kFlagAsync = 1u << 1;

inline constexpr std::uint32_t kInlineSegs = 16;
inline constexpr std::uint32_t kBlockSegs = 30;

/// Extension block for cookies with more than kInlineSegs segments.
struct SegBlock {
  std::uint64_t next;  ///< Offset of next block or kNil.
  std::uint32_t nsegs;
  std::uint32_t pad;
  shm::RemoteSegment segs[kBlockSegs];
};

/// Share block of a cookie: one synchronous CPU receive split between the
/// receiver and the waiting sender. The receiver publishes where the
/// payload goes and how it is cut (share_chunk; `n` last, with release);
/// then both parties claim chunk indexes with fetch_add on `claim` and bump
/// `done` (release) after each copied chunk. `claim` and `done` each sit on
/// their own line, away from the published fields.
struct ShareBlock {
  alignas(kCacheLine) std::uint64_t dst;  ///< Receive buffer (see dst_is_off).
  std::uint64_t chunk;       ///< Bytes per chunk; the last may be short.
  std::uint32_t dst_is_off;  ///< 1: dst is an arena offset; 0: an address
                             ///< in the (shared) address space.
  std::uint32_t pad;
  std::uint64_t n;           ///< Chunk count; nonzero = published.
  alignas(kCacheLine) std::uint64_t claim;  ///< Next unclaimed chunk index.
  alignas(kCacheLine) std::uint64_t done;   ///< Chunks copied so far.
};

/// Chunk size of a shared copy: a quarter of the payload rounded up to a
/// cache line, between a page and 256 KiB. Payloads of 16 KiB to 1 MiB are
/// cut in four (four contended claims; eight or more cost more than they
/// balance); from 1 MiB up the chunks stay 256 KiB.
inline std::uint64_t share_chunk(std::uint64_t total) {
  constexpr std::uint64_t kQuarterLine = 4 * kCacheLine;
  return std::clamp<std::uint64_t>(
      (total + kQuarterLine - 1) / kQuarterLine * kCacheLine, 4 * KiB,
      256 * KiB);
}

struct CookieSlot {
  std::uint64_t state;    ///< 0 free, 1 claimed, 2 published (atomic).
  /// generation << 20 | (slot index + 1). The claiming rank bumps the
  /// generation on each claim and release leaves it, so an id from an
  /// earlier claim of the slot never matches again.
  std::uint64_t id;
  std::int32_t owner_pid;
  std::uint32_t owner_rank;
  std::uint32_t nsegs;    ///< Total segments.
  std::uint32_t flags;
  std::uint64_t total_bytes;
  std::uint64_t pinned_pages;
  /// Sender's virtual base address of the shared arena. Forked ranks map the
  /// arena at per-process bases, so arena-resident segments must be rebased
  /// (addr - owner_arena_base + local base) before they are dereferenced.
  std::uint64_t owner_arena_base;
  shm::RemoteSegment inline_segs[kInlineSegs];
  std::uint64_t more;     ///< First SegBlock offset or kNil.
  ShareBlock share;       ///< Reset by submit_send.
};

/// Command counters. The arena holds one line per rank, written only by
/// that rank (Device::stats() sums them into world totals), so the
/// rendezvous bumps no counter another core also writes.
struct alignas(kCacheLine) DeviceStats {
  std::uint64_t send_cmds;
  std::uint64_t recv_cmds;
  std::uint64_t dma_recv_cmds;
  std::uint64_t async_recv_cmds;
  std::uint64_t bytes_copied;   ///< Each byte once, whoever copied it.
  std::uint64_t sender_copied_bytes;  ///< The sender's share of those.
  std::uint64_t pages_pinned;   ///< Cumulative.
  std::uint64_t cookie_leaks;   ///< Releases of stale ids (diagnostic).
};

/// Arena-resident device header. Cookie generations live in the slots
/// (CookieSlot::id), so claiming a cookie writes no shared header word.
struct DeviceState {
  std::uint32_t nslots;
  std::uint32_t nblocks;
  std::uint32_t nranks;
  std::uint32_t block_lock; ///< Spinlock word.
  std::uint64_t slots_off;
  std::uint64_t blocks_off;
  std::uint64_t stats_off;  ///< nranks DeviceStats lines, rank r's at r.
  std::uint64_t block_free; ///< Spinlock-protected freelist head (offset).
};

/// Error results from recv-side command validation.
enum class KnemResult {
  kOk,
  kBadCookie,       ///< Unknown/stale cookie id.
  kTruncated,       ///< Receive buffer smaller than declared send buffer.
};

const char* to_string(KnemResult r);

class ShareRecv;

class Device {
 public:
  /// Allocate + initialise device state in the arena: one stats line per
  /// rank of the `nranks` world. `nslots` bounds the number of in-flight
  /// send declarations; `nblocks` bounds total extension blocks for
  /// highly-fragmented (vectorial) buffers.
  static std::uint64_t create(shm::Arena& arena, int nranks,
                              std::uint32_t nslots = 256,
                              std::uint32_t nblocks = 256);

  Device(shm::Arena& arena, std::uint64_t state_off, int my_rank,
         pid_t my_pid);

  /// SEND COMMAND — declare the buffer, get a cookie id (nonzero).
  /// Accounts pinning of every page the segments touch. The free-slot scan
  /// starts at a rank-specific slot, so ranks do not race for one line.
  std::uint64_t submit_send(std::span<const ConstSegment> segs);

  /// Release a cookie (after the receiver's FIN). Safe on stale ids
  /// (counted in stats as leaks).
  void release(std::uint64_t cookie_id);

  struct Resolved {
    pid_t pid = 0;
    std::uint32_t owner_rank = 0;
    std::uint64_t total = 0;
    shm::RemoteSegmentList segs;
    shm::RemoteMode mode = shm::RemoteMode::kDirect;
  };

  /// Look up a cookie and decide the copy mode (direct for same-address-
  /// space or arena-resident buffers; CMA otherwise).
  [[nodiscard]] std::optional<Resolved> resolve(std::uint64_t cookie_id) const;

  /// RECEIVE COMMAND, synchronous: returns when the data is in `local`.
  /// With kFlagDma this is recv_async on `engine` with its status polled
  /// (the paper's synchronous I/OAT mode); otherwise the calling thread
  /// copies every chunk (nothing is published to the sender). Either way a
  /// sender process that has exited throws SysError(ESRCH).
  KnemResult recv_sync(std::uint64_t cookie_id,
                       std::span<const Segment> local, std::uint32_t flags,
                       shm::DmaEngine* engine);

  /// RECEIVE COMMAND, asynchronous: queues the copy and the trailing status
  /// write on `engine`; poll `*status` for DmaStatus::kSuccess, or kFailed
  /// when the sender's process has exited.
  KnemResult recv_async(std::uint64_t cookie_id, SegmentList local,
                        std::uint32_t flags, shm::DmaEngine& engine,
                        std::uint8_t* status);

  // -- Shared CPU copy. A synchronous CPU receive is one chunk loop: the
  //    receiver and, when the receive buffer is addressable by the sender,
  //    the sender waiting for FIN claim chunks from the cookie's share
  //    block. Each byte is still copied once.

  /// Receiver: resolve the cookie into `rx`, check the buffer and cut the
  /// payload into chunks. With `share`, publish the chunks to the sender
  /// when it can address `local`: a same-process world, or one
  /// arena-resident segment (published as an arena offset).
  KnemResult recv_share_start(std::uint64_t cookie_id,
                              std::span<const Segment> local, bool share,
                              ShareRecv& rx);

  /// Receiver: claim and copy chunks until none is left. Returns true once
  /// every chunk, the sender's included, has landed; false while a sender
  /// chunk is still in flight (call again, do not spin here).
  bool recv_share_progress(ShareRecv& rx, std::span<const Segment> local);

  /// Sender: claim and copy chunks of a published share until none is
  /// left. Returns true once none is left; false while nothing is
  /// published yet.
  bool send_share_progress(std::uint64_t cookie_id,
                           std::span<const ConstSegment> segs);

  /// World totals: the sum of every rank's line.
  [[nodiscard]] DeviceStats stats() const;
  [[nodiscard]] std::uint32_t slots_in_use() const;

 private:
  CookieSlot* slot_at(std::uint32_t i) const;
  SegBlock* block_at(std::uint64_t off) const;
  std::uint64_t pop_block();
  void push_block(std::uint64_t off);
  void free_chain(CookieSlot* s);
  [[nodiscard]] const CookieSlot* find(std::uint64_t cookie_id) const;
  [[nodiscard]] Resolved resolve_slot(const CookieSlot* s) const;

  shm::Arena* arena_;
  DeviceState* st_;
  DeviceStats* mine_;        ///< This rank's stats line.
  std::uint32_t first_slot_; ///< Where this rank's slot scan starts.
  int rank_;
  pid_t pid_;
};

/// The receiver's state of one shared CPU-copy receive (lmt::RecvCtx keeps
/// it): the cookie resolved once and this party's place in the chunk loop.
/// Destroying it before the copy completes abandons the receive.
class ShareRecv {
 public:
  ShareRecv() = default;
  ShareRecv(const ShareRecv&) = delete;
  ShareRecv& operator=(const ShareRecv&) = delete;
  ~ShareRecv() { abandon(); }

  /// Close the claim word (fetch_add(n)) so the sender claims nothing
  /// more, then wait for any chunk a same-process sender already claimed.
  /// Only then may the receive buffer go back to the user. A sender in
  /// another process is not waited for: the peer-death fence abandons a
  /// receive only once that sender is declared dead. No-op when the copy
  /// completed or never started.
  void abandon() noexcept;

 private:
  friend class Device;
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  ShareBlock* share_ = nullptr;  ///< Null when finished or not started.
  Device::Resolved src_;
  std::uint64_t chunk_ = 0;
  std::uint64_t n_ = 0;
  std::uint64_t pending_ = kNone;  ///< Own claimed chunk not yet copied.
  bool drained_ = false;           ///< Own claims ran past n.
  bool wait_sender_ = false;       ///< Published to a same-process sender.
};

}  // namespace nemo::knem
