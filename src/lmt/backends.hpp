// Concrete LMT backends. Constructed per rank by the Engine; they reference
// the world's shared structures (rings, pipes, KNEM device).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lmt/lmt.hpp"
#include "shm/copy_ring.hpp"

namespace nemo::core {
class Engine;
}

namespace nemo::lmt {

/// The pre-existing Nemesis scheme: double-buffered copies through a
/// per-pair shared-memory ring. Two copies; both processes participate.
class ShmCopyBackend final : public Backend {
 public:
  explicit ShmCopyBackend(core::Engine& eng);
  [[nodiscard]] LmtKind kind() const override { return LmtKind::kDefaultShm; }
  [[nodiscard]] bool needs_cts() const override { return true; }
  [[nodiscard]] bool needs_fin() const override { return false; }
  void send_init(SendCtx& ctx) override;
  bool send_progress(SendCtx& ctx) override;
  void send_fin(SendCtx& ctx) override;
  void recv_init(RecvCtx& ctx) override;
  bool recv_progress(RecvCtx& ctx) override;

 private:
  /// True when this transfer should use streaming stores on the `peer`
  /// pair: it is at least the pair placement's tuned nt_min, so the two
  /// ring copies would otherwise sweep a large slice of the LLC for data
  /// with no reuse.
  [[nodiscard]] bool use_nt(std::uint64_t total, int peer) const {
    return nt_ok_ && total >= nt_min_[static_cast<std::size_t>(peer)];
  }

  core::Engine& eng_;
  // Ring slot sequence numbers are cumulative across transfers, so the
  // chunk cursor is per-pair state that outlives one message. Transfers on
  // a pair are serialized by the engine, making these safe to share.
  std::vector<std::uint64_t> send_cursor_;  ///< Indexed by peer.
  std::vector<std::uint64_t> recv_cursor_;
  // Per-peer ring views, fixed at construction (reconstructing a view from
  // the arena on every *_progress call was pure hot-path overhead). The
  // self slot stays empty.
  std::vector<std::optional<shm::CopyRing>> send_ring_;  ///< rank -> peer.
  std::vector<std::optional<shm::CopyRing>> recv_ring_;  ///< peer -> rank.
  /// Streaming copy #1 (into the ring slot) only pays off when the pair
  /// does NOT share a last-level cache: on a shared cache the cached slot
  /// write is what lets the receiver's slot read hit. Receiver copy #2's
  /// destination streams regardless (large buffer, no reuse in the copy).
  /// Both come from the pair placement's tuned row (cfg.nt_min overrides).
  std::vector<bool> push_nt_ok_;          ///< Indexed by peer.
  std::vector<std::size_t> nt_min_;       ///< Indexed by peer.
  bool nt_ok_;
};

/// Single-copy transfer through a Unix pipe: the sender attaches its pages
/// with vmsplice; the receiver copies them out with readv (§3.1). With
/// use_writev, the sender *copies* into the pipe instead — the two-copy
/// variant Figure 3 compares against.
class VmspliceBackend final : public Backend {
 public:
  VmspliceBackend(core::Engine& eng, bool use_writev)
      : eng_(eng), writev_(use_writev) {}
  [[nodiscard]] LmtKind kind() const override {
    return writev_ ? LmtKind::kVmspliceWritev : LmtKind::kVmsplice;
  }
  [[nodiscard]] bool needs_cts() const override { return true; }
  /// vmsplice'd pages stay referenced by the pipe until read: the sender may
  /// only reuse the buffer after the receiver's FIN. writev copies, so no
  /// FIN is needed there.
  [[nodiscard]] bool needs_fin() const override { return !writev_; }
  void send_init(SendCtx& ctx) override;
  bool send_progress(SendCtx& ctx) override;
  void send_fin(SendCtx& ctx) override;
  void recv_init(RecvCtx& ctx) override;
  bool recv_progress(RecvCtx& ctx) override;

 private:
  core::Engine& eng_;
  bool writev_;
};

/// Single-copy transfer through the KNEM pseudo-device (§3.2-3.4): the
/// sender declares a cookie; the receiver drives the copy, optionally on the
/// DMA engine and/or asynchronously; FIN releases the cookie. A synchronous
/// CPU copy is shared: the receiver publishes chunks in the cookie's share
/// block and the sender, waiting for FIN anyway, claims and copies some.
class KnemBackend final : public Backend {
 public:
  explicit KnemBackend(core::Engine& eng) : eng_(eng) {}
  [[nodiscard]] LmtKind kind() const override { return LmtKind::kKnem; }
  [[nodiscard]] bool needs_cts() const override { return false; }
  [[nodiscard]] bool needs_fin() const override { return true; }
  void send_init(SendCtx& ctx) override;
  bool send_progress(SendCtx& ctx) override;
  void send_fin(SendCtx& ctx) override;
  void recv_init(RecvCtx& ctx) override;
  bool recv_progress(RecvCtx& ctx) override;

 private:
  core::Engine& eng_;
};

/// Single-copy transfer via cross-memory attach (process_vm_readv) — the
/// modern in-kernel successor to KNEM, needing no driver. The sender
/// registers its segments in the same arena-resident cookie table the KNEM
/// device uses (pid + iovec handshake); the receiver pulls the payload with
/// one process_vm_readv-driven copy. Falls back to a shm staging copy at
/// transfer time when the kernel refuses (ENOSYS, or EPERM from Yama
/// ptrace_scope / seccomp).
class CmaBackend final : public Backend {
 public:
  explicit CmaBackend(core::Engine& eng) : eng_(eng) {}
  [[nodiscard]] LmtKind kind() const override { return LmtKind::kCma; }
  [[nodiscard]] bool needs_cts() const override { return false; }
  [[nodiscard]] bool needs_fin() const override { return true; }
  void send_init(SendCtx& ctx) override;
  bool send_progress(SendCtx& ctx) override;
  void send_fin(SendCtx& ctx) override;
  void recv_init(RecvCtx& ctx) override;
  bool recv_progress(RecvCtx& ctx) override;

 private:
  core::Engine& eng_;
};

std::unique_ptr<Backend> make_backend(LmtKind kind, core::Engine& eng);

}  // namespace nemo::lmt
