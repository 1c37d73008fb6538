#include <cerrno>

#include "core/comm.hpp"
#include "lmt/backends.hpp"

namespace nemo::lmt {

RecvCtx::~RecvCtx() {
  // A queued KNEM receive writes `segs` and `async_status` until its DMA
  // job ends, also when a peer-death fence drops this receive. The engine
  // always writes the status, so the wait needs no guard.
  if (async_submitted)
    resil::wait_until({}, [&] {
      return shm::aref(async_status).load(std::memory_order_acquire) !=
             static_cast<std::uint8_t>(shm::DmaStatus::kPending);
    });
}

void KnemBackend::send_init(SendCtx& ctx) {
  // Declare the (possibly vectorial) send buffer; the cookie id travels in
  // the RTS through the normal rendezvous handshake (Figure 1, steps 1-3).
  ctx.knem_cookie = eng_.knem_device().submit_send(
      std::span<const ConstSegment>(ctx.segs));
  ctx.rts.kind = static_cast<std::uint32_t>(LmtKind::kKnem);
  ctx.rts.total = ctx.total;
  ctx.rts.knem_cookie = ctx.knem_cookie;
  ctx.rts.nsegs = static_cast<std::uint32_t>(ctx.segs.size());
  int core = eng_.world().core_of(eng_.rank());
  ctx.rts.sender_core = core >= 0 ? static_cast<std::uint32_t>(core) : 0;
}

bool KnemBackend::send_progress(SendCtx& ctx) {
  // While it waits for FIN, the sender copies chunks the receiver published
  // (a synchronous CPU receive); DMA and async receives publish nothing.
  if (ctx.fin_seen) return true;
  return eng_.knem_device().send_share_progress(
      ctx.knem_cookie, std::span<const ConstSegment>(ctx.segs));
}

void KnemBackend::send_fin(SendCtx& ctx) {
  if (ctx.knem_cookie != 0) {
    eng_.knem_device().release(ctx.knem_cookie);
    ctx.knem_cookie = 0;
  }
}

void KnemBackend::recv_init(RecvCtx& ctx) {
  // Decide the copy engine now (receive-command flags, §3.3): the receiver
  // knows its own core, so the DMAmin policy is evaluated here.
  int my_core = eng_.world().core_of(eng_.rank());
  ctx.rts.knem_flags = eng_.policy().knem_flags(
      ctx.total, my_core, eng_.world().config().knem_mode);
  if (ctx.rts.knem_flags == 0) {
    // Synchronous CPU copy: resolve the cookie once and publish the chunks
    // to the sender, so it can start copying before recv_progress runs.
    knem::KnemResult res = eng_.knem_device().recv_share_start(
        ctx.rts.knem_cookie, ctx.segs, /*share=*/true, ctx.knem_share);
    NEMO_ASSERT_MSG(res == knem::KnemResult::kOk, to_string(res));
  }
}

namespace {

/// A KNEM read of a sender whose pid is gone is a death verdict, not a
/// syscall error. Flag the shared liveness cell so every rank converts it
/// eagerly.
[[noreturn]] void sender_gone(core::Engine& eng, int peer) {
  resil::Liveness live = eng.world().liveness();
  if (live.valid()) live.mark_dead(peer);
  throw resil::PeerDeadError(peer, resil::Site::kRendezvous,
                             /*from_timeout=*/false);
}

}  // namespace

bool KnemBackend::recv_progress(RecvCtx& ctx) {
  knem::Device& dev = eng_.knem_device();
  std::uint32_t flags = ctx.rts.knem_flags;
  bool dma = (flags & knem::kFlagDma) != 0;
  bool async = (flags & knem::kFlagAsync) != 0;

  if (!async) {
    try {
      // Shared CPU copy: claim chunks alongside the sender. Returns false
      // while a sender chunk is in flight, so Engine::wait's guard still
      // bounds the wait on a sender that dies mid-chunk.
      if (!dma) return dev.recv_share_progress(ctx.knem_share, ctx.segs);
      // Synchronous I/OAT receive command: DMA-submitted and polled before
      // the call returns with the data placed.
      knem::KnemResult res = dev.recv_sync(ctx.rts.knem_cookie, ctx.segs,
                                           flags, &eng_.dma_channel());
      NEMO_ASSERT_MSG(res == knem::KnemResult::kOk, to_string(res));
      return true;
    } catch (const SysError& e) {
      if (e.sys_errno() != ESRCH) throw;
      sender_gone(eng_, ctx.peer);
    }
  }

  if (!ctx.async_submitted) {
    // Asynchronous: queue on the DMA engine (kFlagDma) or on the kernel-
    // thread channel pinned to this core (the competing-copy model of §3.4).
    shm::DmaEngine& engine =
        dma ? eng_.dma_channel() : eng_.kthread_channel();
    knem::KnemResult res = dev.recv_async(ctx.rts.knem_cookie, ctx.segs,
                                          flags, engine, &ctx.async_status);
    NEMO_ASSERT_MSG(res == knem::KnemResult::kOk, to_string(res));
    ctx.async_submitted = true;
    return false;
  }
  // Poll the status byte the engine writes in order, behind the payload;
  // the acquire load makes the payload visible.
  auto status = static_cast<shm::DmaStatus>(
      shm::aref(ctx.async_status).load(std::memory_order_acquire));
  if (status == shm::DmaStatus::kFailed) sender_gone(eng_, ctx.peer);
  return status == shm::DmaStatus::kSuccess;
}

std::unique_ptr<Backend> make_backend(LmtKind kind, core::Engine& eng) {
  switch (kind) {
    case LmtKind::kDefaultShm:
      return std::make_unique<ShmCopyBackend>(eng);
    case LmtKind::kVmsplice:
      return std::make_unique<VmspliceBackend>(eng, /*use_writev=*/false);
    case LmtKind::kVmspliceWritev:
      return std::make_unique<VmspliceBackend>(eng, /*use_writev=*/true);
    case LmtKind::kKnem:
      return std::make_unique<KnemBackend>(eng);
    case LmtKind::kAuto:
      break;
  }
  NEMO_ASSERT_MSG(false, "kAuto must be resolved before backend creation");
  return nullptr;
}

}  // namespace nemo::lmt
