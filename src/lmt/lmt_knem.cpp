#include "core/comm.hpp"
#include "lmt/backends.hpp"

namespace nemo::lmt {

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

bool KnemBackend::recv_progress(RecvCtx& ctx) {
  knem::Device& dev = eng_.knem_device();
  std::uint32_t flags = ctx.rts.knem_flags;
  bool dma = (flags & knem::kFlagDma) != 0;
  bool async = (flags & knem::kFlagAsync) != 0;

  if (!dma && !async) {
    // Shared CPU copy: claim chunks alongside the sender. Returns false
    // while a sender chunk is in flight, so Engine::wait's guard still
    // bounds the wait on a sender that dies mid-chunk.
    return dev.recv_share_progress(ctx.knem_share, ctx.segs);
  }
  if (!async) {
    // Synchronous I/OAT receive command: DMA-submitted and polled before
    // the call returns with the data placed.
    knem::KnemResult res = dev.recv_sync(ctx.rts.knem_cookie, ctx.segs,
                                         flags, &eng_.dma_channel());
    NEMO_ASSERT_MSG(res == knem::KnemResult::kOk, to_string(res));
    return true;
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
  // Poll the status byte the engine writes in order, behind the payload.
  if (ctx.async_status ==
      static_cast<std::uint8_t>(shm::DmaStatus::kSuccess)) {
    std::atomic_thread_fence(std::memory_order_acquire);
    return true;
  }
  return false;
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
    case LmtKind::kCma:
      return std::make_unique<CmaBackend>(eng);
    case LmtKind::kAuto:
      break;
  }
  NEMO_ASSERT_MSG(false, "kAuto must be resolved before backend creation");
  return nullptr;
}

}  // namespace nemo::lmt
