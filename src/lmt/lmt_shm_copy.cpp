#include <cstring>

#include "core/comm.hpp"
#include "lmt/backends.hpp"
#include "shm/nt_copy.hpp"

namespace nemo::lmt {

using shm::CopyRing;

ShmCopyBackend::ShmCopyBackend(core::Engine& eng)
    : eng_(eng),
      send_cursor_(static_cast<std::size_t>(eng.nranks()), 0),
      recv_cursor_(static_cast<std::size_t>(eng.nranks()), 0),
      nt_ok_(shm::nt_copy_available()) {
  shm::Arena& arena = eng.world().arena();
  send_ring_.resize(static_cast<std::size_t>(eng.nranks()));
  recv_ring_.resize(static_cast<std::size_t>(eng.nranks()));
  push_nt_ok_.assign(static_cast<std::size_t>(eng.nranks()), false);
  nt_min_.assign(static_cast<std::size_t>(eng.nranks()),
                 shm::nt_default_threshold());
  const Topology& topo = eng.world().topology();
  const tune::TuningTable& tuning = eng.world().tuning();
  for (int p = 0; p < eng.nranks(); ++p) {
    if (p == eng.rank()) continue;
    send_ring_[static_cast<std::size_t>(p)].emplace(
        arena, eng.world().ring_off(eng.rank(), p));
    recv_ring_[static_cast<std::size_t>(p)].emplace(
        arena, eng.world().ring_off(p, eng.rank()));
    int mine = eng.world().core_of(eng.rank());
    int theirs = eng.world().core_of(p);
    // Unpinned ranks read the shared-LLC row: its half-cache nt_min matches
    // the host default, and its push_nt=false keeps copy #1 cached — the
    // same conservative stance the pre-tuning code took for unknown cores.
    PairPlacement place = PairPlacement::kSharedCache;
    if (mine >= 0 && mine < topo.num_cores && theirs >= 0 &&
        theirs < topo.num_cores && mine != theirs)
      place = topo.classify(mine, theirs);
    const tune::PlacementTuning& row = tuning.for_placement(place);
    nt_min_[static_cast<std::size_t>(p)] = row.nt_min;
    push_nt_ok_[static_cast<std::size_t>(p)] =
        mine >= 0 && theirs >= 0 && row.push_nt;
  }
}

void ShmCopyBackend::send_init(SendCtx& ctx) {
  ctx.rts.kind = static_cast<std::uint32_t>(LmtKind::kDefaultShm);
  ctx.rts.total = ctx.total;
  ctx.rts.nsegs = static_cast<std::uint32_t>(ctx.segs.size());
}

bool ShmCopyBackend::send_progress(SendCtx& ctx) {
  if (ctx.total == 0) return true;
  CopyRing& ring = *send_ring_[static_cast<std::size_t>(ctx.peer)];
  std::uint64_t& cursor = send_cursor_[static_cast<std::size_t>(ctx.peer)];
  const bool nt = use_nt(ctx.total, ctx.peer) &&
                  push_nt_ok_[static_cast<std::size_t>(ctx.peer)];
  while (ctx.bytes_moved < ctx.total) {
    // The next contiguous piece of the (possibly segmented) source,
    // clipped to one ring buffer.
    const ConstSegment& s = ctx.segs[ctx.seg_idx];
    std::size_t avail = s.len - ctx.seg_off;
    if (avail == 0) {
      ++ctx.seg_idx;
      ctx.seg_off = 0;
      continue;
    }
    std::size_t piece = avail < ring.buf_bytes() ? avail : ring.buf_bytes();
    bool last = (ctx.bytes_moved + piece == ctx.total);
    std::size_t n;
    {
      trace::Span sp(eng_.tracer(), trace::kRingPush, trace::Mode::kFull,
                     static_cast<std::uint64_t>(ctx.peer), piece);
      n = ring.try_push(cursor, s.base + ctx.seg_off, piece, last, nt);
    }
    if (n == 0) {  // Ring full: receiver hasn't drained yet.
      eng_.counters().ring_stalls++;
      if (trace::on())
        eng_.tracer().emit(trace::kRingStall, trace::kInstant,
                           static_cast<std::uint64_t>(ctx.peer));
      return false;
    }
    ctx.seg_off += n;
    ctx.bytes_moved += n;
  }
  // All pushed. The send completes only when the receiver has drained the
  // ring so the buffers are reusable by the next transfer on this pair.
  return ring.drained(cursor);
}

void ShmCopyBackend::send_fin(SendCtx&) {}

void ShmCopyBackend::recv_init(RecvCtx&) {}

bool ShmCopyBackend::recv_progress(RecvCtx& ctx) {
  if (ctx.total == 0) return true;
  CopyRing& ring = *recv_ring_[static_cast<std::size_t>(ctx.peer)];
  std::uint64_t& cursor = recv_cursor_[static_cast<std::size_t>(ctx.peer)];
  const bool nt = use_nt(ctx.total, ctx.peer);
  while (ctx.bytes_moved < ctx.total) {
    auto view = ring.peek(cursor);
    if (!view) return false;
    // Scatter the chunk across the destination segments (copy #2).
    trace::Span sp(eng_.tracer(), trace::kRingPop, trace::Mode::kFull,
                   static_cast<std::uint64_t>(ctx.peer), view->bytes);
    const std::byte* src = view->data;
    std::size_t left = view->bytes;
    while (left > 0) {
      NEMO_ASSERT(ctx.seg_idx < ctx.segs.size());
      Segment& d = ctx.segs[ctx.seg_idx];
      std::size_t room = d.len - ctx.seg_off;
      if (room == 0) {
        ++ctx.seg_idx;
        ctx.seg_off = 0;
        continue;
      }
      std::size_t n = left < room ? left : room;
      shm::copy_for(nt, d.base + ctx.seg_off, src, n);
      src += n;
      ctx.seg_off += n;
      left -= n;
      ctx.bytes_moved += n;
    }
    ring.release(cursor);
  }
  return true;
}

}  // namespace nemo::lmt
