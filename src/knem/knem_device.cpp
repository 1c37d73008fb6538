#include "knem/knem_device.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "resil/resil.hpp"

namespace nemo::knem {

using shm::aref;
using shm::kNil;

const char* to_string(KnemResult r) {
  switch (r) {
    case KnemResult::kOk: return "ok";
    case KnemResult::kBadCookie: return "bad-cookie";
    case KnemResult::kTruncated: return "truncated";
  }
  return "?";
}

namespace {

constexpr std::size_t kPage = 4096;

std::uint64_t pages_touched(std::uint64_t addr, std::uint64_t len) {
  if (len == 0) return 0;
  std::uint64_t first = addr / kPage;
  std::uint64_t last = (addr + len - 1) / kPage;
  return last - first + 1;
}

void stat_add(std::uint64_t& field, std::uint64_t v) {
  aref(field).fetch_add(v, std::memory_order_relaxed);
}

/// Smallest payload published to the sender. Smaller ones are at most four
/// page-sized chunks, which the receiver copies alone.
constexpr std::uint64_t kShareMin = 16 * KiB;

/// Copy message bytes [off, off + len) of `segs` to `dst`.
void gather(std::span<const ConstSegment> segs, std::uint64_t off,
            std::byte* dst, std::uint64_t len) {
  std::size_t i = 0;
  while (i < segs.size() && off >= segs[i].len) off -= segs[i++].len;
  while (len > 0) {
    NEMO_ASSERT(i < segs.size());
    std::uint64_t n = std::min<std::uint64_t>(segs[i].len - off, len);
    std::memcpy(dst, segs[i].base + off, n);
    dst += n;
    len -= n;
    off = 0;
    ++i;
  }
}

}  // namespace

std::uint64_t Device::create(shm::Arena& arena, int nranks,
                             std::uint32_t nslots, std::uint32_t nblocks) {
  NEMO_ASSERT(nslots >= 1 && nranks >= 1);
  std::uint64_t off = arena.alloc(sizeof(DeviceState), kCacheLine);
  auto* st = arena.at_as<DeviceState>(off);
  std::memset(st, 0, sizeof(*st));
  st->nslots = nslots;
  st->nblocks = nblocks;
  st->nranks = static_cast<std::uint32_t>(nranks);
  st->stats_off = arena.alloc(sizeof(DeviceStats) * st->nranks, kCacheLine);
  std::memset(arena.at(st->stats_off), 0, sizeof(DeviceStats) * st->nranks);
  st->slots_off = arena.alloc(sizeof(CookieSlot) * nslots, kCacheLine);
  std::memset(arena.at(st->slots_off), 0, sizeof(CookieSlot) * nslots);
  st->block_free = kNil;
  if (nblocks > 0) {
    st->blocks_off = arena.alloc(sizeof(SegBlock) * nblocks, kCacheLine);
    // Thread the freelist through the blocks.
    for (std::uint32_t i = 0; i < nblocks; ++i) {
      auto* b = arena.at_as<SegBlock>(st->blocks_off + i * sizeof(SegBlock));
      b->nsegs = 0;
      b->next = st->block_free;
      st->block_free = st->blocks_off + i * sizeof(SegBlock);
    }
  }
  return off;
}

Device::Device(shm::Arena& arena, std::uint64_t state_off, int my_rank,
               pid_t my_pid)
    : arena_(&arena),
      st_(arena.at_as<DeviceState>(state_off)),
      mine_(arena.at_as<DeviceStats>(st_->stats_off) + my_rank),
      first_slot_(static_cast<std::uint32_t>(std::uint64_t{st_->nslots} *
                                              my_rank / st_->nranks)),
      rank_(my_rank),
      pid_(my_pid) {
  NEMO_ASSERT(my_rank >= 0 &&
              static_cast<std::uint32_t>(my_rank) < st_->nranks);
}

CookieSlot* Device::slot_at(std::uint32_t i) const {
  return arena_->at_as<CookieSlot>(st_->slots_off + i * sizeof(CookieSlot));
}

SegBlock* Device::block_at(std::uint64_t off) const {
  return arena_->at_as<SegBlock>(off);
}

std::uint64_t Device::pop_block() {
  // Short critical section protected by a shared spinlock; extension blocks
  // are only needed for >kInlineSegs-segment buffers, so contention is rare.
  auto lock = aref(st_->block_lock);
  resil::wait_until(
      {}, [&] { return lock.exchange(1, std::memory_order_acquire) == 0; });
  std::uint64_t head = st_->block_free;
  if (head != kNil) st_->block_free = block_at(head)->next;
  lock.store(0, std::memory_order_release);
  return head;
}

void Device::push_block(std::uint64_t off) {
  auto lock = aref(st_->block_lock);
  resil::wait_until(
      {}, [&] { return lock.exchange(1, std::memory_order_acquire) == 0; });
  block_at(off)->next = st_->block_free;
  st_->block_free = off;
  lock.store(0, std::memory_order_release);
}

std::uint64_t Device::submit_send(std::span<const ConstSegment> segs) {
  // Claim a free slot, scanning from this rank's first slot.
  CookieSlot* slot = nullptr;
  std::uint32_t idx = 0;
  for (std::uint32_t k = 0; k < st_->nslots; ++k) {
    std::uint32_t i = (first_slot_ + k) % st_->nslots;
    CookieSlot* s = slot_at(i);
    std::uint64_t expected = 0;
    if (aref(s->state).compare_exchange_strong(expected, 1,
                                               std::memory_order_acq_rel)) {
      slot = s;
      idx = i;
      break;
    }
  }
  NEMO_ASSERT_MSG(slot != nullptr,
                  "KNEM cookie table full: raise nslots or release cookies");

  slot->id = ((slot->id >> 20) + 1) << 20 | (idx + 1);
  slot->owner_pid = static_cast<std::int32_t>(pid_);
  slot->owner_rank = static_cast<std::uint32_t>(rank_);
  slot->flags = 0;
  slot->more = kNil;
  slot->owner_arena_base = reinterpret_cast<std::uint64_t>(arena_->base());
  aref(slot->share.n).store(0, std::memory_order_relaxed);
  aref(slot->share.claim).store(0, std::memory_order_relaxed);
  aref(slot->share.done).store(0, std::memory_order_relaxed);

  std::uint64_t total = 0, pinned = 0;
  std::uint32_t n = 0;
  SegBlock* cur_block = nullptr;
  for (const auto& seg : segs) {
    if (seg.len == 0) continue;
    shm::RemoteSegment rs{reinterpret_cast<std::uint64_t>(seg.base), seg.len};
    total += seg.len;
    pinned += pages_touched(rs.addr, rs.len);
    if (n < kInlineSegs) {
      slot->inline_segs[n] = rs;
    } else {
      std::uint32_t in_block = (n - kInlineSegs) % kBlockSegs;
      if (in_block == 0) {
        std::uint64_t boff = pop_block();
        NEMO_ASSERT_MSG(boff != kNil, "KNEM segment-block pool exhausted");
        SegBlock* b = block_at(boff);
        b->next = kNil;
        b->nsegs = 0;
        if (cur_block == nullptr)
          slot->more = boff;
        else
          cur_block->next = boff;
        cur_block = b;
      }
      cur_block->segs[in_block] = rs;
      cur_block->nsegs = in_block + 1;
    }
    ++n;
  }
  slot->nsegs = n;
  slot->total_bytes = total;
  slot->pinned_pages = pinned;

  stat_add(mine_->send_cmds, 1);
  stat_add(mine_->pages_pinned, pinned);

  // Publish: the id becomes visible to other ranks only after the segment
  // data is written.
  aref(slot->state).store(2, std::memory_order_release);
  return slot->id;
}

const CookieSlot* Device::find(std::uint64_t cookie_id) const {
  if (cookie_id == 0) return nullptr;
  std::uint32_t idx = static_cast<std::uint32_t>(cookie_id & 0xfffff) - 1;
  if (idx >= st_->nslots) return nullptr;
  const CookieSlot* s = slot_at(idx);
  if (aref(const_cast<std::uint64_t&>(s->state))
          .load(std::memory_order_acquire) != 2)
    return nullptr;
  if (s->id != cookie_id) return nullptr;
  return s;
}

void Device::free_chain(CookieSlot* s) {
  std::uint64_t b = s->more;
  while (b != kNil) {
    std::uint64_t next = block_at(b)->next;
    push_block(b);
    b = next;
  }
  s->more = kNil;
}

void Device::release(std::uint64_t cookie_id) {
  const CookieSlot* cs = find(cookie_id);
  if (cs == nullptr) {
    stat_add(mine_->cookie_leaks, 1);
    return;
  }
  auto* s = const_cast<CookieSlot*>(cs);
  free_chain(s);
  aref(s->state).store(0, std::memory_order_release);
}

std::optional<Device::Resolved> Device::resolve(
    std::uint64_t cookie_id) const {
  const CookieSlot* s = find(cookie_id);
  if (s == nullptr) return std::nullopt;
  return resolve_slot(s);
}

Device::Resolved Device::resolve_slot(const CookieSlot* s) const {
  Resolved r;
  r.pid = s->owner_pid;
  r.owner_rank = s->owner_rank;
  r.total = s->total_bytes;
  r.segs.reserve(s->nsegs);
  std::uint32_t n = s->nsegs < kInlineSegs ? s->nsegs : kInlineSegs;
  for (std::uint32_t i = 0; i < n; ++i) r.segs.push_back(s->inline_segs[i]);
  std::uint64_t b = s->more;
  while (b != kNil) {
    SegBlock* blk = block_at(b);
    for (std::uint32_t i = 0; i < blk->nsegs; ++i)
      r.segs.push_back(blk->segs[i]);
    b = blk->next;
  }

  // Copy-mode decision: same process -> direct on the raw addresses. Arena-
  // resident segments are direct too, but forked ranks map the arena at
  // per-process bases, so the sender's addresses must be REBASED onto this
  // process's mapping before they are dereferenced (in thread mode, or with
  // an inherited mapping, the rebase is the identity). Anything else is
  // another process's private memory: cross-memory attach.
  bool same_pid = (r.pid == pid_);
  if (!same_pid) {
    std::uint64_t sender_base = s->owner_arena_base;
    std::uint64_t local_base = reinterpret_cast<std::uint64_t>(arena_->base());
    std::uint64_t span = arena_->size();
    bool all_in_arena = true;
    for (const auto& seg : r.segs) {
      if (seg.len == 0) continue;
      if (seg.addr < sender_base || seg.addr + seg.len > sender_base + span) {
        all_in_arena = false;
        break;
      }
    }
    if (all_in_arena) {
      for (auto& seg : r.segs)
        if (seg.len != 0) seg.addr = seg.addr - sender_base + local_base;
    }
    r.mode = all_in_arena ? shm::RemoteMode::kDirect : shm::RemoteMode::kCma;
  } else {
    r.mode = shm::RemoteMode::kDirect;
  }
  return r;
}

KnemResult Device::recv_sync(std::uint64_t cookie_id,
                             std::span<const Segment> local,
                             std::uint32_t flags, shm::DmaEngine* engine) {
  if ((flags & kFlagDma) == 0 || engine == nullptr) {
    // CPU copy on the calling (receiver) core: the chunk loop with nothing
    // published, so this core claims every chunk.
    ShareRecv rx;
    KnemResult res = recv_share_start(cookie_id, local, /*share=*/false, rx);
    if (res == KnemResult::kOk) {
      bool landed = recv_share_progress(rx, local);
      NEMO_ASSERT(landed);
    }
    return res;
  }
  // Synchronous I/OAT mode: submit, then poll the status byte before
  // returning to "user space". The engine always writes it, so the wait
  // needs no liveness guard.
  std::uint8_t status = 0;
  KnemResult res = recv_async(
      cookie_id, SegmentList(local.begin(), local.end()), flags, *engine,
      &status);
  if (res != KnemResult::kOk) return res;
  std::uint8_t seen = 0;
  resil::wait_until({}, [&] {
    seen = shm::aref(status).load(std::memory_order_acquire);
    return seen != static_cast<std::uint8_t>(shm::DmaStatus::kPending);
  });
  if (seen == static_cast<std::uint8_t>(shm::DmaStatus::kFailed))
    throw SysError("KNEM DMA receive", ESRCH);
  return KnemResult::kOk;
}

KnemResult Device::recv_share_start(std::uint64_t cookie_id,
                                    std::span<const Segment> local,
                                    bool share, ShareRecv& rx) {
  NEMO_ASSERT(rx.share_ == nullptr);
  const CookieSlot* s = find(cookie_id);
  if (s == nullptr) return KnemResult::kBadCookie;
  const std::uint64_t total = s->total_bytes;
  std::size_t cap = 0;
  for (const auto& seg : local) cap += seg.len;
  if (cap < total) return KnemResult::kTruncated;

  stat_add(mine_->recv_cmds, 1);
  ShareBlock* sh = &const_cast<CookieSlot*>(s)->share;
  rx.src_ = resolve_slot(s);
  rx.chunk_ = share_chunk(total);
  rx.n_ = (total + rx.chunk_ - 1) / rx.chunk_;
  rx.pending_ = ShareRecv::kNone;
  rx.drained_ = false;
  rx.wait_sender_ = false;
  rx.share_ = sh;
  if (!share || total < kShareMin || local.empty() || local[0].len < total)
    return KnemResult::kOk;

  // The sender writes its chunks straight into `local`, so publish only a
  // destination it can address.
  const bool same_pid = rx.src_.pid == pid_;
  if (arena_->contains(local[0].base, total)) {
    sh->dst = arena_->offset_of(local[0].base);
    sh->dst_is_off = 1;
  } else if (same_pid) {
    sh->dst = reinterpret_cast<std::uint64_t>(local[0].base);
    sh->dst_is_off = 0;
  } else {
    return KnemResult::kOk;
  }
  sh->chunk = rx.chunk_;
  rx.wait_sender_ = same_pid;
  aref(sh->n).store(rx.n_, std::memory_order_release);
  return KnemResult::kOk;
}

bool Device::recv_share_progress(ShareRecv& rx,
                                 std::span<const Segment> local) {
  ShareBlock* sh = rx.share_;
  NEMO_ASSERT(sh != nullptr);
  const std::uint64_t total = rx.src_.total;
  shm::RemoteMemPort port(rx.src_.mode, rx.src_.pid);
  while (!rx.drained_) {
    if (rx.pending_ == ShareRecv::kNone) {
      std::uint64_t i = aref(sh->claim).fetch_add(1, std::memory_order_relaxed);
      if (i >= rx.n_) {
        rx.drained_ = true;
        break;
      }
      rx.pending_ = i;
    }
    // A throwing read leaves the chunk pending, so a later call retries it.
    std::uint64_t off = rx.pending_ * rx.chunk_;
    port.read_range(rx.src_.segs, local, off,
                    std::min(rx.chunk_, total - off));
    aref(sh->done).fetch_add(1, std::memory_order_release);
    rx.pending_ = ShareRecv::kNone;
  }
  if (aref(sh->done).load(std::memory_order_acquire) < rx.n_) return false;
  stat_add(mine_->bytes_copied, total);
  rx.share_ = nullptr;
  return true;
}

bool Device::send_share_progress(std::uint64_t cookie_id,
                                 std::span<const ConstSegment> segs) {
  const CookieSlot* cs = find(cookie_id);
  if (cs == nullptr) return true;
  ShareBlock* sh = &const_cast<CookieSlot*>(cs)->share;
  const std::uint64_t n = aref(sh->n).load(std::memory_order_acquire);
  if (n == 0) return false;
  std::byte* dst = sh->dst_is_off != 0
                       ? arena_->at(sh->dst)
                       : reinterpret_cast<std::byte*>(sh->dst);
  const std::uint64_t total = cs->total_bytes;
  std::uint64_t moved = 0;
  for (;;) {
    std::uint64_t i = aref(sh->claim).fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    // Crash site: this chunk is claimed and will never be copied.
    resil::fault_point(resil::Site::kKnemShare, rank_);
    std::uint64_t off = i * sh->chunk;
    std::uint64_t len = std::min(sh->chunk, total - off);
    gather(segs, off, dst + off, len);
    moved += len;
    aref(sh->done).fetch_add(1, std::memory_order_release);
  }
  if (moved != 0) stat_add(mine_->sender_copied_bytes, moved);
  return true;
}

void ShareRecv::abandon() noexcept {
  if (share_ == nullptr) return;
  std::uint64_t claimed = std::min(
      aref(share_->claim).fetch_add(n_, std::memory_order_acq_rel), n_);
  if (wait_sender_) {
    // Every claimed chunk but this party's pending one is the sender's
    // until `done` counts it. That sender is a thread of this process, so
    // the wait needs no liveness guard (and this function cannot throw).
    std::uint64_t mine = pending_ != kNone ? 1 : 0;
    resil::wait_until({}, [&] {
      return aref(share_->done).load(std::memory_order_acquire) + mine >=
             claimed;
    });
  }
  share_ = nullptr;
}

KnemResult Device::recv_async(std::uint64_t cookie_id, SegmentList local,
                              std::uint32_t flags, shm::DmaEngine& engine,
                              std::uint8_t* status) {
  auto r = resolve(cookie_id);
  if (!r) return KnemResult::kBadCookie;
  std::size_t cap = 0;
  for (const auto& seg : local) cap += seg.len;
  if (cap < r->total) return KnemResult::kTruncated;

  stat_add(mine_->recv_cmds, 1);
  if ((flags & kFlagAsync) != 0) stat_add(mine_->async_recv_cmds, 1);
  if ((flags & kFlagDma) != 0) stat_add(mine_->dma_recv_cmds, 1);
  shm::aref(*status).store(static_cast<std::uint8_t>(shm::DmaStatus::kPending),
                           std::memory_order_relaxed);
  engine.submit_copy_with_status(shm::RemoteMemPort(r->mode, r->pid), r->segs,
                                 std::move(local), status);
  stat_add(mine_->bytes_copied, r->total);
  return KnemResult::kOk;
}

DeviceStats Device::stats() const {
  static constexpr std::uint64_t DeviceStats::*kFields[] = {
      &DeviceStats::send_cmds,       &DeviceStats::recv_cmds,
      &DeviceStats::dma_recv_cmds,   &DeviceStats::async_recv_cmds,
      &DeviceStats::bytes_copied,    &DeviceStats::sender_copied_bytes,
      &DeviceStats::pages_pinned,    &DeviceStats::cookie_leaks};
  DeviceStats out{};
  auto* lines = arena_->at_as<DeviceStats>(st_->stats_off);
  for (std::uint32_t r = 0; r < st_->nranks; ++r)
    for (auto f : kFields)
      out.*f += aref(lines[r].*f).load(std::memory_order_relaxed);
  return out;
}

std::uint32_t Device::slots_in_use() const {
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < st_->nslots; ++i)
    if (aref(slot_at(i)->state).load(std::memory_order_acquire) != 0) ++n;
  return n;
}

}  // namespace nemo::knem
