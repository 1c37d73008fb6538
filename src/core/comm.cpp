#include "core/comm.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/pool.hpp"
#include "core/knobs.hpp"
#include "lmt/backends.hpp"
#include "shm/nt_copy.hpp"

namespace nemo::core {

using shm::aref;
using shm::kNil;
using shm::RecordType;

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

namespace {

struct BarrierBlock {
  alignas(kCacheLine) std::uint64_t count;
  alignas(kCacheLine) std::uint64_t generation;
};

/// Both cores valid ids in `topo` and distinct (classify() indexes by core).
bool classifiable(const Topology& topo, int a, int b) {
  return a >= 0 && a < topo.num_cores && b >= 0 && b < topo.num_cores &&
         a != b;
}

/// Per-rank collective slot capacity: programmatic Config beats the formula
/// value; NEMO_COLL_SLOT_BYTES beats both (its row writes both).
std::uint32_t effective_coll_slot_bytes(const Config& cfg,
                                        const tune::TuningTable& tuning) {
  std::size_t v =
      cfg.coll_slot_bytes != 0 ? cfg.coll_slot_bytes : tuning.coll_slot_bytes;
  v = round_up(std::clamp(v, tune::kCollSlotMin, tune::kCollSlotMax),
               kCacheLine);
  return static_cast<std::uint32_t>(std::min(v, tune::kCollSlotMax));
}

/// One pair's fastbox footprint at the World's resolved geometry.
std::size_t fastbox_bytes(const tune::TuningTable& tuning) {
  return shm::Fastbox::footprint(tuning.fastbox_slots,
                                 tuning.fastbox_slot_bytes);
}

std::size_t auto_arena_bytes(const Config& cfg,
                             const tune::TuningTable& tuning) {
  std::size_t n = static_cast<std::size_t>(cfg.nranks);
  std::size_t pairs = n * (n - 1);
  // Page slack for the NUMA-bindable page-aligned carving.
  std::size_t per_ring =
      sizeof(shm::CopyRingState) +
      std::size_t{cfg.ring_bufs} *
          (sizeof(shm::CopyRingSlot) + cfg.ring_buf_bytes) +
      4 * KiB + 2 * shm::Arena::kPageBytes;
  std::size_t per_fastbox = fastbox_bytes(tuning) + kCacheLine +
                            2 * shm::Arena::kPageBytes;
  std::size_t knem = sizeof(knem::DeviceState) +
                     n * sizeof(knem::DeviceStats) +
                     256 * sizeof(knem::CookieSlot) +
                     256 * sizeof(knem::SegBlock) + 64 * KiB;
  std::size_t coll =
      cfg.nranks > 1
          ? coll::WorldColl::footprint(cfg.nranks,
                                       effective_coll_slot_bytes(cfg, tuning))
          : 0;
  return 1 * MiB + n * 4 * KiB + pairs * (per_ring + per_fastbox) + knem +
         coll + cfg.shared_pool_bytes;
}

}  // namespace

World::World(Config cfg)
    : cfg_(resolve_config(std::move(cfg))),
      arena_(cfg_.shm_name.empty()
                 ? shm::Arena::create_anonymous(
                       cfg_.arena_bytes ? cfg_.arena_bytes
                                        : auto_arena_bytes(cfg_, tuning()))
                 : shm::Arena::create_shm(
                       cfg_.shm_name,
                       cfg_.arena_bytes
                           ? cfg_.arena_bytes
                           : auto_arena_bytes(cfg_, tuning()))),
      pipes_(cfg_.nranks) {
  // Install the resolved NEMO_TRACE before any Engine constructs its
  // tracer, and re-arm NEMO_FAULT: both are process-wide, set per World,
  // and inherited by forked ranks.
  trace::set_mode(cfg_.trace);
  resil::arm_fault(cfg_.fault);
  NEMO_ASSERT(cfg_.nranks >= 1);
  NEMO_ASSERT_MSG(cfg_.core_binding.empty() ||
                      cfg_.core_binding.size() ==
                          static_cast<std::size_t>(cfg_.nranks),
                  "core_binding must name one core per rank");
  cfg_.topo.validate();

  // Per-pair rings and fastboxes, with NUMA-aware placement: the decision
  // (which node, if any) is recorded for every pair even when binding is
  // unavailable, so placement stays observable on single-node hosts.
  std::size_t n2 = static_cast<std::size_t>(cfg_.nranks) *
                   static_cast<std::size_t>(cfg_.nranks);
  ring_offs_.assign(n2, kNil);
  ring_place_.assign(n2, RingPlacement{});
  fastbox_offs_.assign(n2, kNil);
  for (int s = 0; s < cfg_.nranks; ++s)
    for (int d = 0; d < cfg_.nranks; ++d) {
      if (s == d) continue;
      std::size_t idx = static_cast<std::size_t>(s) *
                            static_cast<std::size_t>(cfg_.nranks) +
                        static_cast<std::size_t>(d);
      int score = core_of(s), dcore = core_of(d);
      shm::RegionPlacement want =
          shm::choose_region_placement(numa_mode(), cfg_.topo, score, dcore);
      bool place = want.node >= 0 || want.interleave;

      RingPlacement rp;
      if (classifiable(cfg_.topo, score, dcore))
        rp.pair = cfg_.topo.classify(score, dcore);
      rp.node = want.node;
      rp.interleaved = want.interleave;

      std::uint64_t ring_off =
          shm::CopyRing::create(arena_, cfg_.ring_bufs, cfg_.ring_buf_bytes,
                                place);
      ring_offs_[idx] = ring_off;
      shm::CopyRing ring(arena_, ring_off);
      std::byte* data = arena_.at(ring.data_off());
      if (want.node >= 0)
        rp.bound = shm::bind_to_node(data, ring.data_bytes(), want.node);
      else if (want.interleave)
        rp.bound = shm::interleave(data, ring.data_bytes());
      ring_place_[idx] = rp;

      std::uint64_t fb_off = shm::Fastbox::create(
          arena_, tuning().fastbox_slots, tuning().fastbox_slot_bytes, place);
      fastbox_offs_[idx] = fb_off;
      if (want.node >= 0)
        shm::bind_to_node(arena_.at(fb_off), fastbox_bytes(tuning()),
                          want.node);
      else if (want.interleave)
        shm::interleave(arena_.at(fb_off), fastbox_bytes(tuning()));
    }

  // The collective arena: every rank reads every slot, so under the
  // interleaving NUMA modes its pages are spread across nodes like the
  // other many-reader bootstrap state below.
  if (cfg_.nranks > 1) {
    std::uint32_t coll_slot = effective_coll_slot_bytes(cfg_, tuning());
    coll_off_ = coll::WorldColl::create(arena_, cfg_.nranks, coll_slot);
    if (numa_mode() == shm::NumaPlacement::kAuto ||
        numa_mode() == shm::NumaPlacement::kInterleave)
      shm::interleave(arena_.at(coll_off_),
                      coll::WorldColl::region_bytes(cfg_.nranks, coll_slot));
  }

  std::uint64_t shared_state_begin = arena_.alloc(8, kCacheLine);
  knem_off_ = knem::Device::create(arena_, cfg_.nranks);

  pid_table_off_ = arena_.alloc(sizeof(std::uint64_t) *
                                    static_cast<std::size_t>(cfg_.nranks),
                                kCacheLine);
  std::memset(arena_.at(pid_table_off_), 0,
              sizeof(std::uint64_t) * static_cast<std::size_t>(cfg_.nranks));

  barrier_off_ = arena_.alloc(sizeof(BarrierBlock), kCacheLine);
  auto* bb = arena_.at_as<BarrierBlock>(barrier_off_);
  bb->count = 0;
  bb->generation = 0;

  // Liveness words: per-rank heartbeat cells, death flags, and the fence
  // block. Bootstrap state like the pid table — every rank reads every cell.
  life_off_ = resil::Liveness::create(arena_, cfg_.nranks);

  // Many-reader bootstrap state (KNEM cookie table, pid table, barrier,
  // liveness): every rank polls these, so no single home node is right —
  // interleave the span under kAuto/kInterleave. Sub-page spans are a no-op.
  if (numa_mode() == shm::NumaPlacement::kAuto ||
      numa_mode() == shm::NumaPlacement::kInterleave) {
    std::uint64_t end =
        life_off_ + resil::Liveness::footprint(cfg_.nranks);
    shm::interleave(arena_.at(shared_state_begin), end - shared_state_begin);
  }

  vmsplice_ok_ = shm::Pipe::vmsplice_available();
  cma_ok_ = cfg_.cma_enabled && shm::cma_available();
}

void World::reattach_in_child() {
  // Anonymous arenas exist only through the inherited mapping; nothing to
  // re-attach. Named arenas take the real deployment path: a fresh
  // shm_open + mmap at a child-chosen base, proving every cross-rank
  // structure is offset-addressed.
  if (cfg_.shm_name.empty()) return;
  shm::Arena fresh = shm::Arena::open_shm(cfg_.shm_name);
  arena_.disown();      // The parent keeps unlink responsibility.
  arena_ = std::move(fresh);  // Unmaps the inherited view.

  // Re-apply the recorded NUMA placement decisions to the new VMA: memory
  // policies are per-address-space, so the parent's mbind calls do not
  // travel with the shm segment. Pages the owning rank has not yet
  // first-touched are placed by this process, per the recorded decision.
  std::size_t fb_bytes = fastbox_bytes(tuning());
  for (int s = 0; s < cfg_.nranks; ++s)
    for (int d = 0; d < cfg_.nranks; ++d) {
      if (s == d) continue;
      std::size_t idx = static_cast<std::size_t>(s) *
                            static_cast<std::size_t>(cfg_.nranks) +
                        static_cast<std::size_t>(d);
      const RingPlacement& rp = ring_place_[idx];
      if (rp.node < 0 && !rp.interleaved) continue;
      shm::CopyRing ring(arena_, ring_offs_[idx]);
      std::byte* data = arena_.at(ring.data_off());
      if (rp.node >= 0)
        shm::bind_to_node(data, ring.data_bytes(), rp.node);
      else
        shm::interleave(data, ring.data_bytes());
      std::byte* fb = arena_.at(fastbox_offs_[idx]);
      if (rp.node >= 0)
        shm::bind_to_node(fb, fb_bytes, rp.node);
      else
        shm::interleave(fb, fb_bytes);
    }
  if (coll_off_ != shm::kNil &&
      (numa_mode() == shm::NumaPlacement::kAuto ||
       numa_mode() == shm::NumaPlacement::kInterleave)) {
    std::uint32_t coll_slot = effective_coll_slot_bytes(cfg_, tuning());
    shm::interleave(arena_.at(coll_off_),
                    coll::WorldColl::region_bytes(cfg_.nranks, coll_slot));
  }
}

void World::register_pid(int rank, pid_t pid) {
  auto* table = arena_.at_as<std::uint64_t>(pid_table_off_);
  aref(table[rank]).store(static_cast<std::uint64_t>(pid),
                          std::memory_order_release);
}

pid_t World::pid_of(int rank) const {
  auto* table = arena_.at_as<std::uint64_t>(pid_table_off_);
  std::uint64_t v = aref(table[rank]).load(std::memory_order_acquire);
  NEMO_ASSERT_MSG(v != 0, "peer pid not registered yet");
  return static_cast<pid_t>(v);
}

void World::hard_barrier(int self_rank, const std::function<void()>& idle) {
  auto* bb = arena_.at_as<BarrierBlock>(barrier_off_);
  std::uint64_t gen = aref(bb->generation).load(std::memory_order_acquire);
  std::uint64_t arrived =
      aref(bb->count).fetch_add(1, std::memory_order_acq_rel) + 1;
  if (arrived == static_cast<std::uint64_t>(cfg_.nranks)) {
    aref(bb->count).store(0, std::memory_order_relaxed);
    aref(bb->generation).fetch_add(1, std::memory_order_acq_rel);
  } else {
    resil::Liveness live = liveness();
    resil::wait_until(
        {self_rank >= 0 ? &live : nullptr, self_rank, -1,
         resil::Site::kHardBarrier, cfg_.peer_timeout_ms, nullptr, nullptr},
        [&] {
          return aref(bb->generation).load(std::memory_order_acquire) != gen;
        },
        [&] {
          if (idle) idle();
        });
  }
}

std::byte* World::shared_alloc(std::size_t bytes, std::size_t align) {
  return arena_.at(arena_.alloc(bytes, align));
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

lmt::PolicyConfig effective_policy(const World& w, const Config& cfg) {
  lmt::PolicyConfig pc = cfg.policy;
  pc.vmsplice_available = pc.vmsplice_available && w.vmsplice_ok();
  pc.dma_available = pc.dma_available && cfg.dma_available;
  return pc;
}

}  // namespace

Engine::Engine(World& world, int rank)
    : world_(world),
      rank_(rank),
      policy_(world.topology(), effective_policy(world, world.config()),
              world.tuning()),  // World outlives every engine's policy.
      knem_dev_(world.arena(), world.knem_off(), rank, ::getpid()),
      next_seq_(static_cast<std::size_t>(world.nranks()), 1),
      tracer_(rank, world.config().trace_ring_slots) {
  world.register_pid(rank, ::getpid());
  if (trace::on(trace::Mode::kFull))
    progress_hist_ = &trace::registry().hist("progress.pass_ns");
  matcher_.set_counters(&counters_);
  if (world.coll_off() != shm::kNil)
    coll_ = coll::WorldColl(world.arena(), world.coll_off(),
                            world.config().mode == LaunchMode::kThreads);
  const tune::TuningTable& tuning = world.tuning();
  // Fold kernel and pack threshold resolve once here: NEMO_SIMD already
  // overrode the table row (core/knobs.cpp), so resolving the table choice
  // against CPUID is the full precedence chain. pack_nt_min 0 means
  // "formula" (NEMO_PACK_NT_MIN=0).
  simd_kernel_ = simd::resolve(tuning.simd_kernel);
  pack_nt_min_ = tuning.pack_nt_min != 0 ? tuning.pack_nt_min
                                         : shm::nt_default_threshold();
  live_ = world.liveness();
  peer_timeout_ms_ = world.peer_timeout_ms();
  on_death_ = world.on_peer_death();
  fenced_.assign(static_cast<std::size_t>(world.nranks()), 0);
  tombstoned_.assign(static_cast<std::size_t>(world.nranks()), 0);
  if (live_.valid()) live_.beat(rank_);  // Stamp 0 means "never started".
  backends_.resize(4);
  int n = world.nranks();
  fb_out_.resize(static_cast<std::size_t>(n));
  fb_in_.resize(static_cast<std::size_t>(n));
  deferred_.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    if (r == rank) continue;
    poll_order_.push_back(r);
    fb_out_[static_cast<std::size_t>(r)] =
        shm::Fastbox(world.arena(), world.fastbox_off(rank, r));
    fb_in_[static_cast<std::size_t>(r)] =
        shm::Fastbox(world.arena(), world.fastbox_off(r, rank));
  }
}

Engine::~Engine() {
  if (dma_channel_) dma_channel_->drain();
  if (kthread_channel_) kthread_channel_->drain();
}

shm::DmaEngine& Engine::dma_channel() {
  if (!dma_channel_) {
    shm::DmaEngine::Config c;
    c.use_nt = true;
    c.pin_core = -1;  // Dedicated hardware: off the application cores.
    dma_channel_ = std::make_unique<shm::DmaEngine>(c);
  }
  return *dma_channel_;
}

shm::DmaEngine& Engine::kthread_channel() {
  if (!kthread_channel_) {
    shm::DmaEngine::Config c;
    c.use_nt = false;  // A kernel thread does a regular, cache-filling copy.
    c.pin_core = world_.core_of(rank_);  // ...on the receive process core.
    kthread_channel_ = std::make_unique<shm::DmaEngine>(c);
  }
  return *kthread_channel_;
}

lmt::Backend& Engine::backend_for(lmt::LmtKind kind) {
  auto idx = static_cast<std::size_t>(kind);
  NEMO_ASSERT(idx < backends_.size());
  if (!backends_[idx]) backends_[idx] = lmt::make_backend(kind, *this);
  return *backends_[idx];
}

lmt::LmtKind Engine::resolve_kind(int dst,
                                  std::span<const ConstSegment> segs) const {
  lmt::LmtKind k = world_.config().lmt;
  if (k == lmt::LmtKind::kAuto)
    k = policy_.choose_kind(world_.core_of(rank_), world_.core_of(dst));
  if ((k == lmt::LmtKind::kVmsplice || k == lmt::LmtKind::kVmspliceWritev) &&
      !world_.vmsplice_ok())
    k = lmt::LmtKind::kDefaultShm;
  // A KNEM receiver reads the sender's pages directly when it shares them:
  // a threads world, or segments inside the arena. Anything else needs
  // cross-memory attach; without it the message takes the copy ring.
  if (k == lmt::LmtKind::kKnem && !world_.cma_ok() &&
      world_.config().mode != LaunchMode::kThreads &&
      !std::all_of(segs.begin(), segs.end(), [&](const ConstSegment& s) {
        return s.len == 0 || world_.arena().contains(s.base, s.len);
      }))
    k = lmt::LmtKind::kDefaultShm;
  return k;
}

// --- Ring plumbing -----------------------------------------------------------

namespace {

/// Gather `len` bytes of the message in `segs`, from message offset
/// `msg_off`, into `dst` (the mirror of scatter_at below).
void gather_at(std::span<const ConstSegment> segs, std::size_t msg_off,
               std::byte* dst, std::size_t len) {
  std::size_t skip = msg_off;
  std::size_t i = 0;
  while (i < segs.size() && skip >= segs[i].len) {
    skip -= segs[i].len;
    ++i;
  }
  while (len > 0) {
    NEMO_ASSERT(i < segs.size());
    std::size_t n = std::min(len, segs[i].len - skip);
    std::memcpy(dst, segs[i].base + skip, n);
    dst += n;
    len -= n;
    skip = 0;
    ++i;
  }
}

/// Pooled payload buffers kept for deferred messages.
constexpr std::size_t kSpareBufs = 64;

/// A fresh request, from this thread's recycled blocks once warm.
Request new_request() {
  return std::allocate_shared<RequestState>(PoolAllocator<RequestState>{});
}

}  // namespace

bool Engine::put_records(int dst, OutMsg& m,
                         std::span<const ConstSegment> payload) {
  shm::Fastbox& fb = fb_out_[static_cast<std::size_t>(dst)];
  do {
    std::size_t chunk = std::min(m.total - m.sent, fb.payload_capacity());
    shm::FastboxRecord* r = fb.try_claim(chunk);
    if (r == nullptr) return false;
    r->src = static_cast<std::uint32_t>(rank_);
    r->tag = m.tag;
    r->msg_seq = m.seq;
    r->type = static_cast<std::uint16_t>(m.sent == 0 ? m.type
                                                     : RecordType::kEagerBody);
    r->context = static_cast<std::uint16_t>(m.context);
    r->len = static_cast<std::uint32_t>(m.total - m.sent);
    gather_at(payload, m.sent, r->payload(), chunk);
    fb.publish(*r);
    m.sent += chunk;
  } while (m.sent < m.total);
  return true;
}

bool Engine::flush(int dst) {
  std::deque<OutMsg>& q = deferred_[static_cast<std::size_t>(dst)];
  while (!q.empty()) {
    OutMsg& m = q.front();
    const ConstSegment seg{m.copy.data(), m.total};
    if (!put_records(dst, m, std::span(&seg, 1))) return false;
    if (m.copy.capacity() != 0 && spare_bufs_.size() < kSpareBufs)
      spare_bufs_.push_back(std::move(m.copy));
    q.pop_front();
    --deferred_msgs_;
  }
  return true;
}

void Engine::flush_deferred() {
  if (deferred_msgs_ == 0) return;
  for (int dst : poll_order_) flush(dst);
}

bool Engine::send_msg(int dst, OutMsg m,
                      std::span<const ConstSegment> payload) {
  if (flush(dst) && put_records(dst, m, payload)) return true;
  // The ring is full: keep the payload in a pooled buffer so the send
  // completes now; progress() moves it into the ring in order.
  if (m.total != 0) {
    if (!spare_bufs_.empty()) {
      m.copy = std::move(spare_bufs_.back());
      spare_bufs_.pop_back();
    }
    m.copy.resize(m.total);
    gather_at(payload, 0, m.copy.data(), m.total);
  }
  deferred_[static_cast<std::size_t>(dst)].push_back(std::move(m));
  ++deferred_msgs_;
  return false;
}

void Engine::send_ctrl(int dst, RecordType type, std::uint32_t seq,
                       const lmt::RtsWire* wire, int tag, int context) {
  OutMsg m;
  m.type = type;
  m.tag = tag;
  m.context = context;
  m.seq = seq;
  ConstSegment seg{};
  if (wire != nullptr) {
    seg = {reinterpret_cast<const std::byte*>(wire), sizeof(*wire)};
    m.total = sizeof(*wire);
  }
  send_msg(dst, std::move(m), std::span(&seg, 1));
}

// --- Send path ---------------------------------------------------------------

Request Engine::start_send(ConstSegmentList segs, int dst, int tag,
                           bool collective, int context) {
  NEMO_ASSERT(dst >= 0 && dst < nranks());
  Request req = new_request();
  req->is_send = true;
  req->peer = dst;
  std::size_t total = total_bytes(segs);
  std::uint32_t seq = next_seq_[static_cast<std::size_t>(dst)]++;

  bool eager;
  if (dst == rank_) {
    eager = true;  // Self sends are always delivered locally.
  } else if (world_.config().lmt == lmt::LmtKind::kAuto) {
    eager = !policy_.use_lmt(total, collective);
  } else {
    eager = total <= world_.config().eager_threshold;
  }

  if (eager) {
    stats_.eager_msgs_sent++;
    stats_.bytes_sent += total;
    req->complete = true;  // The payload is in the ring, a FIFO or delivered.
    if (dst == rank_) {
      // One segment is delivered straight from the user buffer; only a
      // scattered one is gathered first.
      std::vector<std::byte> flat;
      const std::byte* data = segs.empty() ? nullptr : segs[0].base;
      if (segs.size() > 1) {
        flat.resize(total);
        gather_at(segs, 0, flat.data(), total);
        data = flat.data();
      }
      deliver_eager_first(rank_, tag, context, seq, total, data, total);
      counters_.record_send(total, tune::Counters::kPathEager);
      return req;
    }
    resil::fault_point(resil::Site::kFastboxPut, rank_);
    OutMsg m;
    m.tag = tag;
    m.context = context;
    m.seq = seq;
    m.total = total;
    bool put;
    {
      trace::Span sp(tracer_, trace::kFastboxPut, trace::Mode::kFull,
                     static_cast<std::uint64_t>(dst), total);
      put = send_msg(dst, std::move(m), segs);
    }
    if (put) {
      stats_.fastbox_sent++;
      counters_.fastbox_hits++;
      counters_.record_send(total, tune::Counters::kPathFastbox);
    } else {
      counters_.fastbox_fallbacks++;
      counters_.record_send(total, tune::Counters::kPathEager);
      if (trace::on())
        tracer_.emit(trace::kFastboxFallback, trace::kInstant,
                     static_cast<std::uint64_t>(dst));
    }
    return req;
  }

  // Rendezvous.
  lmt::LmtKind kind = resolve_kind(dst, segs);
  if (trace::on())
    tracer_.emit(trace::kLmtActivate, trace::kInstant,
                 static_cast<std::uint64_t>(dst), total);
  auto ctx = std::make_unique<lmt::SendCtx>();
  ctx->peer = dst;
  ctx->tag = tag;
  ctx->seq = seq;
  ctx->segs = std::move(segs);
  ctx->total = total;
  lmt::Backend& b = backend_for(kind);
  b.send_init(*ctx);

  send_ctrl(dst, RecordType::kRts, seq, &ctx->rts, tag, context);
  // Crash site: the RTS is published (it lives in the shared ring, so it
  // survives this rank's death) but the rendezvous will never be fulfilled.
  resil::fault_point(resil::Site::kRendezvous, rank_);
  Key key{dst, seq};
  serial_sends_[dst].push_back(key);
  sends_[key] = SendEntry{std::move(ctx), req, &b};
  stats_.rndv_sent++;
  stats_.bytes_sent += total;
  stats_.rndv_by_kind[static_cast<std::size_t>(kind)]++;
  counters_.record_send(total, static_cast<int>(kind));
  return req;
}

// --- Recv path ---------------------------------------------------------------

namespace {

/// Scatter `len` bytes from `src` into `segs` starting at message offset
/// `msg_off` (segments are walked from the beginning; O(nsegs), fine for the
/// small lists datatypes produce).
void scatter_at(std::span<const Segment> segs, std::size_t msg_off,
                const std::byte* src, std::size_t len) {
  std::size_t skip = msg_off;
  std::size_t i = 0;
  while (i < segs.size() && skip >= segs[i].len) {
    skip -= segs[i].len;
    ++i;
  }
  while (len > 0) {
    NEMO_ASSERT(i < segs.size());
    std::size_t room = segs[i].len - skip;
    std::size_t n = len < room ? len : room;
    std::memcpy(segs[i].base + skip, src, n);
    src += n;
    len -= n;
    skip = 0;
    ++i;
  }
}

}  // namespace

Request Engine::start_recv(SegmentList segs, int src, int tag, int context) {
  NEMO_ASSERT(src == kAnySource || (src >= 0 && src < nranks()));
  Request req = new_request();
  PostedRecv pr;
  pr.src = src;
  pr.tag = tag;
  pr.context = context;
  pr.capacity = total_bytes(segs);
  pr.segs = std::move(segs);
  pr.req = req;
  req->peer = src == kAnySource ? -1 : src;

  std::unique_ptr<UnexpectedMsg> um = matcher_.post_recv(pr);
  if (um == nullptr) return req;  // Queued; progress() completes it.

  if (um->is_rndv) {
    start_lmt_recv(um->src, um->tag, um->seq, um->rts, pr);
    matcher_.recycle(std::move(um));
    return req;
  }

  // Unexpected eager message.
  NEMO_ASSERT_MSG(um->total <= pr.capacity,
                  "message truncation: recv buffer too small");
  if (um->eager_complete()) {
    scatter_at(pr.segs, 0, um->data.data(), um->total);
    req->complete = true;
    req->info = RecvInfo{um->src, um->tag, um->total};
    stats_.eager_msgs_recv++;
    stats_.bytes_recv += um->total;
  } else {
    // Still arriving: bind the user buffer; copy the prefix received so far.
    scatter_at(pr.segs, 0, um->data.data(), um->bytes_arrived);
    BoundEager be;
    be.segs = pr.segs;
    be.total = um->total;
    be.arrived = um->bytes_arrived;
    be.req = req;
    be.tag = um->tag;
    bound_eager_[{um->src, um->seq}] = std::move(be);
  }
  // Payload (or its arrived prefix) is consumed either way; continuation
  // chunks land in the bound user buffer, so the pooled buffer is free.
  matcher_.recycle(std::move(um));
  return req;
}

void Engine::start_lmt_recv(int src, int tag, std::uint32_t seq,
                            const lmt::RtsWire& rts, PostedRecv& pr) {
  NEMO_ASSERT_MSG(rts.total <= pr.capacity,
                  "message truncation: recv buffer too small");
  auto kind = static_cast<lmt::LmtKind>(rts.kind);
  auto ctx = std::make_unique<lmt::RecvCtx>();
  ctx->peer = src;
  ctx->tag = tag;
  ctx->seq = seq;
  ctx->segs = std::move(pr.segs);
  ctx->total = rts.total;
  ctx->rts = rts;

  lmt::Backend& b = backend_for(kind);
  b.recv_init(*ctx);
  if (b.needs_cts()) {
    send_ctrl(src, RecordType::kCts, seq, nullptr, tag);
    ctx->cts_sent = true;
  }

  Key key{src, seq};
  if (kind == lmt::LmtKind::kKnem) {
    // The receiver-driven backend has no per-pair data FIFO; poll unordered.
    knem_recvs_.push_back(key);
  } else {
    // Ring/pipe data is a per-pair FIFO by sender seq; keep the receive
    // order aligned with the sender's by inserting seq-sorted.
    auto& dq = serial_recvs_[src];
    auto it = dq.begin();
    while (it != dq.end() && it->second < seq) ++it;
    dq.insert(it, key);
  }
  recvs_[key] = RecvEntry{std::move(ctx), pr.req, &b};
  stats_.rndv_recv++;
  if (trace::on())
    tracer_.emit(trace::kLmtActivate, trace::kInstant,
                 static_cast<std::uint64_t>(src), rts.total);
}

// --- Progress ----------------------------------------------------------------

void Engine::deliver_eager_first(int src, int tag, int context,
                                 std::uint32_t seq, std::size_t total,
                                 const std::byte* data, std::size_t len) {
  std::unique_ptr<PostedRecv> pr = matcher_.match_incoming(src, tag, context);
  if (pr != nullptr) {
    NEMO_ASSERT_MSG(total <= pr->capacity,
                    "message truncation: recv buffer too small");
    scatter_at(pr->segs, 0, data, len);
    if (len == total) {
      pr->req->complete = true;
      pr->req->info = RecvInfo{src, tag, total};
      stats_.eager_msgs_recv++;
      stats_.bytes_recv += total;
    } else {
      BoundEager be;
      be.segs = std::move(pr->segs);
      be.total = total;
      be.arrived = len;
      be.req = std::move(pr->req);
      be.tag = tag;
      bound_eager_[{src, seq}] = std::move(be);
    }
    matcher_.recycle(std::move(pr));
    return;
  }
  // Unexpected: buffer it (pooled — no per-message heap allocation in
  // steady state).
  std::unique_ptr<UnexpectedMsg> um = matcher_.acquire_unexpected(total);
  um->src = src;
  um->tag = tag;
  um->context = context;
  um->seq = seq;
  um->is_rndv = false;
  um->total = total;
  std::memcpy(um->data.data(), data, len);
  um->bytes_arrived = len;
  matcher_.add_unexpected(std::move(um));
}

void Engine::deliver_eager_body(int src, std::uint32_t seq,
                                const std::byte* data, std::size_t len) {
  // Either bound to a user buffer already or still in the unexpected queue.
  auto it = bound_eager_.find({src, seq});
  if (it != bound_eager_.end()) {
    BoundEager& be = it->second;
    scatter_at(be.segs, be.arrived, data, len);
    be.arrived += len;
    if (be.arrived == be.total) {
      be.req->complete = true;
      be.req->info = RecvInfo{src, be.tag, be.total};
      stats_.eager_msgs_recv++;
      stats_.bytes_recv += be.total;
      bound_eager_.erase(it);
    }
    return;
  }
  UnexpectedMsg* um = matcher_.find_partial(src, seq);
  NEMO_ASSERT_MSG(um != nullptr, "eager continuation without a first chunk");
  std::memcpy(um->data.data() + um->bytes_arrived, data, len);
  um->bytes_arrived += len;
}

void Engine::handle_rts(int src, const shm::FastboxRecord& r) {
  lmt::RtsWire rts;
  NEMO_ASSERT(r.len == sizeof(rts));
  std::memcpy(&rts, r.payload(), sizeof(rts));

  std::unique_ptr<PostedRecv> pr =
      matcher_.match_incoming(src, r.tag, r.context);
  if (pr != nullptr) {
    start_lmt_recv(src, r.tag, r.msg_seq, rts, *pr);
    matcher_.recycle(std::move(pr));
    return;
  }
  std::unique_ptr<UnexpectedMsg> um = matcher_.acquire_unexpected(0);
  um->src = src;
  um->tag = r.tag;
  um->context = r.context;
  um->seq = r.msg_seq;
  um->is_rndv = true;
  um->rts = rts;
  um->total = rts.total;
  matcher_.add_unexpected(std::move(um));
}

void Engine::poll_ring(int src) {
  shm::Fastbox& fb = fb_in_[static_cast<std::size_t>(src)];
  const shm::FastboxRecord* r = fb.peek();
  if (r == nullptr) return;
  switch (static_cast<RecordType>(r->type)) {
    case RecordType::kEager: {
      stats_.fastbox_recv++;
      std::size_t len = fb.payload_len(*r);
      trace::Span sp(tracer_, trace::kFastboxPop, trace::Mode::kFull,
                     static_cast<std::uint64_t>(src), len);
      deliver_eager_first(src, r->tag, r->context, r->msg_seq, r->len,
                          r->payload(), len);
      break;
    }
    case RecordType::kEagerBody:
      deliver_eager_body(src, r->msg_seq, r->payload(), fb.payload_len(*r));
      break;
    case RecordType::kRts:
      handle_rts(src, *r);
      break;
    case RecordType::kCts:
    case RecordType::kFin: {
      auto it = sends_.find({src, r->msg_seq});
      NEMO_ASSERT_MSG(it != sends_.end(), "CTS/FIN for unknown rendezvous");
      if (r->type == static_cast<std::uint16_t>(RecordType::kCts))
        it->second.ctx->cts_seen = true;
      else
        it->second.ctx->fin_seen = true;
      break;
    }
    case RecordType::kSkip:
      NEMO_ASSERT_MSG(false, "skip record escaped the ring");
  }
  fb.release();
}

void Engine::complete_send(const Key& key) {
  auto it = sends_.find(key);
  NEMO_ASSERT(it != sends_.end());
  it->second.backend->send_fin(*it->second.ctx);
  it->second.req->complete = true;
  if (trace::on())
    tracer_.emit(trace::kLmtComplete, trace::kInstant,
                 static_cast<std::uint64_t>(it->second.ctx->peer),
                 it->second.ctx->total);
  sends_.erase(it);
}

void Engine::complete_recv(const Key& key) {
  auto it = recvs_.find(key);
  NEMO_ASSERT(it != recvs_.end());
  RecvEntry& e = it->second;
  if (e.backend->needs_fin())
    send_ctrl(e.ctx->peer, RecordType::kFin, e.ctx->seq, nullptr, e.ctx->tag);
  e.req->complete = true;
  e.req->info = RecvInfo{e.ctx->peer, e.ctx->tag, e.ctx->total};
  stats_.bytes_recv += e.ctx->total;
  if (trace::on())
    tracer_.emit(trace::kLmtComplete, trace::kInstant,
                 static_cast<std::uint64_t>(e.ctx->peer), e.ctx->total);
  recvs_.erase(it);
}

void Engine::progress_sends() {
  for (auto& [dst, dq] : serial_sends_) {
    while (!dq.empty()) {
      Key key = dq.front();
      auto it = sends_.find(key);
      NEMO_ASSERT(it != sends_.end());
      SendEntry& e = it->second;
      lmt::SendCtx& ctx = *e.ctx;
      if (e.backend->needs_cts() && !ctx.cts_seen) break;
      if (!ctx.data_done) ctx.data_done = e.backend->send_progress(ctx);
      if (lmt::send_complete(*e.backend, ctx)) {
        complete_send(key);
        dq.pop_front();
        continue;  // Next transfer on this pair may proceed.
      }
      break;
    }
  }
}

void Engine::progress_recvs() {
  for (auto& [src, dq] : serial_recvs_) {
    while (!dq.empty()) {
      Key key = dq.front();
      auto it = recvs_.find(key);
      NEMO_ASSERT(it != recvs_.end());
      RecvEntry& e = it->second;
      if (!e.ctx->data_done) e.ctx->data_done = e.backend->recv_progress(*e.ctx);
      if (e.ctx->data_done) {
        complete_recv(key);
        dq.pop_front();
        continue;
      }
      break;
    }
  }
  for (std::size_t i = 0; i < knem_recvs_.size();) {
    Key key = knem_recvs_[i];
    auto it = recvs_.find(key);
    NEMO_ASSERT(it != recvs_.end());
    RecvEntry& e = it->second;
    if (!e.ctx->data_done) e.ctx->data_done = e.backend->recv_progress(*e.ctx);
    if (e.ctx->data_done) {
      complete_recv(key);
      knem_recvs_[i] = knem_recvs_.back();
      knem_recvs_.pop_back();
    } else {
      ++i;
    }
  }
}

void Engine::progress() {
  if (in_progress_) return;
  in_progress_ = true;
  // rings mode keeps the histogram + counter snapshots; the per-pass
  // begin/end span is full-mode only.
  const bool rings_on = trace::on(trace::Mode::kRings) && tracer_.active();
  const bool traced = rings_on && trace::on(trace::Mode::kFull);
  std::uint64_t t0 = 0;
  if (rings_on) t0 = trace::tsc_now();
  if (traced) tracer_.emit(trace::kProgress, trace::kBegin);

  // Deferred records first: they are older than anything sent from here
  // on, and a peer may be waiting on them.
  flush_deferred();
  // One record per source per pass: polling a ring again right after
  // consuming a record reads the line its sender has just cleared, a
  // cross-core miss on the path of a pingpong's reply.
  for (int src : poll_order_) poll_ring(src);
  counters_.progress_passes++;
  // Heartbeat: a rank that makes progress is alive. Every 64 passes keeps
  // the clock read off the hot path while staying far inside any sane
  // NEMO_PEER_TIMEOUT_MS (pt2pt waits run progress() on every probe).
  if (live_.valid() && (counters_.progress_passes & 0x3F) == 0)
    live_.beat(rank_);

  progress_sends();
  progress_recvs();
  if (traced) tracer_.emit(trace::kProgress, trace::kEnd);
  if (rings_on) {
    if (progress_hist_ != nullptr) {
      std::uint64_t dt = trace::tsc_now() - t0;
      progress_hist_->record(static_cast<std::uint64_t>(
          static_cast<double>(dt) * trace::calibration().ns_per_tick));
    }
    // Counter-track samples every 512 passes (aligned with the poll reorder
    // cadence so the sampling cost hides behind the existing slow path).
    // Pass 1 also samples: short worlds still get one point per track.
    if ((counters_.progress_passes & 0x1FF) == 1) {
      tracer_.emit(trace::kSnapshot, trace::kCounter,
                   trace::kGaugeFastboxHits, counters_.fastbox_hits);
      tracer_.emit(trace::kSnapshot, trace::kCounter,
                   trace::kGaugeRingStalls, counters_.ring_stalls);
      tracer_.emit(trace::kSnapshot, trace::kCounter,
                   trace::kGaugeProgressPasses, counters_.progress_passes);
      tracer_.emit(trace::kSnapshot, trace::kCounter,
                   trace::kGaugeCollShmOps, counters_.coll_shm_ops);
    }
  }
  in_progress_ = false;
}

void Engine::wait(const Request& req) {
  NEMO_ASSERT(req != nullptr);
  if (req->complete) return;
  wait_until(resil::Site::kEngineWait, req->peer, [&] {
    progress();
    return req->complete;
  });
}

bool Engine::test(const Request& req) {
  NEMO_ASSERT(req != nullptr);
  if (!req->complete) progress();
  return req->complete;
}

// --- Liveness / recovery -----------------------------------------------------

resil::WaitGuard Engine::make_guard(resil::Site site, int watch) {
  // Degrade mode hands the guard this engine's already-fenced set so
  // survivors can keep waiting on each other after recovery; abort mode
  // passes nothing, so the sticky dead flag fails every later wait fast.
  const unsigned char* fenced =
      on_death_ == resil::OnPeerDeath::kDegrade && fenced_count_ > 0
          ? fenced_.data()
          : nullptr;
  return {&live_, rank_, watch, site, peer_timeout_ms_, &counters_, fenced};
}

int Engine::lowest_alive() const {
  // Abort mode never reroutes: the configured coordinator stays put so a
  // wait on it fails fast rather than half the world electing a new one.
  if (on_death_ != resil::OnPeerDeath::kDegrade) return 0;
  for (int r = 0; r < nranks(); ++r)
    if (fenced_[static_cast<std::size_t>(r)] == 0) return r;
  return 0;
}

void Engine::reclaim_fenced() noexcept {
  if (!coll_.valid()) return;
  for (int r = 0; r < nranks(); ++r) {
    auto i = static_cast<std::size_t>(r);
    if (fenced_[i] == 0 || tombstoned_[i] != 0) continue;
    tombstoned_[i] = 1;
    counters_.reclaimed_slots +=
        static_cast<std::uint64_t>(coll_.reclaim_rank(r));
  }
}

void Engine::peer_death_fence(int dead_rank, resil::Site site,
                              bool from_timeout) noexcept {
  (void)from_timeout;  // The guard already recorded timeout_aborts.
  if (dead_rank < 0 || dead_rank >= nranks()) return;
  auto d = static_cast<std::size_t>(dead_rank);
  if (fenced_[d] != 0) return;  // Idempotent per dead rank.
  fenced_[d] = 1;
  fenced_count_++;
  if (live_.valid()) live_.mark_dead(dead_rank);
  counters_.peer_deaths++;
  counters_.fence_epochs++;
  if (trace::on()) {
    tracer_.emit(trace::kPeerDeath, trace::kInstant,
                 static_cast<std::uint64_t>(dead_rank),
                 static_cast<std::uint64_t>(site));
    tracer_.emit(trace::kFence, trace::kBegin,
                 static_cast<std::uint64_t>(dead_rank));
  }

  // Deliberately NOT tombstoned here: the dead rank's collective-arena
  // cells are shared, and another survivor may still be parked inside the
  // diverged epoch on a `>= seq` wait that a UINT64_MAX tombstone would
  // spuriously satisfy — its collective would "complete" with a dead
  // participant instead of throwing. Tombstoning happens in
  // Comm::fence_world(), after every survivor has raised its fence flag
  // (i.e. provably abandoned the old epoch).

  // Quiesce in-flight rendezvous with the dead rank: drop the registry
  // entries so backend progress never touches a reclaimed address space.
  // The requests stay incomplete — a wait on one throws PeerDeadError.
  auto drop_keys = [&](auto& reg) {
    for (auto it = reg.begin(); it != reg.end();) {
      if (it->first.first == dead_rank) {
        counters_.reclaimed_slots++;
        it = reg.erase(it);
      } else {
        ++it;
      }
    }
  };
  drop_keys(sends_);
  drop_keys(recvs_);
  serial_sends_.erase(dead_rank);
  serial_recvs_.erase(dead_rank);
  knem_recvs_.erase(std::remove_if(knem_recvs_.begin(), knem_recvs_.end(),
                                   [&](const Key& k) {
                                     return k.first == dead_rank;
                                   }),
                    knem_recvs_.end());
  deferred_msgs_ -= deferred_[d].size();
  deferred_[d].clear();

  // Reclaim the dead rank's rings: stop polling and flushing them (a
  // half-written record is invisible by protocol; a published one is
  // abandoned).
  poll_order_.erase(
      std::remove(poll_order_.begin(), poll_order_.end(), dead_rank),
      poll_order_.end());

  if (trace::on()) tracer_.emit(trace::kFence, trace::kEnd);
}

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

Comm::Comm(World& world, int rank) : engine_(world, rank) {}

void Comm::fence_world() {
  Engine& eng = engine_;
  resil::Liveness live = eng.world().liveness();
  if (!live.valid() || size() <= 1) return;
  int n = size();
  int self = rank();

  // Fence every flagged death locally first: a survivor may reach here for
  // a death it never waited on (another rank's verdict).
  bool any = eng.any_fenced();
  for (int r = 0; r < n; ++r) {
    if (r == self || eng.rank_fenced(r)) continue;
    if (live.is_dead(r)) {
      eng.peer_death_fence(r, resil::Site::kFenceSync, false);
      any = true;
    }
  }
  if (!any) return;  // Nobody is dead: nothing to fence.

  // Survivors may have abandoned different numbers of in-flight collective
  // rounds, so their lock-step sequence counters diverge. Agree on a floor
  // strictly above anything any survivor used: propose, arrive, then read
  // the max — every proposal is published before its arrival flag, so the
  // floor read after the last arrival covers all of them. The slack leaves
  // room for phase bits (epoch_base shifts by 3).
  std::uint64_t proposal =
      std::max({eng.coll_seq_, eng.coll_bar_seq_, eng.coll_cell_seq_}) + 8;
  live.propose_resync(proposal);
  std::uint64_t gen = live.fence_generation();
  live.set_fence_flag(self, gen + 1);

  eng.wait_until(resil::Site::kFenceSync, -1, [&] {
    for (int r = 0; r < n; ++r) {
      if (r == self || eng.rank_fenced(r)) continue;
      if (live.fence_flag(r) < gen + 1) return false;
    }
    return true;
  });
  // Every survivor's flag is up, so none is still parked on a `>= seq`
  // wait inside the diverged epoch — only now can the dead ranks' cells be
  // pinned to their tombstone values without spuriously completing
  // someone's in-flight collective.
  eng.reclaim_fenced();
  eng.resync_coll_seqs(live.resync_floor());
  // The lowest surviving rank publishes the completed generation; everyone
  // leaves only once it lands, so no survivor can start post-fence
  // collectives while another is still proposing.
  if (self == eng.lowest_alive()) live.publish_fence_generation(gen, gen + 1);
  eng.wait_until(resil::Site::kFenceSync, -1,
                 [&] { return live.fence_generation() >= gen + 1; });
}

void Comm::send(const void* buf, std::size_t bytes, int dst, int tag,
                int context) {
  ConstSegmentList segs{{static_cast<const std::byte*>(buf), bytes}};
  engine_.wait(engine_.start_send(std::move(segs), dst, tag,
                                  /*collective=*/context != 0, context));
}

void Comm::recv(void* buf, std::size_t bytes, int src, int tag,
                RecvInfo* info, int context) {
  SegmentList segs{{static_cast<std::byte*>(buf), bytes}};
  Request r = engine_.start_recv(std::move(segs), src, tag, context);
  engine_.wait(r);
  if (info != nullptr) *info = r->info;
}

Request Comm::isend(const void* buf, std::size_t bytes, int dst, int tag,
                    int context) {
  ConstSegmentList segs{{static_cast<const std::byte*>(buf), bytes}};
  return engine_.start_send(std::move(segs), dst, tag,
                            /*collective=*/context != 0, context);
}

Request Comm::irecv(void* buf, std::size_t bytes, int src, int tag,
                    int context) {
  SegmentList segs{{static_cast<std::byte*>(buf), bytes}};
  return engine_.start_recv(std::move(segs), src, tag, context);
}

Request Comm::isendv(ConstSegmentList segs, int dst, int tag) {
  return engine_.start_send(std::move(segs), dst, tag);
}

Request Comm::irecvv(SegmentList segs, int src, int tag) {
  return engine_.start_recv(std::move(segs), src, tag);
}

Request Comm::isend_strided(const void* base, const Datatype& dt,
                            std::size_t count, int dst, int tag) {
  // The merged segment list rides the engine directly: the eager path
  // gathers it into cells, the segment-capable LMT backends transfer it
  // vectorially. Either way the blocks are never packed into a private
  // contiguous staging buffer — record the op as a direct pack.
  ConstSegmentList segs = dt.map(static_cast<const std::byte*>(base), count);
  tune::Counters& c = engine_.counters();
  c.pack_direct_ops++;
  c.pack_direct_bytes += dt.size() * count;
  return engine_.start_send(std::move(segs), dst, tag);
}

Request Comm::irecv_strided(void* base, const Datatype& dt, std::size_t count,
                            int src, int tag) {
  SegmentList segs = dt.map(static_cast<std::byte*>(base), count);
  engine_.counters().unpack_ops++;
  return engine_.start_recv(std::move(segs), src, tag);
}

void Comm::send_typed(const void* base, const Datatype& dt, std::size_t count,
                      int dst, int tag) {
  ConstSegmentList segs =
      dt.map(static_cast<const std::byte*>(base), count);
  engine_.wait(engine_.start_send(std::move(segs), dst, tag));
}

void Comm::recv_typed(void* base, const Datatype& dt, std::size_t count,
                      int src, int tag) {
  SegmentList segs = dt.map(static_cast<std::byte*>(base), count);
  engine_.wait(engine_.start_recv(std::move(segs), src, tag));
}

void Comm::waitall(std::span<Request> reqs) {
  for (auto& r : reqs) engine_.wait(r);
}

}  // namespace nemo::core
