#include "core/comm.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "core/knobs.hpp"
#include "lmt/backends.hpp"
#include "shm/nt_copy.hpp"

namespace nemo::core {

using shm::aref;
using shm::Cell;
using shm::CellType;
using shm::kNil;
using shm::QueueView;

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

/// Per-pair ring geometry: the tuned placement row when it names one, else
/// the world-wide Config value. Rows only apply when both cores are
/// known (placement classification needs them).
std::pair<std::uint32_t, std::uint32_t> ring_geometry(
    const Config& cfg, const tune::TuningTable& tuning, const Topology& topo,
    int score, int dcore) {
  std::uint32_t bufs = cfg.ring_bufs;
  std::uint32_t buf_bytes = cfg.ring_buf_bytes;
  if (classifiable(topo, score, dcore)) {
    const tune::PlacementTuning& row =
        tuning.for_placement(topo.classify(score, dcore));
    if (row.ring_bufs != 0) bufs = row.ring_bufs;
    if (row.ring_buf_bytes != 0) buf_bytes = row.ring_buf_bytes;
  }
  return {bufs, buf_bytes};
}

/// Per-rank collective slot capacity: programmatic Config beats the tuned /
/// cached value; NEMO_COLL_SLOT_BYTES beats both (its row writes both).
std::uint32_t effective_coll_slot_bytes(const Config& cfg,
                                        const tune::TuningTable& tuning) {
  std::size_t v =
      cfg.coll_slot_bytes != 0 ? cfg.coll_slot_bytes : tuning.coll_slot_bytes;
  v = round_up(std::clamp(v, tune::kCollSlotMin, tune::kCollSlotMax),
               kCacheLine);
  return static_cast<std::uint32_t>(std::min(v, tune::kCollSlotMax));
}

std::size_t auto_arena_bytes(const Config& cfg,
                             const tune::TuningTable& tuning) {
  std::size_t n = static_cast<std::size_t>(cfg.nranks);
  std::size_t per_rank = 2 * sizeof(shm::QueueState) +
                         cfg.cells_per_rank * sizeof(Cell) + 4 * KiB;
  std::size_t pairs = n * (n - 1);
  // Size for the largest geometry any placement row could select, plus page
  // slack for the NUMA-bindable page-aligned carving.
  std::size_t max_bufs = cfg.ring_bufs;
  std::size_t max_buf_bytes = cfg.ring_buf_bytes;
  for (const auto& row : tuning.place) {
    max_bufs = std::max<std::size_t>(max_bufs, row.ring_bufs);
    max_buf_bytes = std::max<std::size_t>(max_buf_bytes, row.ring_buf_bytes);
  }
  std::size_t per_ring =
      sizeof(shm::CopyRingState) +
      max_bufs * (sizeof(shm::CopyRingSlot) + max_buf_bytes) +
      4 * KiB + 2 * shm::Arena::kPageBytes;
  std::size_t per_fastbox =
      sizeof(shm::FastboxState) +
      static_cast<std::size_t>(tuning.fastbox_slots) *
          tuning.fastbox_slot_bytes +
      kCacheLine + 2 * shm::Arena::kPageBytes;
  std::size_t knem = sizeof(knem::DeviceState) +
                     256 * sizeof(knem::CookieSlot) +
                     256 * sizeof(knem::SegBlock) + 64 * KiB;
  std::size_t coll =
      cfg.nranks > 1
          ? coll::WorldColl::footprint(cfg.nranks,
                                       effective_coll_slot_bytes(cfg, tuning))
          : 0;
  return 1 * MiB + n * per_rank + pairs * (per_ring + per_fastbox) + knem +
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
  // The transport: substrate topology + link accounting. Constructed before
  // any Engine so the cached has_hooks() gate and the synthetic-node map
  // are fixed for the life of the world (children inherit the heap object
  // across fork; it holds no arena state).
  xport_ = transport::make_transport(cfg_.transport, cfg_.nodes_spec,
                                     cfg_.nranks, cfg_.net_lat_ns,
                                     cfg_.net_bw_mbs);
  NEMO_ASSERT_MSG(cfg_.core_binding.empty() ||
                      cfg_.core_binding.size() ==
                          static_cast<std::size_t>(cfg_.nranks),
                  "core_binding must name one core per rank");
  cfg_.topo.validate();

  rank_queues_.reserve(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r)
    rank_queues_.push_back(shm::make_rank_queues(
        arena_, static_cast<std::uint32_t>(r), cfg_.cells_per_rank));

  // Per-pair rings and fastboxes, with NUMA-aware placement: the decision
  // (which node, if any) is recorded for every pair even when binding is
  // unavailable, so placement stays observable on single-node hosts.
  std::size_t n2 = static_cast<std::size_t>(cfg_.nranks) *
                   static_cast<std::size_t>(cfg_.nranks);
  ring_offs_.assign(n2, kNil);
  ring_place_.assign(n2, RingPlacement{});
  if (cfg_.use_fastbox) fastbox_offs_.assign(n2, kNil);
  for (int s = 0; s < cfg_.nranks; ++s)
    for (int d = 0; d < cfg_.nranks; ++d) {
      if (s == d) continue;
      std::size_t idx = static_cast<std::size_t>(s) *
                            static_cast<std::size_t>(cfg_.nranks) +
                        static_cast<std::size_t>(d);
      int score = core_of(s), dcore = core_of(d);
      auto [bufs, buf_bytes] =
          ring_geometry(cfg_, tuning(), cfg_.topo, score, dcore);
      shm::RegionPlacement want =
          shm::choose_region_placement(numa_mode(), cfg_.topo, score, dcore);
      bool place = want.node >= 0 || want.interleave;

      RingPlacement rp;
      if (classifiable(cfg_.topo, score, dcore))
        rp.pair = cfg_.topo.classify(score, dcore);
      rp.node = want.node;
      rp.interleaved = want.interleave;

      std::uint64_t ring_off =
          shm::CopyRing::create(arena_, bufs, buf_bytes, place);
      ring_offs_[idx] = ring_off;
      shm::CopyRing ring(arena_, ring_off);
      std::byte* data = arena_.at(ring.data_off());
      if (want.node >= 0)
        rp.bound = shm::bind_to_node(data, ring.data_bytes(), want.node);
      else if (want.interleave)
        rp.bound = shm::interleave(data, ring.data_bytes());
      ring_place_[idx] = rp;

      if (cfg_.use_fastbox) {
        std::uint64_t fb_off = shm::Fastbox::create(
            arena_, tuning().fastbox_slots, tuning().fastbox_slot_bytes,
            place);
        fastbox_offs_[idx] = fb_off;
        std::size_t fb_bytes =
            sizeof(shm::FastboxState) +
            static_cast<std::size_t>(tuning().fastbox_slots) *
                tuning().fastbox_slot_bytes;
        if (want.node >= 0)
          shm::bind_to_node(arena_.at(fb_off), fb_bytes, want.node);
        else if (want.interleave)
          shm::interleave(arena_.at(fb_off), fb_bytes);
      }
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
  knem_off_ = knem::Device::create(arena_);

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
  std::size_t fb_bytes = sizeof(shm::FastboxState) +
                         static_cast<std::size_t>(tuning().fastbox_slots) *
                             tuning().fastbox_slot_bytes;
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
      if (cfg_.use_fastbox) {
        std::byte* fb = arena_.at(fastbox_offs_[idx]);
        if (rp.node >= 0)
          shm::bind_to_node(fb, fb_bytes, rp.node);
        else
          shm::interleave(fb, fb_bytes);
      }
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

void World::hard_barrier(int self_rank) {
  auto* bb = arena_.at_as<BarrierBlock>(barrier_off_);
  std::uint64_t gen = aref(bb->generation).load(std::memory_order_acquire);
  std::uint64_t arrived =
      aref(bb->count).fetch_add(1, std::memory_order_acq_rel) + 1;
  if (arrived == static_cast<std::uint64_t>(cfg_.nranks)) {
    aref(bb->count).store(0, std::memory_order_relaxed);
    aref(bb->generation).fetch_add(1, std::memory_order_acq_rel);
  } else {
    resil::Liveness live = liveness();
    resil::WaitGuard guard(self_rank >= 0 ? &live : nullptr, self_rank, -1,
                           resil::Site::kHardBarrier, cfg_.peer_timeout_ms,
                           nullptr, nullptr);
    std::uint32_t spins = 0;
    while (aref(bb->generation).load(std::memory_order_acquire) == gen) {
      if ((++spins & 0x3F) == 0) guard.check();
      std::this_thread::yield();
    }
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
  pc.cma_available =
      pc.cma_available && w.cma_ok() && w.tuning().cma_available;
  pc.dma_available = pc.dma_available && cfg.dma_available;
  pc.tuning = &w.tuning();  // World outlives every engine's policy.
  return pc;
}

}  // namespace

Engine::Engine(World& world, int rank)
    : world_(world),
      rank_(rank),
      policy_(world.topology(), effective_policy(world, world.config())),
      knem_dev_(world.arena(), world.knem_off(), rank, ::getpid()),
      recv_q_(world.arena(), world.recv_q_off(rank)),
      free_q_(world.arena(), world.free_q_off(rank)),
      next_seq_(static_cast<std::size_t>(world.nranks()), 1),
      expected_seq_(static_cast<std::size_t>(world.nranks()), 1),
      tracer_(rank, world.config().trace_ring_slots) {
  world.register_pid(rank, ::getpid());
  if (trace::on(trace::Mode::kFull))
    progress_hist_ = &trace::registry().hist("progress.pass_ns");
  matcher_.set_counters(&counters_);
  if (world.coll_off() != shm::kNil)
    coll_ = coll::WorldColl(world.arena(), world.coll_off(),
                            world.config().mode == LaunchMode::kThreads);
  const tune::TuningTable& tuning = world.tuning();
  fastbox_max_ =
      std::min<std::size_t>(tuning.fastbox_max,
                            tuning.fastbox_slot_bytes -
                                shm::FastboxSlot::kHeaderBytes);
  drain_budget_ = std::max<std::uint32_t>(1, tuning.drain_budget);
  poll_hot_ = tuning.poll_hot;
  // Fold kernel and pack threshold resolve once here: NEMO_SIMD already
  // overrode the table row (core/knobs.cpp), so resolving the table choice
  // against CPUID is the full precedence chain. pack_nt_min 0 means
  // "formula" (NEMO_PACK_NT_MIN=0).
  simd_kernel_ = simd::resolve(tuning.simd_kernel);
  pack_nt_min_ = tuning.pack_nt_min != 0 ? tuning.pack_nt_min
                                         : shm::nt_default_threshold();
  xport_ = &world.xport();
  xport_hooks_ = xport_->has_hooks();
  coll_hier_nodes_ = std::max<std::uint32_t>(2, tuning.coll_hier_nodes);
  live_ = world.liveness();
  peer_timeout_ms_ = world.peer_timeout_ms();
  on_death_ = world.on_peer_death();
  fenced_.assign(static_cast<std::size_t>(world.nranks()), 0);
  tombstoned_.assign(static_cast<std::size_t>(world.nranks()), 0);
  if (live_.valid()) live_.beat(rank_);  // Stamp 0 means "never started".
  backends_.resize(5);
  int n = world.nranks();
  peer_recv_q_.reserve(static_cast<std::size_t>(n));
  peer_free_q_.reserve(static_cast<std::size_t>(n));
  fb_out_.resize(static_cast<std::size_t>(n));
  fb_in_.resize(static_cast<std::size_t>(n));
  fb_hot_.assign(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    peer_recv_q_.emplace_back(world.arena(), world.recv_q_off(r));
    peer_free_q_.emplace_back(world.arena(), world.free_q_off(r));
    if (r != rank) poll_order_.push_back(r);
    if (world.use_fastbox() && r != rank) {
      fb_out_[static_cast<std::size_t>(r)] =
          shm::Fastbox(world.arena(), world.fastbox_off(rank, r));
      fb_in_[static_cast<std::size_t>(r)] =
          shm::Fastbox(world.arena(), world.fastbox_off(r, rank));
    }
    if (xport_hooks_ && r != rank) xport_->connect(rank, r);
  }
}

void Engine::note_net(int peer, std::size_t bytes,
                      const transport::XferCost& c, bool ctrl) {
  if (!c.internode) return;
  if (ctrl) {
    counters_.net_ctrl_msgs++;
    if (trace::on(trace::Mode::kFull))
      tracer_.emit(trace::kNetCtrl, trace::kInstant,
                   static_cast<std::uint64_t>(peer));
  } else {
    counters_.net_msgs++;
    counters_.net_bytes += bytes;
    if (trace::on(trace::Mode::kRings))
      tracer_.emit(trace::kNetLink, trace::kInstant,
                   static_cast<std::uint64_t>(peer), bytes);
  }
  counters_.net_modeled_ns += c.ns;
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

lmt::LmtKind Engine::resolve_kind(std::size_t bytes, int dst,
                                  bool collective) {
  (void)collective;
  lmt::LmtKind k = world_.config().lmt;
  if (k == lmt::LmtKind::kAuto)
    k = policy_.choose_kind(bytes, world_.core_of(rank_),
                            world_.core_of(dst));
  if ((k == lmt::LmtKind::kVmsplice || k == lmt::LmtKind::kVmspliceWritev) &&
      !world_.vmsplice_ok())
    k = lmt::LmtKind::kDefaultShm;
  if (k == lmt::LmtKind::kCma && !world_.cma_ok())
    k = lmt::LmtKind::kDefaultShm;
  return k;
}

// --- Cell plumbing ----------------------------------------------------------

Cell* Engine::try_get_cell() {
  std::uint64_t off = free_q_.dequeue();
  if (off == kNil) return nullptr;
  return world_.arena().at_as<Cell>(off);
}

Cell* Engine::get_cell_blocking() {
  resil::WaitGuard guard = make_guard(resil::Site::kCellAlloc, -1);
  std::uint32_t spins = 0;
  for (;;) {
    Cell* c = try_get_cell();
    if (c != nullptr) return c;
    // Our cells come back when receivers drain them; drain our own traffic
    // meanwhile so the system cannot deadlock on cell exhaustion.
    progress();
    if ((++spins & 0x3F) == 0) {
      try {
        guard.check();
      } catch (const resil::PeerDeadError& e) {
        peer_death_fence(e);
        throw;
      }
    }
    std::this_thread::yield();
  }
}

void Engine::send_cell(int dst, Cell* cell) {
  peer_recv_q_[static_cast<std::size_t>(dst)].enqueue(
      world_.arena().offset_of(cell));
  stats_.cells_sent++;
}

void Engine::return_cell(Cell* cell) {
  peer_free_q_[static_cast<std::size_t>(cell->owner)].enqueue(
      world_.arena().offset_of(cell));
}

bool Engine::try_send_ctrl(const PendingCtrl& pc) {
  Cell* c = try_get_cell();
  if (c == nullptr) return false;
  c->src = static_cast<std::uint32_t>(rank_);
  c->type = static_cast<std::uint16_t>(pc.type);
  c->flags = static_cast<std::uint16_t>(pc.context);
  c->tag = pc.tag;
  c->msg_seq = pc.seq;
  c->total_size = 0;
  c->chunk_off = 0;
  c->payload_len = 0;
  if (pc.has_wire) {
    std::memcpy(c->data(), &pc.wire, sizeof(pc.wire));
    c->payload_len = sizeof(pc.wire);
    c->total_size = pc.wire.total;
  }
  send_cell(pc.dst, c);
  return true;
}

void Engine::send_ctrl(int dst, CellType type, std::uint32_t seq,
                       const lmt::RtsWire* wire, int tag, int context) {
  PendingCtrl pc;
  pc.dst = dst;
  pc.type = type;
  pc.seq = seq;
  pc.tag = tag;
  pc.context = context;
  pc.has_wire = wire != nullptr;
  if (wire != nullptr) pc.wire = *wire;
  if (xport_hooks_) note_net(dst, 0, xport_->on_doorbell(rank_, dst), true);
  if (!pending_ctrl_.empty() || !try_send_ctrl(pc))
    pending_ctrl_.push_back(pc);
}

// --- Send path ---------------------------------------------------------------

Request Engine::start_send(ConstSegmentList segs, int dst, int tag,
                           bool collective, int context) {
  NEMO_ASSERT(dst >= 0 && dst < nranks());
  auto req = std::make_shared<RequestState>();
  req->is_send = true;
  req->peer = dst;
  std::size_t total = total_bytes(segs);
  std::uint32_t seq = next_seq_[static_cast<std::size_t>(dst)]++;

  bool eager;
  if (dst == rank_) {
    eager = true;  // Self sends always go through the (local) eager path.
  } else if (world_.config().lmt == lmt::LmtKind::kAuto) {
    eager = !policy_.use_lmt(total, collective, world_.core_of(rank_),
                             world_.core_of(dst));
  } else {
    eager = total <= world_.config().eager_threshold;
  }

  if (eager) {
    // Small messages bypass the recv queue entirely through the pair's
    // fastbox ring (falling back to cells when every slot is occupied).
    if (dst != rank_ && world_.use_fastbox() && total <= fastbox_max_) {
      std::byte packed[shm::Fastbox::kMaxSlotBytes];
      const std::byte* data = nullptr;
      if (segs.size() == 1) {
        data = segs[0].base;
      } else {
        std::size_t filled = 0;
        for (const ConstSegment& s : segs) {
          std::memcpy(packed + filled, s.base, s.len);
          filled += s.len;
        }
        data = packed;
      }
      resil::fault_point(resil::Site::kFastboxPut, rank_);
      bool put;
      {
        trace::Span sp(tracer_, trace::kFastboxPut, trace::Mode::kFull,
                       static_cast<std::uint64_t>(dst), total);
        put = fb_out_[static_cast<std::size_t>(dst)].try_put(
            static_cast<std::uint32_t>(rank_), tag, seq,
            static_cast<std::uint32_t>(context), data, total);
      }
      if (put) {
        stats_.fastbox_sent++;
        stats_.eager_msgs_sent++;
        stats_.bytes_sent += total;
        counters_.fastbox_hits++;
        counters_.record_send(total, tune::Counters::kPathFastbox);
        if (xport_hooks_)
          note_net(dst, total, xport_->on_eager(rank_, dst, total), false);
        req->complete = true;
        return req;
      }
      counters_.fastbox_fallbacks++;
      if (trace::on())
        tracer_.emit(trace::kFastboxFallback, trace::kInstant,
                     static_cast<std::uint64_t>(dst));
    }
    // Cell-path eager sends must not overtake control messages parked by
    // cell exhaustion: the receiver merges each source's streams by seq,
    // and a gap that is neither in the queue nor the fastbox is fatal.
    {
      resil::WaitGuard guard = make_guard(resil::Site::kPendingCtrl, -1);
      std::uint32_t spins = 0;
      while (!pending_ctrl_.empty()) {
        progress();
        if (!pending_ctrl_.empty()) {
          if ((++spins & 0x3F) == 0) {
            try {
              guard.check();
            } catch (const resil::PeerDeadError& e) {
              peer_death_fence(e);
              throw;
            }
          }
          std::this_thread::yield();
        }
      }
    }
    std::size_t off = 0;
    std::size_t seg_idx = 0, seg_off = 0;
    bool first = true;
    while (off < total || first) {
      Cell* c = get_cell_blocking();
      c->src = static_cast<std::uint32_t>(rank_);
      c->type = static_cast<std::uint16_t>(first ? CellType::kEagerFirst
                                                 : CellType::kEagerBody);
      c->flags = static_cast<std::uint16_t>(context);
      c->tag = tag;
      c->msg_seq = seq;
      c->total_size = total;
      c->chunk_off = off;
      // Gather into the cell payload.
      std::size_t filled = 0;
      while (filled < Cell::kPayload && off < total) {
        const ConstSegment& s = segs[seg_idx];
        std::size_t avail = s.len - seg_off;
        if (avail == 0) {
          ++seg_idx;
          seg_off = 0;
          continue;
        }
        std::size_t n = Cell::kPayload - filled;
        if (avail < n) n = avail;
        std::memcpy(c->data() + filled, s.base + seg_off, n);
        filled += n;
        seg_off += n;
        off += n;
      }
      c->payload_len = static_cast<std::uint32_t>(filled);
      send_cell(dst, c);
      first = false;
    }
    stats_.eager_msgs_sent++;
    stats_.bytes_sent += total;
    counters_.record_send(total, tune::Counters::kPathEager);
    if (xport_hooks_ && dst != rank_)
      note_net(dst, total, xport_->on_eager(rank_, dst, total), false);
    req->complete = true;  // Payload is buffered in cells.
    return req;
  }

  // Rendezvous.
  lmt::LmtKind kind = resolve_kind(total, dst, collective);
  if (trace::on())
    tracer_.emit(trace::kLmtActivate, trace::kInstant,
                 static_cast<std::uint64_t>(dst), total);
  if (xport_hooks_)
    note_net(dst, total, xport_->on_lmt(rank_, dst, total), false);
  auto ctx = std::make_unique<lmt::SendCtx>();
  ctx->peer = dst;
  ctx->tag = tag;
  ctx->seq = seq;
  ctx->segs = std::move(segs);
  ctx->total = total;
  lmt::Backend& b = backend_for(kind);
  b.send_init(*ctx);

  send_ctrl(dst, CellType::kRts, seq, &ctx->rts, tag, context);
  // Crash site: the RTS is published (it lives in shared cells, so it
  // survives this rank's death) but the rendezvous will never be fulfilled.
  resil::fault_point(resil::Site::kCmaRendezvous, rank_);
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
  auto req = std::make_shared<RequestState>();
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
    send_ctrl(src, CellType::kCts, seq, nullptr, tag);
    ctx->cts_sent = true;
  }

  Key key{src, seq};
  if (kind == lmt::LmtKind::kKnem || kind == lmt::LmtKind::kCma) {
    // Receiver-driven backends have no per-pair data FIFO; poll unordered.
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
      be.segs = pr->segs;
      be.total = total;
      be.arrived = len;
      be.req = pr->req;
      be.tag = tag;
      bound_eager_[{src, seq}] = std::move(be);
    }
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

bool Engine::poll_fastbox(int src) {
  shm::Fastbox& fb = fb_in_[static_cast<std::size_t>(src)];
  if (!fb.valid()) return false;
  const shm::FastboxSlot* st = fb.peek();
  if (st == nullptr ||
      st->msg_seq != expected_seq_[static_cast<std::size_t>(src)])
    return false;
  expected_seq_[static_cast<std::size_t>(src)]++;
  stats_.fastbox_recv++;
  fb_hot_[static_cast<std::size_t>(src)]++;
  // Fastbox messages are always complete (len == total): deliver straight
  // from the slot, then return it to the sender.
  trace::Span sp(tracer_, trace::kFastboxPop, trace::Mode::kFull,
                 static_cast<std::uint64_t>(src), st->payload_len);
  deliver_eager_first(src, st->tag, static_cast<int>(st->context),
                      st->msg_seq, st->payload_len, st->payload(),
                      st->payload_len);
  fb.release();
  return true;
}

void Engine::poll_fastboxes() {
  if (!world_.use_fastbox()) return;
  for (int src : poll_order_) poll_fastbox(src);
}

void Engine::reorder_poll() {
  // Hot peers first: under alltoall-style load at 8+ ranks most passes find
  // only a few boxes full; scanning those first shortens the latency of the
  // common case. Stable sort keeps rank order among equally-warm peers; the
  // decay halves history so a peer that goes quiet drifts back.
  std::stable_sort(poll_order_.begin(), poll_order_.end(),
                   [&](int a, int b) {
                     return fb_hot_[static_cast<std::size_t>(a)] >
                            fb_hot_[static_cast<std::size_t>(b)];
                   });
  for (auto& h : fb_hot_) h >>= 1;
}

void Engine::sync_stream(int src, std::uint32_t seq) {
  // Cells from one source dequeue in send order, so the only message that
  // can be missing ahead of `seq` is the (single) one parked in the pair's
  // fastbox — its publish happens-before the later cell's enqueue.
  while (expected_seq_[static_cast<std::size_t>(src)] < seq) {
    bool got = poll_fastbox(src);
    NEMO_ASSERT_MSG(got, "message stream gap not resident in fastbox");
  }
  NEMO_ASSERT(expected_seq_[static_cast<std::size_t>(src)] == seq);
}

void Engine::handle_eager(Cell* cell) {
  int src = static_cast<int>(cell->src);
  auto type = static_cast<CellType>(cell->type);
  if (type == CellType::kEagerFirst) {
    deliver_eager_first(src, cell->tag, static_cast<int>(cell->flags),
                        cell->msg_seq, cell->total_size, cell->data(),
                        cell->payload_len);
    return;
  }

  // Continuation chunk: either bound to a user buffer already or still in
  // the unexpected queue.
  auto it = bound_eager_.find({src, cell->msg_seq});
  if (it != bound_eager_.end()) {
    BoundEager& be = it->second;
    scatter_at(be.segs, cell->chunk_off, cell->data(), cell->payload_len);
    be.arrived += cell->payload_len;
    if (be.arrived == be.total) {
      be.req->complete = true;
      be.req->info = RecvInfo{src, be.tag, be.total};
      stats_.eager_msgs_recv++;
      stats_.bytes_recv += be.total;
      bound_eager_.erase(it);
    }
    return;
  }
  UnexpectedMsg* um = matcher_.find_partial(src, cell->msg_seq);
  NEMO_ASSERT_MSG(um != nullptr, "eager continuation without a first chunk");
  std::memcpy(um->data.data() + cell->chunk_off, cell->data(),
              cell->payload_len);
  um->bytes_arrived += cell->payload_len;
}

void Engine::handle_rts(Cell* cell) {
  int src = static_cast<int>(cell->src);
  lmt::RtsWire rts;
  NEMO_ASSERT(cell->payload_len == sizeof(rts));
  std::memcpy(&rts, cell->data(), sizeof(rts));

  std::unique_ptr<PostedRecv> pr = matcher_.match_incoming(
      src, cell->tag, static_cast<int>(cell->flags));
  if (pr != nullptr) {
    start_lmt_recv(src, cell->tag, cell->msg_seq, rts, *pr);
    return;
  }
  std::unique_ptr<UnexpectedMsg> um = matcher_.acquire_unexpected(0);
  um->src = src;
  um->tag = cell->tag;
  um->context = static_cast<int>(cell->flags);
  um->seq = cell->msg_seq;
  um->is_rndv = true;
  um->rts = rts;
  um->total = rts.total;
  matcher_.add_unexpected(std::move(um));
}

void Engine::handle_cts(Cell* cell) {
  auto it = sends_.find({static_cast<int>(cell->src), cell->msg_seq});
  NEMO_ASSERT_MSG(it != sends_.end(), "CTS for unknown rendezvous");
  it->second.ctx->cts_seen = true;
}

void Engine::handle_fin(Cell* cell) {
  auto it = sends_.find({static_cast<int>(cell->src), cell->msg_seq});
  NEMO_ASSERT_MSG(it != sends_.end(), "FIN for unknown rendezvous");
  it->second.ctx->fin_seen = true;
}

void Engine::handle_cell(Cell* cell) {
  auto type = static_cast<CellType>(cell->type);
  // New-message cells participate in the per-source sequence stream that
  // fastbox messages share; merge back into sender order before delivery.
  if (type == CellType::kEagerFirst || type == CellType::kRts) {
    int src = static_cast<int>(cell->src);
    sync_stream(src, cell->msg_seq);
    expected_seq_[static_cast<std::size_t>(src)]++;
  }
  switch (type) {
    case CellType::kEagerFirst:
    case CellType::kEagerBody:
      handle_eager(cell);
      break;
    case CellType::kRts:
      handle_rts(cell);
      break;
    case CellType::kCts:
      handle_cts(cell);
      break;
    case CellType::kFin:
      handle_fin(cell);
      break;
    case CellType::kBarrier:
      NEMO_ASSERT_MSG(false, "barrier cells are not routed through engines");
      break;
  }
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
    send_ctrl(e.ctx->peer, CellType::kFin, e.ctx->seq, nullptr, e.ctx->tag);
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

  while (!pending_ctrl_.empty()) {
    if (!try_send_ctrl(pending_ctrl_.front())) break;
    pending_ctrl_.pop_front();
  }

  // One pass drains every ready fastbox, a batch of queue cells, then the
  // fastboxes again (a box whose message was sequenced after queued cells
  // only becomes consumable once those cells are handled).
  poll_fastboxes();
  std::uint32_t drained = 0;
  while (drained < drain_budget_) {
    std::uint64_t off = recv_q_.dequeue();
    if (off == kNil) break;
    ++drained;
    Cell* cell = world_.arena().at_as<Cell>(off);
    handle_cell(cell);
    return_cell(cell);
  }
  // Budget fully consumed = cells were likely left enqueued; the tuner
  // reads this as "drain budget too small for this workload".
  if (drained == drain_budget_) counters_.drain_exhausted++;
  counters_.progress_passes++;
  // Heartbeat: a rank that makes progress is alive. Every 64 passes keeps
  // the clock read off the hot path while staying far inside any sane
  // NEMO_PEER_TIMEOUT_MS (spin loops run progress() every 64 spins).
  if (live_.valid() && (counters_.progress_passes & 0x3F) == 0)
    live_.beat(rank_);
  if (poll_hot_ && (counters_.progress_passes & 0x1FF) == 0) reorder_poll();
  poll_fastboxes();

  progress_sends();
  progress_recvs();
  if (xport_hooks_) xport_->progress(rank_);
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
      if (xport_hooks_) {
        tracer_.emit(trace::kSnapshot, trace::kCounter, trace::kGaugeNetMsgs,
                     counters_.net_msgs);
        tracer_.emit(trace::kSnapshot, trace::kCounter, trace::kGaugeNetBytes,
                     counters_.net_bytes);
        tracer_.emit(trace::kSnapshot, trace::kCounter,
                     trace::kGaugeNetModeledNs, counters_.net_modeled_ns);
      }
    }
  }
  in_progress_ = false;
}

void Engine::wait(const Request& req) {
  NEMO_ASSERT(req != nullptr);
  if (req->complete) return;
  resil::WaitGuard guard = make_guard(resil::Site::kEngineWait, req->peer);
  std::uint32_t spins = 0;
  try {
    while (!req->complete) {
      progress();
      if (!req->complete) {
        if ((++spins & 0x3F) == 0) guard.check();
        // Oversubscribed hosts (ranks > cores): let the peer run instead of
        // burning the rest of the timeslice polling an empty queue.
        std::this_thread::yield();
      }
    }
  } catch (const resil::PeerDeadError& e) {
    peer_death_fence(e);
    throw;
  }
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
  pending_ctrl_.erase(
      std::remove_if(pending_ctrl_.begin(), pending_ctrl_.end(),
                     [&](const PendingCtrl& pc) {
                       return pc.dst == dead_rank;
                     }),
      pending_ctrl_.end());

  // Reclaim the dead rank's fastboxes: stop polling them (a half-written
  // put is invisible by protocol; a fully published one is abandoned).
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
      std::max({eng.coll_seq_, eng.coll_bar_seq_, eng.coll_probe_seq_}) + 8;
  live.propose_resync(proposal);
  std::uint64_t gen = live.fence_generation();
  live.set_fence_flag(self, gen + 1);

  resil::WaitGuard guard = eng.make_guard(resil::Site::kFenceSync, -1);
  std::uint32_t spins = 0;
  auto bounded_wait = [&](auto&& pred) {
    while (!pred()) {
      eng.progress();
      if ((++spins & 0x3F) == 0) guard.check();
      std::this_thread::yield();
    }
  };
  bounded_wait([&] {
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
  bounded_wait([&] { return live.fence_generation() >= gen + 1; });
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
