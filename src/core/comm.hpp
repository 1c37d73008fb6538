// The nemo message-passing runtime: World (shared state set up before ranks
// spawn), Engine (per-rank progress engine: eager path, matching, rendezvous
// orchestration across LMT backends) and Comm (the public MPI-like API).
#pragma once

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coll/coll.hpp"
#include "coll/coll_arena.hpp"
#include "common/common.hpp"
#include "common/iovec.hpp"
#include "common/topology.hpp"
#include "core/datatype.hpp"
#include "core/match.hpp"
#include "knem/knem_device.hpp"
#include "lmt/lmt.hpp"
#include "lmt/policy.hpp"
#include "resil/resil.hpp"
#include "shm/arena.hpp"
#include "shm/copy_ring.hpp"
#include "shm/dma_engine.hpp"
#include "shm/fastbox.hpp"
#include "shm/numa.hpp"
#include "shm/pipes.hpp"
#include "simd/simd.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"
#include "tune/counters.hpp"
#include "tune/tuning.hpp"

namespace nemo::core {

enum class LaunchMode { kThreads, kProcesses };

/// Everything a World is built from. Every NEMO_* knob lands in a field
/// here or in `tuning` (see core/knobs.hpp for the table); the World
/// resolves them once at construction: a pin in `env` beats the process
/// environment, which beats the programmatic field / formula value.
struct Config {
  /// Per-World knob pins, NEMO_* name -> value. Unknown names throw at
  /// World construction. Process-scoped knobs (NEMO_TRACE_OUT) cannot be
  /// pinned.
  std::map<std::string, std::string> env;

  int nranks = 2;
  LaunchMode mode = LaunchMode::kThreads;

  lmt::LmtKind lmt = lmt::LmtKind::kAuto;
  lmt::KnemMode knem_mode = lmt::KnemMode::kSyncCopy;
  lmt::PolicyConfig policy{};

  /// Messages strictly larger than this leave the eager path. (The policy's
  /// activation thresholds apply when lmt == kAuto; this is the hardwired
  /// Nemesis 64 KiB default otherwise.)
  std::size_t eager_threshold = 64 * KiB;

  /// Copy-ring geometry. Four buffers by default so copy #1 and copy #2
  /// pipeline deeply (the seed's 2×32KiB ring stalls the sender every other
  /// chunk). Overridable per run via NEMO_RING_BUFS / NEMO_RING_BUF_BYTES.
  std::uint32_t ring_bufs = 4;
  std::uint32_t ring_buf_bytes = shm::CopyRing::kDefaultBufBytes;

  /// Minimum rendezvous size that switches the shm-copy ring to streaming
  /// (non-temporal) stores. 0 = auto: the per-placement formula row (half
  /// the last-level cache). SIZE_MAX (or NEMO_NT_MIN=off) = never.
  std::size_t nt_min = 0;

  std::size_t arena_bytes = 0;        ///< 0 = auto.
  std::size_t shared_pool_bytes = 32 * MiB;  ///< For Comm::shared_alloc.

  /// rank -> core pinning (empty = no pinning). Also feeds the policy's
  /// placement decisions.
  std::vector<int> core_binding;

  /// Machine description for the selection policy. Empty name = detect.
  Topology topo{};

  /// Tuning table override. Unset = tune::effective_table for the world's
  /// topology (the formulas). Knobs that land in the table override either,
  /// a programmatic table included.
  std::optional<tune::TuningTable> tuning;

  /// NUMA placement policy for per-pair shared regions (ring buffers,
  /// fastboxes): receiver-side for cross-node pairs under kAuto. Overridable
  /// via NEMO_NUMA_PLACEMENT; binding degrades to first-touch when the host
  /// is single-node or mbind is unavailable (decisions stay recorded).
  shm::NumaPlacement numa_placement = shm::NumaPlacement::kAuto;

  /// Collective path selection: kAuto takes the shared-memory collective
  /// arena at/above the table's coll_activation (which follows `mode`) and
  /// the pt2pt algorithms below it. NEMO_COLL=shm|p2p|auto overrides.
  coll::Mode coll = coll::Mode::kAuto;
  /// Per-rank collective-arena slot capacity. 0 = the tuning table's
  /// coll_slot_bytes (NEMO_COLL_SLOT_BYTES overrides either).
  std::size_t coll_slot_bytes = 0;

  /// Model I/OAT presence (the software DMA channel).
  bool dma_available = true;

  /// CMA kill-switch (NEMO_CMA=off): pretend process_vm_readv is absent, so
  /// a KNEM message whose pages another process could only reach over
  /// cross-memory attach takes the copy ring instead (CI simulates
  /// ptrace_scope/seccomp-restricted containers this way).
  bool cma_enabled = true;

  std::string shm_name;  ///< Nonempty: shm_open-backed arena (else anon).

  /// Peer liveness timeout for every formerly-unbounded wait (doorbells,
  /// acks, barriers, rendezvous). resil::kTimeoutOff (NEMO_PEER_TIMEOUT_MS
  /// =off) restores the pre-resilience unbounded behaviour.
  std::size_t peer_timeout_ms = resil::kDefaultTimeoutMs;
  /// What survivors do after a death verdict: poison the world (kAbort,
  /// default) or keep it usable over the survivor set (kDegrade).
  /// NEMO_ON_PEER_DEATH=abort|degrade overrides.
  resil::OnPeerDeath on_peer_death = resil::OnPeerDeath::kAbort;
  /// Fault-injection spec `rank:site:kill` (NEMO_FAULT); empty disarms.
  std::string fault;

  /// Process-wide trace mode the World installs (NEMO_TRACE) and each
  /// rank's event-ring capacity (NEMO_TRACE_RING_SLOTS).
  trace::Mode trace = trace::Mode::kOff;
  std::size_t trace_ring_slots = trace::kDefaultRingSlots;

  bool operator==(const Config&) const = default;
};

struct RecvInfo {
  int src = -1;
  int tag = -1;
  std::size_t bytes = 0;
};

struct RequestState {
  bool complete = false;
  bool is_send = false;
  int peer = -1;  ///< Other side of the transfer (liveness watch target).
  RecvInfo info{};
};
using Request = std::shared_ptr<RequestState>;

class Engine;

/// The recorded NUMA decision for one ordered pair's shared regions. `node`
/// / `interleaved` are the decision (computed even on single-node hosts so
/// it stays testable); `bound` reports whether mbind actually applied it.
struct RingPlacement {
  PairPlacement pair = PairPlacement::kDifferentSockets;
  int node = -1;            ///< Target NUMA node; -1 = first-touch.
  bool interleaved = false;
  bool bound = false;
};

/// All cross-rank shared state. Construct in the launcher before ranks
/// spawn; ranks then build a Comm against it.
class World {
 public:
  explicit World(Config cfg);

  [[nodiscard]] int nranks() const { return cfg_.nranks; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const Topology& topology() const { return cfg_.topo; }
  /// The effective (formula + knobs) tuning state every layer consults.
  [[nodiscard]] const tune::TuningTable& tuning() const {
    return *cfg_.tuning;
  }
  [[nodiscard]] shm::Arena& arena() { return arena_; }
  [[nodiscard]] shm::PipeMatrix& pipes() { return pipes_; }

  [[nodiscard]] std::uint64_t ring_off(int src, int dst) const {
    NEMO_ASSERT(src != dst);
    return ring_offs_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(cfg_.nranks) +
                      static_cast<std::size_t>(dst)];
  }
  [[nodiscard]] std::uint64_t fastbox_off(int src, int dst) const {
    NEMO_ASSERT(src != dst);
    return fastbox_offs_[static_cast<std::size_t>(src) *
                             static_cast<std::size_t>(cfg_.nranks) +
                         static_cast<std::size_t>(dst)];
  }
  [[nodiscard]] std::uint64_t knem_off() const { return knem_off_; }

  /// The collective arena (kNil for 1-rank worlds).
  [[nodiscard]] std::uint64_t coll_off() const { return coll_off_; }
  /// Effective collective path mode after env resolution.
  [[nodiscard]] coll::Mode coll_mode() const { return cfg_.coll; }

  /// Effective NUMA placement mode after env resolution.
  [[nodiscard]] shm::NumaPlacement numa_mode() const {
    return cfg_.numa_placement;
  }
  /// The placement decision applied to pair (src, dst)'s ring/fastbox.
  [[nodiscard]] const RingPlacement& ring_placement(int src, int dst) const {
    NEMO_ASSERT(src != dst);
    return ring_place_[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(cfg_.nranks) +
                       static_cast<std::size_t>(dst)];
  }

  /// Effective availability after probing the host.
  [[nodiscard]] bool vmsplice_ok() const { return vmsplice_ok_; }
  [[nodiscard]] bool cma_ok() const { return cma_ok_; }

  [[nodiscard]] int core_of(int rank) const {
    if (rank < 0 ||
        static_cast<std::size_t>(rank) >= cfg_.core_binding.size())
      return -1;
    return cfg_.core_binding[static_cast<std::size_t>(rank)];
  }

  void register_pid(int rank, pid_t pid);
  [[nodiscard]] pid_t pid_of(int rank) const;

  /// Centralised shared-memory barrier across all ranks (bench phase sync;
  /// distinct from Comm::barrier() which exercises the pt2pt path). Passing
  /// the calling rank arms the liveness guard (the rank keeps heartbeating
  /// and a dead peer raises PeerDeadError); the default -1 waits unbounded,
  /// preserving the historical contract for anonymous callers. `idle` runs
  /// between probes while the barrier waits.
  void hard_barrier(int self_rank = -1,
                    const std::function<void()>& idle = {});

  /// View of the per-rank liveness region (heartbeats, death flags, fence
  /// words). Offset-addressed: take a fresh view after reattach_in_child().
  [[nodiscard]] resil::Liveness liveness() const {
    return {arena_, life_off_, cfg_.nranks};
  }
  /// Effective peer timeout after env resolution (resil::kTimeoutOff = off).
  [[nodiscard]] std::size_t peer_timeout_ms() const {
    return cfg_.peer_timeout_ms;
  }
  [[nodiscard]] resil::OnPeerDeath on_peer_death() const {
    return cfg_.on_peer_death;
  }

  /// Arena-backed allocation visible to every rank (MPI_Alloc_mem-like).
  std::byte* shared_alloc(std::size_t bytes, std::size_t align = kCacheLine);

  /// Called once in each forked child (process mode, shm-backed arena):
  /// drops the inherited parent mapping and re-attaches the arena via
  /// shm_open at a fresh, child-chosen base address, then re-applies the
  /// recorded NUMA placement decisions to the new VMA. Exercises the real
  /// deployment path where peers map the segment at different addresses, so
  /// every cross-rank structure must be offset-addressed.
  void reattach_in_child();

 private:
  Config cfg_;
  shm::Arena arena_;
  shm::PipeMatrix pipes_;
  std::vector<std::uint64_t> ring_offs_;
  std::vector<std::uint64_t> fastbox_offs_;
  std::vector<RingPlacement> ring_place_;
  std::uint64_t coll_off_ = shm::kNil;
  std::uint64_t knem_off_ = 0;
  std::uint64_t pid_table_off_ = 0;
  std::uint64_t barrier_off_ = 0;
  std::uint64_t life_off_ = 0;
  bool vmsplice_ok_ = false;
  bool cma_ok_ = false;
};

/// Statistics a rank's engine gathers (used by benches and tests).
struct EngineStats {
  std::uint64_t eager_msgs_sent = 0;
  std::uint64_t eager_msgs_recv = 0;
  std::uint64_t fastbox_sent = 0;  ///< Eager messages put straight in a ring.
  std::uint64_t fastbox_recv = 0;  ///< Eager messages read from a ring.
  std::uint64_t rndv_sent = 0;
  std::uint64_t rndv_recv = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::array<std::uint64_t, 4> rndv_by_kind{};  ///< Indexed by LmtKind 0..3.
};

/// Per-rank progress engine. Single-threaded: every call happens on the
/// owning rank's thread.
class Engine {
 public:
  Engine(World& world, int rank);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] World& world() { return world_; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nranks() const { return world_.nranks(); }
  [[nodiscard]] const lmt::Policy& policy() const { return policy_; }
  [[nodiscard]] knem::Device& knem_device() { return knem_dev_; }

  /// The I/OAT-like channel: non-temporal, background, unpinned.
  shm::DmaEngine& dma_channel();
  /// The kernel-thread offload: cached copy, pinned to this rank's core.
  shm::DmaEngine& kthread_channel();

  Request start_send(ConstSegmentList segs, int dst, int tag,
                     bool collective = false, int context = 0);
  Request start_recv(SegmentList segs, int src, int tag, int context = 0);

  void progress();
  void wait(const Request& req);
  bool test(const Request& req);

  /// Every engine-side wait: resil::wait_until on `ready`, guarded at
  /// `site` (`watch` = the rank it depends on, -1 = any peer), with
  /// progress() as the idle hook. A death verdict runs the local epoch
  /// fence before PeerDeadError propagates. Builds its guard up front, so
  /// callers probe their own fast path first.
  template <typename Ready>
  void wait_until(resil::Site site, int watch, Ready&& ready) {
    try {
      resil::wait_until(make_guard(site, watch), ready, [this] { progress(); });
    } catch (const resil::PeerDeadError& e) {
      peer_death_fence(e);
      throw;
    }
  }

  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  /// Telemetry registry this rank's hot paths feed (backends bump it too).
  [[nodiscard]] tune::Counters& counters() { return counters_; }
  [[nodiscard]] const tune::Counters& counters() const { return counters_; }
  /// This rank's event-ring tracer (inactive unless NEMO_TRACE enables it;
  /// backends and the collective layer emit through it like counters()).
  [[nodiscard]] trace::Tracer& tracer() { return tracer_; }

  /// Monotonic collective-instance counter (tag namespacing / arena
  /// epochs). 64-bit: a u32 would wrap within hours under a tight barrier
  /// loop, and epoch-tag monotonicity (coll_arena.hpp) must hold for the
  /// life of the world.
  std::uint64_t bump_coll_seq() { return coll_seq_++; }

  /// This rank's view of the world's collective arena (invalid placeholder
  /// in 1-rank worlds, where every collective is a local no-op).
  [[nodiscard]] coll::WorldColl& coll_view() { return coll_; }
  /// Next arena-barrier sequence. Monotonic and lock-step across ranks:
  /// every rank runs the same collective schedule, and each shm collective
  /// issues the same number of arena barriers on every rank.
  std::uint64_t next_coll_barrier_seq() { return ++coll_bar_seq_; }
  /// Next exchange-cell instance (coll_detail::cell_exchange); lock-step
  /// across ranks for the same reason.
  std::uint64_t next_coll_cell_seq() { return ++coll_cell_seq_; }
  /// Reduction kernel every fold on this rank runs (NEMO_SIMD > tuning
  /// table > CPUID best; resolved once at construction).
  [[nodiscard]] simd::Kernel simd_kernel() const { return simd_kernel_; }
  /// Minimum contiguous run that routes datatype pack/unpack through the
  /// NT streaming engine (tuned pack_nt_min / NEMO_PACK_NT_MIN).
  [[nodiscard]] std::size_t pack_nt_min() const { return pack_nt_min_; }

  /// Resolve the LMT kind for a message to `dst` from `segs` (exposed for
  /// tests/benches).
  [[nodiscard]] lmt::LmtKind resolve_kind(
      int dst, std::span<const ConstSegment> segs) const;

  // --- liveness / recovery --------------------------------------------------
  /// This rank's view of the liveness table (valid whenever the world's is).
  [[nodiscard]] const resil::Liveness& liveness() const { return live_; }
  /// Local epoch fence for a death verdict: quiesce in-flight ops involving
  /// the dead rank, tombstone its arena cells, re-pick the collective leader
  /// over the survivor set, bump counters, and emit the trace events.
  /// Idempotent per dead rank; never throws.
  void peer_death_fence(int dead_rank, resil::Site site,
                        bool from_timeout) noexcept;
  void peer_death_fence(const resil::PeerDeadError& e) noexcept {
    peer_death_fence(e.rank, e.site, e.from_timeout);
  }
  /// Schedule-shrink predicate: has this engine fenced `r`'s death AND is
  /// it allowed to route around it? Abort mode always answers false, so the
  /// collective schedules stay exactly as configured and the next wait that
  /// touches the dead rank fails fast on its sticky dead flag instead of
  /// silently degrading.
  [[nodiscard]] bool rank_fenced(int r) const {
    return on_death_ == resil::OnPeerDeath::kDegrade &&
           fenced_[static_cast<std::size_t>(r)] != 0;
  }
  [[nodiscard]] bool any_fenced() const {
    return on_death_ == resil::OnPeerDeath::kDegrade && fenced_count_ > 0;
  }
  /// Lowest rank this engine still considers alive (the degraded-mode
  /// reduction seed and fence publisher).
  [[nodiscard]] int lowest_alive() const;
  /// Tombstone every fenced rank's collective-arena cells. Only safe once
  /// no survivor can still be parked in the diverged epoch — i.e. from
  /// Comm::fence_world() after all fence flags are up. Idempotent per rank.
  void reclaim_fenced() noexcept;

 private:
  friend class Comm;

  /// wait_until's guard for one wait site (`watch` as there).
  [[nodiscard]] resil::WaitGuard make_guard(resil::Site site, int watch);

  using Key = std::pair<int, std::uint32_t>;  ///< (peer, seq).

  /// One message on its way into a pair's ring: an eager payload or a
  /// control wire, put as one record or, when larger than a record, as
  /// consecutive ones.
  struct OutMsg {
    shm::RecordType type = shm::RecordType::kEager;
    int tag = 0;
    int context = 0;
    std::uint32_t seq = 0;
    std::size_t total = 0;  ///< Payload bytes.
    std::size_t sent = 0;   ///< Bytes already in the ring.
    std::vector<std::byte> copy;  ///< Deferred: the payload, pooled.
  };

  /// Reassembly target for an eager message already matched to a user
  /// buffer (posted before fully arrived).
  struct BoundEager {
    SegmentList segs;
    std::size_t total = 0;
    std::size_t arrived = 0;
    Request req;
    int tag = -1;
  };

  /// Send `m` to `dst` in ring order: straight into the ring when nothing
  /// waits ahead of it, else it waits, copied, in dst's FIFO. True when it
  /// went straight in.
  bool send_msg(int dst, OutMsg m, std::span<const ConstSegment> payload);
  /// Put `m`'s records from m.sent on; false once the ring is full.
  bool put_records(int dst, OutMsg& m, std::span<const ConstSegment> payload);
  /// Move dst's deferred messages into its ring; true when none is left.
  bool flush(int dst);
  /// flush() every destination with deferred messages.
  void flush_deferred();
  void send_ctrl(int dst, shm::RecordType type, std::uint32_t seq,
                 const lmt::RtsWire* wire, int tag, int context = 0);

  /// Consume one record from `src`'s ring, if one is there.
  void poll_ring(int src);
  void handle_rts(int src, const shm::FastboxRecord& r);

  /// Deliver the first (or only) chunk of an eager message.
  void deliver_eager_first(int src, int tag, int context, std::uint32_t seq,
                           std::size_t total, const std::byte* data,
                           std::size_t len);
  /// Deliver a continuation chunk of message (src, seq).
  void deliver_eager_body(int src, std::uint32_t seq, const std::byte* data,
                          std::size_t len);

  void start_lmt_recv(int src, int tag, std::uint32_t seq,
                      const lmt::RtsWire& rts, PostedRecv& pr);
  void progress_sends();
  void progress_recvs();
  void complete_recv(const Key& key);
  void complete_send(const Key& key);

  lmt::Backend& backend_for(lmt::LmtKind kind);

  World& world_;
  int rank_;
  lmt::Policy policy_;
  knem::Device knem_dev_;

  // Per-peer cached views of this rank's inbound and outbound rings
  // (rebuilt-per-call views were a measurable cost on the hot path).
  std::vector<shm::Fastbox> fb_out_;  ///< Indexed by destination rank.
  std::vector<shm::Fastbox> fb_in_;   ///< Indexed by source rank.
  /// Ring poll order: every live peer, in rank order.
  std::vector<int> poll_order_;
  /// Per destination: messages waiting for room in the ring, in send order.
  std::vector<std::deque<OutMsg>> deferred_;
  std::size_t deferred_msgs_ = 0;  ///< Across every destination.
  /// Payload buffers of flushed deferred messages, for reuse.
  std::vector<std::vector<std::byte>> spare_bufs_;

  std::unique_ptr<shm::DmaEngine> dma_channel_;
  std::unique_ptr<shm::DmaEngine> kthread_channel_;

  std::vector<std::unique_ptr<lmt::Backend>> backends_;  // by kind index

  MatchEngine matcher_;
  std::vector<std::uint32_t> next_seq_;  ///< Per destination.
  std::map<std::pair<int, std::uint32_t>, BoundEager> bound_eager_;

  // Rendezvous registries.
  struct SendEntry {
    std::unique_ptr<lmt::SendCtx> ctx;
    Request req;
    lmt::Backend* backend = nullptr;
  };
  struct RecvEntry {
    std::unique_ptr<lmt::RecvCtx> ctx;
    Request req;
    lmt::Backend* backend = nullptr;
  };
  std::map<Key, SendEntry> sends_;
  std::map<Key, RecvEntry> recvs_;
  std::map<int, std::deque<Key>> serial_sends_;  ///< Per dst, FIFO.
  std::map<int, std::deque<Key>> serial_recvs_;  ///< Per src, seq-sorted.
  std::vector<Key> knem_recvs_;

  EngineStats stats_;
  tune::Counters counters_;
  trace::Tracer tracer_;  ///< Event ring (allocated only when tracing is on).
  /// Cached registry histogram for progress-pass latency (full mode only;
  /// cached so the hot path never takes the registry lock).
  trace::Histogram* progress_hist_ = nullptr;
  coll::WorldColl coll_;  ///< View of the world's collective arena.
  std::uint64_t coll_bar_seq_ = 0;    ///< Arena-barrier sequence issued.
  std::uint64_t coll_cell_seq_ = 0;   ///< Exchange-cell instances issued.
  simd::Kernel simd_kernel_ = simd::Kernel::kScalar;  ///< Resolved fold ISA.
  std::size_t pack_nt_min_ = SIZE_MAX;  ///< Tuned pack->NT-store cutoff.
  bool in_progress_ = false;
  std::uint64_t coll_seq_ = 0;

  // Liveness / recovery state (engine-local; the shared words live in the
  // arena behind live_).
  resil::Liveness live_;
  std::size_t peer_timeout_ms_ = resil::kTimeoutOff;
  resil::OnPeerDeath on_death_ = resil::OnPeerDeath::kAbort;
  std::vector<unsigned char> fenced_;  ///< Per-rank: death already fenced.
  std::vector<unsigned char> tombstoned_;  ///< Per-rank: cells reclaimed.
  int fenced_count_ = 0;

  /// Reset the lock-step collective sequence counters to the fence's agreed
  /// floor (fence_world), restoring cross-rank counter agreement after
  /// survivors abandoned different numbers of in-flight rounds.
  void resync_coll_seqs(std::uint64_t floor) {
    coll_seq_ = floor;
    coll_bar_seq_ = floor;
    coll_cell_seq_ = floor;
  }
};

/// Public communicator handle for one rank.
class Comm {
 public:
  Comm(World& world, int rank);

  [[nodiscard]] int rank() const { return engine_.rank(); }
  [[nodiscard]] int size() const { return engine_.nranks(); }
  [[nodiscard]] World& world() { return engine_.world(); }
  [[nodiscard]] Engine& engine() { return engine_; }

  // --- Point-to-point -----------------------------------------------------
  void send(const void* buf, std::size_t bytes, int dst, int tag,
            int context = 0);
  void recv(void* buf, std::size_t bytes, int src, int tag,
            RecvInfo* info = nullptr, int context = 0);

  Request isend(const void* buf, std::size_t bytes, int dst, int tag,
                int context = 0);
  Request irecv(void* buf, std::size_t bytes, int src, int tag,
                int context = 0);

  /// Scatter/gather variants (noncontiguous buffers).
  Request isendv(ConstSegmentList segs, int dst, int tag);
  Request irecvv(SegmentList segs, int src, int tag);

  /// Typed variants lower the datatype to segments (single-copy capable
  /// backends transfer them without packing).
  void send_typed(const void* base, const Datatype& dt, std::size_t count,
                  int dst, int tag);
  void recv_typed(void* base, const Datatype& dt, std::size_t count, int src,
                  int tag);

  /// Strided async variants: lower the datatype to its merged segment list
  /// and hand it straight to the engine, so the eager cell-gather / LMT
  /// segment paths move the blocks with no intermediate contiguous staging
  /// buffer (pack-path telemetry records the direct flow).
  Request isend_strided(const void* base, const Datatype& dt,
                        std::size_t count, int dst, int tag);
  Request irecv_strided(void* base, const Datatype& dt, std::size_t count,
                        int src, int tag);

  void wait(const Request& req) { engine_.wait(req); }
  bool test(const Request& req) { return engine_.test(req); }
  void waitall(std::span<Request> reqs);

  // --- Collectives ----------------------------------------------------------
  void barrier();
  void bcast(void* buf, std::size_t bytes, int root);
  void gather(const void* sendbuf, std::size_t per_rank, void* recvbuf,
              int root);
  void scatter(const void* sendbuf, std::size_t per_rank, void* recvbuf,
               int root);
  void allgather(const void* sendbuf, std::size_t per_rank, void* recvbuf);
  void alltoall(const void* sendbuf, std::size_t per_rank, void* recvbuf);
  void alltoallv(const void* sendbuf, const std::size_t* scounts,
                 const std::size_t* sdispls, void* recvbuf,
                 const std::size_t* rcounts, const std::size_t* rdispls);

  /// Strided collectives: each rank's contribution is `count` elements of
  /// `dt` (footprint count * extent per peer). The shm path packs blocks
  /// directly into collective-arena slots — NT streaming stores above the
  /// tuned pack threshold — and unpacks readers-side straight into the
  /// strided receive buffer; under NEMO_COLL=auto (every size) and p2p the
  /// merged segment lists ride the pt2pt engine. Either way no
  /// intermediate contiguous staging buffer is materialised.
  void alltoall_strided(const void* sendbuf, const Datatype& sdt,
                        std::size_t count, void* recvbuf, const Datatype& rdt);
  void allgather_strided(const void* sendbuf, const Datatype& sdt,
                         std::size_t count, void* recvbuf,
                         const Datatype& rdt);

  enum class ReduceOp { kSum, kProd, kMin, kMax };
  /// Element type selected by tag dispatch below.
  void reduce_f64(const double* in, double* out, std::size_t n, ReduceOp op,
                  int root);
  void allreduce_f64(const double* in, double* out, std::size_t n,
                     ReduceOp op);
  void reduce_f32(const float* in, float* out, std::size_t n, ReduceOp op,
                  int root);
  void allreduce_f32(const float* in, float* out, std::size_t n, ReduceOp op);
  void reduce_i64(const std::int64_t* in, std::int64_t* out, std::size_t n,
                  ReduceOp op, int root);
  void allreduce_i64(const std::int64_t* in, std::int64_t* out, std::size_t n,
                     ReduceOp op);
  void reduce_i32(const std::int32_t* in, std::int32_t* out, std::size_t n,
                  ReduceOp op, int root);
  void allreduce_i32(const std::int32_t* in, std::int32_t* out, std::size_t n,
                     ReduceOp op);

  // --- Utilities ------------------------------------------------------------
  std::byte* shared_alloc(std::size_t bytes, std::size_t align = kCacheLine) {
    return engine_.world().shared_alloc(bytes, align);
  }
  /// World::hard_barrier that keeps this rank's deferred records flowing
  /// (a peer may wait on them before it arrives); it runs no other
  /// progress.
  void hard_barrier() {
    engine_.world().hard_barrier(engine_.rank(),
                                 [this] { engine_.flush_deferred(); });
  }

  /// Epoch fence after a peer death (NEMO_ON_PEER_DEATH=degrade): every
  /// surviving rank calls this once it has observed the PeerDeadError, and
  /// on return the world is usable again over the survivor set — the dead
  /// rank's arena cells are tombstoned, the reduction-seed choice has
  /// shrunk to the survivors, and the lock-step collective sequence counters
  /// are resynchronised to a jointly agreed floor (each survivor may have
  /// abandoned a different number of in-flight rounds). No-op when nobody
  /// is dead. Bounded like any other wait: a second death during the fence
  /// throws PeerDeadError and the fence is re-run after catching it.
  void fence_world();

 private:
  /// Does this operation take the shm collective arena? `op_bytes` is the
  /// op's symmetric size measure, `slot_need` the per-slot capacity the op
  /// requires (0 capacity forces pt2pt even under NEMO_COLL=shm).
  bool use_shm_coll(std::size_t op_bytes, std::size_t slot_need);

  /// Auto-mode alltoallv's rank-consistent size proxy: exchange each
  /// rank's total row bytes in one cell exchange (8 B a rank) and
  /// return the minimum — every rank computes the same value, so the
  /// family decision cannot diverge even though counts are asymmetric.
  std::size_t alltoallv_min_row_bytes(const std::size_t* scounts);

  // pt2pt algorithms: the fallback below coll_activation and the
  // correctness oracle the tests cross-check against (the pairwise
  // exchanges share one schedule, pairwise() in core/collectives.cpp).
  void barrier_p2p();
  void bcast_p2p(void* buf, std::size_t bytes, int root);
  void allgather_p2p(const void* sendbuf, std::size_t per_rank,
                     void* recvbuf);

  /// Shared-memory reduction over the collective arena (an ordered fold;
  /// see core/coll_internal.hpp).
  template <typename T>
  void reduce_shm(const T* in, T* out, std::size_t n, ReduceOp op, int root,
                  bool all, std::uint64_t epoch);

  template <typename T>
  void reduce_impl(const T* in, T* out, std::size_t n, ReduceOp op, int root,
                   int tag_base);
  template <typename T>
  void reduce_dispatch(const T* in, T* out, std::size_t n, ReduceOp op,
                       int root, bool all);
  /// Both strided collectives: alltoall when `spread`, else allgather.
  void strided_coll(const void* sendbuf, const Datatype& sdt,
                    std::size_t count, void* recvbuf, const Datatype& rdt,
                    bool spread);

  Engine engine_;
  /// Reduction receive scratch, grown to the high-water mark once instead
  /// of a fresh vector per reduction pass.
  std::vector<std::byte> reduce_scratch_;
};

/// Launch `cfg.nranks` ranks (threads or forked processes per cfg.mode), run
/// `fn(comm)` on each, and tear the world down. Throws on any rank failure
/// in thread mode; returns false on child failure in process mode.
bool run(const Config& cfg, const std::function<void(Comm&)>& fn);

}  // namespace nemo::core
