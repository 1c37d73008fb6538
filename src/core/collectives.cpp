// Collective operations. Two implementation families per operation:
//
//  - The pt2pt algorithms (classical shared-memory-friendly ones:
//    dissemination barrier, binomial bcast, linear reduce, ring allgather,
//    pairwise alltoall(v)) — the fallback below the tuned crossover and the
//    correctness oracle the tests cross-check against. Every pairwise
//    exchange runs through one schedule, pairwise().
//
//  - The shared-memory collective arena fast path (src/coll/): every
//    operand is written into shared memory at most ONCE — not at all when
//    peers can read it in place (WorldColl::locate: arena-resident
//    buffers, and any buffer of a threads world) — and every reader pulls
//    it directly, instead of re-copying payloads through the per-pair copy
//    rings at each tree hop. A 256 KiB bcast over 8 ranks costs ~n slot
//    copies instead of the binomial tree's 2·log n full-payload ring
//    copies; alltoall halves its copy volume whenever the source matrix is
//    peer-readable. Each op is a short call into a slot protocol plus the
//    arena barrier, or one cell exchange:
//      cell exchange    every rank publishes one cache line and reads every
//                       rank's, no barrier (reduce, allreduce and allgather
//                       of at most 56 B per rank; auto alltoallv's size
//                       probe) — coll_internal.hpp
//      slot stream      one writer, many readers (bcast) —
//                       coll_internal.hpp
//      exchange rounds  every rank writes and reads blocks, rounds closed
//                       by the arena barrier (allgather, alltoall(v) and
//                       their strided forms; reduce and allreduce as a
//                       partitioned fold, two doorbells a round) —
//                       Exchange below
//
// Selection mirrors lmt::Policy: NEMO_COLL=shm|p2p forces a family, auto
// compares the op's symmetric size measure against coll_activation, which
// follows the launch mode (tune::coll_activation_for): 4 KiB in threads
// worlds, whose readers pull operands in place, and 8 KiB in procs worlds,
// whose heap operands are staged through the slots. Strided ops take p2p
// under auto at every size. Every rank computes the same decision from
// world-level state only, so the families can never mix within one
// operation.
//
// Deadlock note: every spin on an arena word keeps Engine::progress()
// running — a rank parked in a collective must still serve rendezvous
// traffic for peers that have not yet entered it.
//
// Internal pt2pt tags live in a reserved negative space, namespaced by a
// per-Comm collective sequence number so back-to-back collectives cannot
// cross-match. The same sequence number feeds the arena epoch tags.
#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "core/coll_internal.hpp"
#include "core/comm.hpp"
#include "shm/nt_copy.hpp"

namespace nemo::core {

namespace {

using coll_detail::cell_exchange;
using coll_detail::coll_tag;
using coll_detail::div_ceil;
using coll_detail::epoch_base;
using coll_detail::fold_chunk;
using coll_detail::SlotStream;
using coll_detail::spin_until;

std::uint64_t next_coll_seq(Engine& eng) { return eng.bump_coll_seq(); }

/// Writer w's per-destination stride index for dest d (self excluded).
std::size_t dest_index(int w, int d) { return d < w ? d : d - 1; }

/// Payload bytes of one collective-arena slot (0 without an arena).
std::size_t slot_bytes(Engine& eng) {
  return eng.coll_view().valid() ? eng.coll_view().slot_bytes() : 0;
}

/// Whole-block arena reads at or above this size stream past the cache.
std::size_t nt_min(Engine& eng) {
  return eng.world()
      .tuning()
      .for_placement(PairPlacement::kDifferentSockets)
      .nt_min;
}

/// Would a slot stream of `bytes` stay within the 24-bit epoch-tagged ack
/// chunk budget? Only breachable by pathological geometry (a >1 GiB message
/// through a 64 B slot), but the answer must be a p2p fallback, not the
/// ack_value assert. World-symmetric (a direct stream needs no chunks, but
/// directness is writer-local, so the staged bound decides for everyone).
bool ack_budget_ok(Engine& eng, std::size_t bytes) {
  coll::WorldColl& cw = eng.coll_view();
  return cw.valid() &&
         div_ceil(bytes, SlotStream::chunk_bytes(cw.slot_bytes())) <
             (1ull << 24);
}

/// Does an op of `bytes` per rank finish in one cell exchange? Any mode but
/// forced p2p, given an arena: the exchange needs no barrier and no pt2pt
/// message, so it beats both families at every size a cell carries.
/// World-symmetric; counts the op as an arena op.
bool use_cells(Engine& eng, std::size_t bytes) {
  if (bytes > coll::kCellPayload || !eng.coll_view().valid() ||
      eng.world().coll_mode() == coll::Mode::kP2p)
    return false;
  eng.counters().coll_shm_ops++;
  return true;
}

/// Scoped collective observation: one kCollOp span in the rank's ring plus
/// one sample in the op's latency histogram. Free when tracing is off.
class CollScope {
 public:
  CollScope(Engine& eng, trace::CollOp op, std::size_t bytes)
      : eng_(trace::on() ? &eng : nullptr), op_(op) {
    if (eng_ == nullptr) return;
    t0_ = trace::tsc_now();
    eng_->tracer().emit(trace::kCollOp, trace::kBegin, op, bytes);
  }
  ~CollScope() {
    if (eng_ == nullptr) return;
    eng_->tracer().emit(trace::kCollOp, trace::kEnd);
    std::uint64_t dt = trace::tsc_now() - t0_;
    trace::registry()
        .hist(std::string("coll.") + trace::coll_op_name(op_) + "_ns")
        .record(static_cast<std::uint64_t>(
            static_cast<double>(dt) * trace::calibration().ns_per_tick));
  }
  CollScope(const CollScope&) = delete;
  CollScope& operator=(const CollScope&) = delete;

 private:
  Engine* eng_;
  trace::CollOp op_;
  std::uint64_t t0_ = 0;
};

/// Arena barrier, all-read-all: every rank RELEASE-stores its arrival
/// sequence into its own padded flag, then waits until every live peer's
/// flag reads >= seq. No rank coordinates and there is no release word, so
/// one cache-line transfer per peer sits on the critical path instead of a
/// gather followed by a broadcast miss. The monotonic compare needs no
/// second buffer: no rank reaches barrier seq+1 before every peer stored
/// seq. Each probe loads the flag of every peer from the lowest one still
/// pending up in one pass, so the misses overlap; the wait watches that
/// lowest pending peer. Fenced ranks' arrival cells are tombstoned to
/// always-arrived, so skipping them here is belt-and-braces that also
/// avoids touching reclaimed lines.
void shm_barrier(Engine& eng) {
  trace::Span sp(eng.tracer(), trace::kCollBarrier, trace::Mode::kRings);
  coll::WorldColl& cw = eng.coll_view();
  int n = eng.nranks(), r = eng.rank();
  std::uint64_t seq = eng.next_coll_barrier_seq();
  resil::fault_point(resil::Site::kBarrierArrive, r);
  cw.barrier_arrive(r, seq);
  int first = 0;  // Every live peer below `first` has arrived.
  auto probe = [&] {
    int pending = n;
    for (int i = first; i < n; ++i)
      if (i != r && !eng.rank_fenced(i) && !cw.barrier_arrived(i, seq))
        pending = std::min(pending, i);
    first = pending;
    return first == n;
  };
  while (!probe()) {
    int watch = first;
    spin_until(eng, resil::Site::kBarrierRelease, watch, true,
               [&] { return probe() || first != watch; });
  }
}

/// Exchange rounds: in round t every rank deposits its outgoing blocks into
/// its own slot, then takes its block from every other writer's slot; the
/// arena barrier closes each round, so no writer overwrites its slot (or
/// returns, freeing a direct-read source) before every reader finished
/// with it. A writer whose whole source is peer-readable publishes its
/// location (WorldColl::locate) instead and deposits nothing. header.bytes
/// carries each writer's staged round count, so direct and staged writers
/// agree on the schedule. A round has two doorbells: phase 0, blocks
/// deposited, and phase 1, which only the partitioned fold rings (share
/// folded). run() is the one-phase schedule; the fold uses the pieces.
class Exchange {
 public:
  Exchange(Engine& eng, std::uint64_t epoch, std::uint64_t src,
           std::uint64_t rounds)
      : eng_(eng), cw_(eng.coll_view()), epoch_(epoch), mine_(rounds) {
    cw_.begin_epoch(eng.rank(), epoch, src, rounds);
  }

  /// Read every live writer's header and return the global round count
  /// (at least one). Fenced writers never publish (their headers are
  /// tombstoned); survivors skip them and leave their blocks untouched.
  std::uint64_t sync() {
    std::uint64_t rounds = std::max<std::uint64_t>(mine_, 1);
    for (int w = 0; w < eng_.nranks(); ++w) {
      if (w == eng_.rank() || eng_.rank_fenced(w)) continue;
      spin_until(eng_, resil::Site::kCollDoorbell, w, true,
                 [&] { return cw_.ready(w, epoch_, 0); });
      rounds = std::max(rounds, cw_.header(w)->bytes);
    }
    return rounds;
  }
  /// Writer w's direct-read source, or nullptr when it stages.
  [[nodiscard]] const std::byte* source(int w) const {
    std::uint64_t loc = cw_.header(w)->src_off;
    return loc != shm::kNil ? cw_.resolve(loc) : nullptr;
  }
  /// Ring this rank's doorbell for `phase` of round t.
  void ring(std::uint64_t t, std::uint64_t phase) const {
    cw_.publish_chunks(eng_.rank(), 2 * t + phase + 1);
  }
  /// Wait until writer w rang `phase` of round t.
  void await(int w, std::uint64_t t, std::uint64_t phase,
             resil::Site site) const {
    spin_until(eng_, site, w, true, [&] {
      return cw_.ready(w, epoch_, 2 * t + phase + 1);
    });
  }
  /// deposit(t, slot) fills this rank's slot for round t. take(w, t, src,
  /// direct) copies writer w's blocks out of `src`: its slot payload, or —
  /// direct writers, round 0 only — its peer-readable source.
  template <typename Deposit, typename Take>
  void run(Deposit&& deposit, Take&& take) {
    int n = eng_.nranks(), r = eng_.rank();
    std::uint64_t rounds = sync();
    for (std::uint64_t t = 0; t < rounds; ++t) {
      if (t < mine_) {
        deposit(t, cw_.payload(r));
        ring(t, 0);
      }
      for (int w = 0; w < n; ++w) {
        if (w == r || eng_.rank_fenced(w)) continue;
        if (const std::byte* src = source(w)) {
          if (t == 0) take(w, t, src, true);
          continue;
        }
        if (t >= cw_.header(w)->bytes) continue;  // Writer already finished.
        await(w, t, 0, resil::Site::kCollDoorbell);
        take(w, t, cw_.payload(w), false);
      }
      shm_barrier(eng_);
    }
  }

 private:
  Engine& eng_;
  coll::WorldColl& cw_;
  std::uint64_t epoch_;
  std::uint64_t mine_;  ///< This rank's staged rounds (0 = direct).
};

/// Pairwise p2p exchange: n-1 steps; at step s this rank exchanges with
/// r^s when n is a power of two, else sends to r+s and receives from r-s.
/// step(to, from) returns that step's send and receive segment lists; a
/// side with zero bytes is skipped (both ends agree, counts being
/// symmetric). Sends are marked collective so the LMT policy applies its
/// lower activation threshold (§4.4).
template <typename Step>
void pairwise(Engine& eng, int tag, Step&& step) {
  int n = eng.nranks(), r = eng.rank();
  bool pow2 = (n & (n - 1)) == 0;
  for (int s = 1; s < n; ++s) {
    int to = pow2 ? (r ^ s) : (r + s) % n;
    int from = pow2 ? (r ^ s) : (r - s + n) % n;
    auto [ssegs, rsegs] = step(to, from);
    Request sq, rq;
    if (total_bytes(ssegs) > 0)
      sq = eng.start_send(std::move(ssegs), to, tag, /*collective=*/true,
                          /*context=*/1);
    if (total_bytes(rsegs) > 0)
      rq = eng.start_recv(std::move(rsegs), from, tag, 1);
    if (sq) eng.wait(sq);
    if (rq) eng.wait(rq);
  }
}

/// One rank's alltoall(v) block layout: explicit per-rank counts and
/// displacements, or — counts == nullptr — `per` bytes per rank, dense.
struct Blocks {
  const std::size_t* counts = nullptr;
  const std::size_t* displs = nullptr;
  std::size_t per = 0;
  [[nodiscard]] std::size_t count(int d) const {
    return counts != nullptr ? counts[d] : per;
  }
  [[nodiscard]] std::size_t displ(int d) const {
    return displs != nullptr ? displs[d] : static_cast<std::size_t>(d) * per;
  }
};

/// Alltoall(v) once the dispatcher chose a family. The shm family runs
/// exchange rounds: each writer's slot splits into one `cap`-byte stride
/// per destination, and a block larger than its stride takes several
/// rounds; a writer whose send span is arena-resident publishes a
/// per-destination (offset, length) table instead. The p2p family runs
/// pairwise() over the same blocks.
void alltoall_blocks(Engine& eng, const std::byte* in, Blocks sb,
                     std::byte* out, Blocks rb, bool shm) {
  int n = eng.nranks(), r = eng.rank();
  if (!shm) {
    std::memcpy(out + rb.displ(r), in + sb.displ(r), sb.count(r));
    pairwise(eng, coll_tag(next_coll_seq(eng), 0), [&](int to, int from) {
      return std::pair{ConstSegmentList{{in + sb.displ(to), sb.count(to)}},
                       SegmentList{{out + rb.displ(from), rb.count(from)}}};
    });
    return;
  }
  coll::WorldColl& cw = eng.coll_view();
  std::size_t cap = coll::alltoall_chunk_capacity(cw.slot_bytes(), n);
  std::size_t span = 0, send_max = 0, my_bytes = 0;
  for (int d = 0; d < n; ++d) {
    span = std::max(span, sb.displ(d) + sb.count(d));
    if (d != r) {
      send_max = std::max(send_max, sb.count(d));
      my_bytes += sb.count(d);
    }
  }
  eng.counters().coll_shm_bytes += my_bytes;
  std::uint64_t src = cw.locate(in, span);
  if (src != shm::kNil) {
    std::uint64_t* tab = cw.table(r);
    for (int d = 0; d < n; ++d) {
      tab[2 * d] = sb.displ(d);
      tab[2 * d + 1] = sb.count(d);
    }
  }
  Exchange x(eng, epoch_base(next_coll_seq(eng)), src,
             src != shm::kNil ? 0 : div_ceil(send_max, cap));
  std::memcpy(out + rb.displ(r), in + sb.displ(r), sb.count(r));
  std::size_t nt = nt_min(eng);
  x.run(
      [&](std::uint64_t t, std::byte* slot) {
        std::size_t off = static_cast<std::size_t>(t) * cap;
        for (int d = 0; d < n; ++d)
          if (d != r && off < sb.count(d))
            std::memcpy(slot + dest_index(r, d) * cap, in + sb.displ(d) + off,
                        std::min(cap, sb.count(d) - off));
      },
      [&](int w, std::uint64_t t, const std::byte* src, bool whole) {
        std::byte* dst = out + rb.displ(w);
        std::size_t want = rb.count(w);
        if (whole) {
          const std::uint64_t* wt = cw.table(w);
          NEMO_ASSERT(wt[2 * r + 1] == want);
          // Whole direct-read blocks stream past the cache above nt_min,
          // like bcast; staged chunks stay cached (slot-bounded).
          if (want > 0) shm::copy_for(want >= nt, dst, src + wt[2 * r], want);
          return;
        }
        std::size_t off = static_cast<std::size_t>(t) * cap;
        if (off < want)
          std::memcpy(dst + off, src + dest_index(w, r) * cap,
                      std::min(cap, want - off));
      });
}

}  // namespace

// ---------------------------------------------------------------------------
// Path selection
// ---------------------------------------------------------------------------

bool Comm::use_shm_coll(std::size_t op_bytes, std::size_t slot_need) {
  Engine& eng = engine_;
  World& w = eng.world();
  tune::Counters& c = eng.counters();
  if (!eng.coll_view().valid()) {
    c.coll_p2p_ops++;
    return false;
  }
  coll::Mode mode = w.coll_mode();
  std::size_t cap = slot_need <= eng.coll_view().slot_bytes() ? slot_need : 0;
  bool shm = coll::use_shm(mode, op_bytes, w.tuning().coll_activation, size(),
                           cap);
  if (shm) {
    c.coll_shm_ops++;
  } else {
    c.coll_p2p_ops++;
    if (mode == coll::Mode::kShm) c.coll_fallbacks++;
  }
  return shm;
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

void Comm::barrier_p2p() {
  Engine& eng = engine_;
  std::uint64_t cs = next_coll_seq(eng);
  int n = size(), r = rank();
  char token = 1;
  for (int k = 1, phase = 0; k < n; k <<= 1, ++phase) {
    int to = (r + k) % n;
    int from = (r - k + n) % n;
    Request s = isend(&token, 1, to, coll_tag(cs, phase), 1);
    char in = 0;
    Request rr = irecv(&in, 1, from, coll_tag(cs, phase), 1);
    wait(s);
    wait(rr);
  }
}

void Comm::barrier() {
  Engine& eng = engine_;
  CollScope obs(eng, trace::kOpBarrier, 0);
  if (size() > 1 && eng.coll_view().valid() &&
      eng.world().coll_mode() != coll::Mode::kP2p) {
    eng.counters().coll_shm_ops++;
    shm_barrier(eng);
    return;
  }
  eng.counters().coll_p2p_ops++;
  barrier_p2p();
}

// ---------------------------------------------------------------------------
// Bcast
// ---------------------------------------------------------------------------

void Comm::bcast_p2p(void* buf, std::size_t bytes, int root) {
  int tag = coll_tag(next_coll_seq(engine_), 0);
  int n = size();
  // Binomial tree rooted at `root`; relative ranks make the tree uniform.
  auto real = [&](int v) { return (v + root) % n; };
  coll_detail::binomial(
      (rank() - root + n) % n, n,
      [&](int parent) { recv(buf, bytes, real(parent), tag, nullptr, 1); },
      [&](int child) { send(buf, bytes, real(child), tag, 1); });
}

void Comm::bcast(void* buf, std::size_t bytes, int root) {
  if (size() == 1) return;
  Engine& eng = engine_;
  CollScope obs(eng, trace::kOpBcast, bytes);
  bool fits = ack_budget_ok(eng, bytes);
  // Over budget: fail the slot check -> p2p.
  if (use_shm_coll(bytes, fits ? kCacheLine : SIZE_MAX)) {
    eng.counters().coll_shm_bytes += bytes;
    // The root NT-streams once into its slot (or publishes an
    // arena-resident buffer); readers copy out, past the cache when large.
    bool nt = bytes >= nt_min(eng);
    SlotStream s(eng, root, epoch_base(next_coll_seq(eng)), bytes);
    if (rank() == root)
      s.write(buf, nt);
    else
      s.read(rank(), buf, nt);
    return;
  }
  bcast_p2p(buf, bytes, root);
}

// ---------------------------------------------------------------------------
// Gather / scatter (pt2pt only; roots already touch every block once)
// ---------------------------------------------------------------------------

void Comm::gather(const void* sendbuf, std::size_t per_rank, void* recvbuf,
                  int root) {
  std::uint64_t cs = next_coll_seq(engine_);
  int n = size(), r = rank();
  int tag = coll_tag(cs, 0);
  if (r == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    std::memcpy(out + static_cast<std::size_t>(r) * per_rank, sendbuf,
                per_rank);
    std::vector<Request> reqs;
    reqs.reserve(static_cast<std::size_t>(n - 1));
    for (int src = 0; src < n; ++src) {
      if (src == r) continue;
      reqs.push_back(irecv(out + static_cast<std::size_t>(src) * per_rank,
                           per_rank, src, tag, 1));
    }
    waitall(reqs);
  } else {
    send(sendbuf, per_rank, root, tag, 1);
  }
}

void Comm::scatter(const void* sendbuf, std::size_t per_rank, void* recvbuf,
                   int root) {
  std::uint64_t cs = next_coll_seq(engine_);
  int n = size(), r = rank();
  int tag = coll_tag(cs, 0);
  if (r == root) {
    const auto* in = static_cast<const std::byte*>(sendbuf);
    std::vector<Request> reqs;
    for (int dst = 0; dst < n; ++dst) {
      if (dst == r) continue;
      reqs.push_back(isend(in + static_cast<std::size_t>(dst) * per_rank,
                           per_rank, dst, tag, 1));
    }
    std::memcpy(recvbuf, in + static_cast<std::size_t>(r) * per_rank,
                per_rank);
    waitall(reqs);
  } else {
    recv(recvbuf, per_rank, root, tag, nullptr, 1);
  }
}

// ---------------------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------------------

void Comm::allgather_p2p(const void* sendbuf, std::size_t per_rank,
                         void* recvbuf) {
  Engine& eng = engine_;
  std::uint64_t cs = next_coll_seq(eng);
  int n = size(), r = rank();
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + static_cast<std::size_t>(r) * per_rank, sendbuf,
              per_rank);
  if (n == 1) return;
  int right = (r + 1) % n, left = (r - 1 + n) % n;
  int tag = coll_tag(cs, 0);
  // Ring: at step s, pass along the block that originated at (r - s).
  for (int s = 0; s < n - 1; ++s) {
    int send_block = (r - s + n) % n;
    int recv_block = (r - s - 1 + n) % n;
    Request sq =
        isend(out + static_cast<std::size_t>(send_block) * per_rank,
              per_rank, right, tag, 1);
    Request rq =
        irecv(out + static_cast<std::size_t>(recv_block) * per_rank,
              per_rank, left, tag, 1);
    wait(sq);
    wait(rq);
  }
}

void Comm::allgather(const void* sendbuf, std::size_t per_rank,
                     void* recvbuf) {
  if (size() == 1) {
    std::memcpy(recvbuf, sendbuf, per_rank);
    return;
  }
  Engine& eng = engine_;
  CollScope obs(eng, trace::kOpAllgather, per_rank);
  int n = size(), r = rank();
  auto* out = static_cast<std::byte*>(recvbuf);
  if (use_cells(eng, per_rank)) {
    eng.counters().coll_shm_bytes +=
        per_rank * static_cast<std::size_t>(n - 1);
    cell_exchange(eng, sendbuf, per_rank, true, r,
                  [&](int w, const std::byte* block) {
                    std::memcpy(out + static_cast<std::size_t>(w) * per_rank,
                                block, per_rank);
                  });
    return;
  }
  if (!use_shm_coll(per_rank, kCacheLine)) {
    allgather_p2p(sendbuf, per_rank, recvbuf);
    return;
  }
  // One chunk shared by every destination: the whole slot per round.
  coll::WorldColl& cw = eng.coll_view();
  eng.counters().coll_shm_bytes += per_rank * static_cast<std::size_t>(n - 1);
  const auto* in = static_cast<const std::byte*>(sendbuf);
  std::size_t slot = cw.slot_bytes();
  std::size_t nt = nt_min(eng);
  std::uint64_t src = cw.locate(in, per_rank);
  Exchange x(eng, epoch_base(next_coll_seq(eng)), src,
             src != shm::kNil ? 0 : div_ceil(per_rank, slot));
  std::memcpy(out + static_cast<std::size_t>(r) * per_rank, in, per_rank);
  x.run(
      [&](std::uint64_t t, std::byte* dst) {
        std::size_t off = static_cast<std::size_t>(t) * slot;
        std::memcpy(dst, in + off, std::min(slot, per_rank - off));
      },
      [&](int w, std::uint64_t t, const std::byte* src, bool whole) {
        std::byte* dst = out + static_cast<std::size_t>(w) * per_rank;
        // Whole direct-read blocks can dwarf the LLC; stream past it like
        // bcast does (staged chunks stay cached — they are bounded by the
        // slot and consumed immediately).
        if (whole) {
          shm::copy_for(per_rank >= nt, dst, src, per_rank);
          return;
        }
        std::size_t off = static_cast<std::size_t>(t) * slot;
        std::memcpy(dst + off, src, std::min(slot, per_rank - off));
      });
}

// ---------------------------------------------------------------------------
// Alltoall(v)
// ---------------------------------------------------------------------------

void Comm::alltoall(const void* sendbuf, std::size_t per_rank,
                    void* recvbuf) {
  if (size() == 1) {
    std::memcpy(recvbuf, sendbuf, per_rank);
    return;
  }
  Engine& eng = engine_;
  CollScope obs(eng, trace::kOpAlltoall, per_rank);
  bool shm = use_shm_coll(
      per_rank, coll::alltoall_chunk_capacity(slot_bytes(eng), size()));
  Blocks uniform{nullptr, nullptr, per_rank};
  alltoall_blocks(eng, static_cast<const std::byte*>(sendbuf), uniform,
                  static_cast<std::byte*>(recvbuf), uniform, shm);
}

std::size_t Comm::alltoallv_min_row_bytes(const std::size_t* scounts) {
  Engine& eng = engine_;
  int n = size(), r = rank();
  std::uint64_t my = 0;
  for (int d = 0; d < n; ++d)
    if (d != r) my += scounts[d];
  // One u64 per rank through one cell exchange, off the op's data path.
  std::uint64_t mn = my;
  cell_exchange(eng, &my, sizeof my, false, r,
                [&](int, const std::byte* cell) {
                  std::uint64_t v = 0;
                  std::memcpy(&v, cell, sizeof v);
                  mn = std::min(mn, v);
                });
  return mn;
}

void Comm::alltoallv(const void* sendbuf, const std::size_t* scounts,
                     const std::size_t* sdispls, void* recvbuf,
                     const std::size_t* rcounts, const std::size_t* rdispls) {
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  if (size() == 1) {
    std::memcpy(out + rdispls[0], in + sdispls[0], scounts[0]);
    return;
  }
  Engine& eng = engine_;
  std::size_t my_row = 0;
  for (int d = 0; d < size(); ++d)
    if (d != rank()) my_row += scounts[d];
  CollScope obs(eng, trace::kOpAlltoallv, my_row);
  // Per-rank counts are asymmetric, so no local size test is
  // rank-consistent. Auto mode exchanges each rank's total row bytes in
  // one cell exchange and gates on the MINIMUM across ranks: a tiny-row
  // participant pays the arena's full per-op synchronisation for almost
  // no payload, so it anchors the crossover
  // (worth ~0.6 us/op at 2 ranks, the gating PR 4 gave up). Forced modes
  // and arenaless worlds skip the probe — the conditions below are all
  // world-symmetric, so every rank agrees on whether it runs.
  std::size_t cap = coll::alltoall_chunk_capacity(slot_bytes(eng), size());
  std::size_t proxy = SIZE_MAX;
  if (eng.coll_view().valid() && cap > 0 &&
      eng.world().coll_mode() == coll::Mode::kAuto)
    proxy = alltoallv_min_row_bytes(scounts);
  bool shm = use_shm_coll(proxy, cap);
  alltoall_blocks(eng, in, {scounts, sdispls}, out, {rcounts, rdispls}, shm);
}

// ---------------------------------------------------------------------------
// Strided collectives: each rank contributes `count` elements of a derived
// datatype. The shm family packs blocks straight into arena slots (NT
// streaming stores above the tuned pack threshold) and unpacks readers-side
// straight into the strided receive buffer; the p2p family hands the merged
// segment lists to the engine, which gathers into cells / transfers them via
// the segment-capable LMT backends. Neither family materialises an
// intermediate contiguous staging buffer — the pack-path telemetry records
// every op as `direct`.
// ---------------------------------------------------------------------------

namespace {

/// Pack `count` elements of `dt` at `base` into a shared slot, streaming
/// through the NT engine above the tuned threshold.
void pack_into(Engine& eng, const std::byte* base, const Datatype& dt,
               std::size_t count, std::byte* dst) {
  std::size_t bytes = dt.size() * count;
  bool nt = bytes >= eng.pack_nt_min();
  dt.pack(base, count, dst, nt);
  tune::Counters& c = eng.counters();
  c.pack_direct_ops++;
  c.pack_direct_bytes += bytes;
  if (nt) c.pack_nt_ops++;
}

/// Self-exchange: re-layout `count` elements from sdt at `in` to rdt at
/// `out` through the two segment maps (no staging buffer).
void strided_self_copy(const std::byte* in, const Datatype& sdt,
                       std::byte* out, const Datatype& rdt,
                       std::size_t count) {
  SegmentList dst = rdt.map(out, count);
  ConstSegmentList src = sdt.map(in, count);
  gather_scatter_copy(dst, src);
}

}  // namespace

void Comm::alltoall_strided(const void* sendbuf, const Datatype& sdt,
                            std::size_t count, void* recvbuf,
                            const Datatype& rdt) {
  strided_coll(sendbuf, sdt, count, recvbuf, rdt, /*spread=*/true);
}

void Comm::allgather_strided(const void* sendbuf, const Datatype& sdt,
                             std::size_t count, void* recvbuf,
                             const Datatype& rdt) {
  strided_coll(sendbuf, sdt, count, recvbuf, rdt, /*spread=*/false);
}

void Comm::strided_coll(const void* sendbuf, const Datatype& sdt,
                        std::size_t count, void* recvbuf, const Datatype& rdt,
                        bool spread) {
  NEMO_ASSERT(sdt.size() == rdt.size());
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  if (size() == 1) {
    strided_self_copy(in, sdt, out, rdt, count);
    return;
  }
  Engine& eng = engine_;
  int n = size(), r = rank();
  std::size_t packed = sdt.size() * count;
  // Alltoall sends block d of the send buffer to rank d; allgather sends
  // its one block to everyone (send stride 0).
  std::size_t sext = spread ? count * sdt.extent() : 0;
  std::size_t rext = count * rdt.extent();
  // Alltoall packs each destination's block into its own slot stride;
  // allgather packs its one block into the shared whole slot.
  std::size_t chunk = spread
                          ? coll::alltoall_chunk_capacity(slot_bytes(eng), n)
                          : slot_bytes(eng);
  auto stride = [&](int w, int d) {
    return spread ? dest_index(w, d) * chunk : 0;
  };
  strided_self_copy(in + static_cast<std::size_t>(r) * sext, sdt,
                    out + static_cast<std::size_t>(r) * rext, rdt, count);
  // Single deposit round: the packed block must fit its chunk, else the
  // need is unmeetable and use_shm_coll records the p2p fallback.
  // World-symmetric (dt/count are the same everywhere). Auto never packs
  // into the slots (a 0 size measure stays below every crossover): at 2
  // and 4 ranks the segment-list p2p path beat it from 8 KiB up.
  std::size_t need = packed > 0 && packed <= chunk ? kCacheLine : SIZE_MAX;
  bool forced = eng.world().coll_mode() == coll::Mode::kShm;
  if (use_shm_coll(forced ? packed : 0, need)) {
    eng.counters().coll_shm_bytes +=
        packed * static_cast<std::size_t>(n - 1);
    // The slot chunk IS the pack buffer: each strided block streams from
    // the user buffer straight into shared memory, so the packed form
    // exists exactly once.
    Exchange x(eng, epoch_base(next_coll_seq(eng)), shm::kNil, 1);
    x.run(
        [&](std::uint64_t, std::byte* slot) {
          if (!spread) return pack_into(eng, in, sdt, count, slot);
          for (int d = 0; d < n; ++d)
            if (d != r)
              pack_into(eng, in + static_cast<std::size_t>(d) * sext, sdt,
                        count, slot + stride(r, d));
        },
        [&](int w, std::uint64_t, const std::byte* src, bool) {
          // Cached stores: the unpacked blocks land in the user's receive
          // buffer, which the caller is about to touch.
          rdt.unpack(src + stride(w, r), count,
                     out + static_cast<std::size_t>(w) * rext);
          eng.counters().unpack_ops++;
        });
    return;
  }
  // The merged segment lists go straight to the engine — cell gather on
  // the eager path, vectorial transfer on the segment-capable backends.
  pairwise(eng, coll_tag(next_coll_seq(eng), 0), [&](int to, int from) {
    tune::Counters& c = eng.counters();
    c.pack_direct_ops++;
    c.pack_direct_bytes += packed;
    c.unpack_ops++;
    return std::pair{
        sdt.map(in + static_cast<std::size_t>(to) * sext, count),
        rdt.map(out + static_cast<std::size_t>(from) * rext, count)};
  });
}

// --- Reductions ---------------------------------------------------------------

template <typename T>
void Comm::reduce_impl(const T* in, T* out, std::size_t n, ReduceOp op,
                       int root, int tag) {
  int p = size(), r = rank();
  if (r == root) {
    if (out != in) std::memcpy(out, in, n * sizeof(T));
    // Per-Comm receive scratch sized to the high-water mark: this used to
    // be a fresh std::vector<T>(n) on every reduction pass.
    if (reduce_scratch_.size() < n * sizeof(T))
      reduce_scratch_.resize(n * sizeof(T));
    T* tmp = reinterpret_cast<T*>(reduce_scratch_.data());
    for (int src = 0; src < p; ++src) {
      if (src == root) continue;
      recv(tmp, n * sizeof(T), src, tag, nullptr, 1);
      fold_chunk(engine_, op, out, tmp, n);
    }
  } else {
    send(in, n * sizeof(T), root, tag, 1);
  }
}

namespace {

/// Smallest share worth a folder of its own: a round shorter than
/// `folders` of these folds on fewer ranks, down to one (a single rank
/// folds everything, as a leader would).
constexpr std::size_t kShareFloor = 4 * KiB;

/// The partitioned fold accumulates in blocks of this size, so the running
/// result stays in L1 while every operand streams past it.
constexpr std::size_t kFoldBlock = 8 * KiB;

/// One round's share geometry: `len` bytes cut into `count` shares on
/// cache-line boundaries (so on element boundaries too, for every element
/// size dividing a line). Share k belongs to the k-th surviving rank.
struct Shares {
  Shares(std::size_t round_len, std::size_t folders)
      : len(round_len),
        count(static_cast<int>(
            std::clamp<std::size_t>(round_len / kShareFloor, 1, folders))) {}
  [[nodiscard]] std::size_t begin(int k) const {
    std::size_t lines = div_ceil(len, kCacheLine);
    return std::min(len, lines * static_cast<std::size_t>(k) /
                             static_cast<std::size_t>(count) * kCacheLine);
  }
  [[nodiscard]] std::size_t end(int k) const { return begin(k + 1); }

  std::size_t len;
  int count;
};

/// Reduction of at most coll::kCellPayload bytes: one cell exchange. Every
/// rank whose `out` is significant folds all n operands straight out of
/// the cells, seeded with the root's (the lowest survivor's when the root
/// is fenced) and then in ascending rank order — the p2p oracle's order,
/// so the result matches it bit for bit. A reduce's other ranks read every
/// cell too, which is what spares the exchange a closing barrier.
template <typename T>
void reduce_cells(Engine& eng, const T* in, T* out, std::size_t n,
                  Comm::ReduceOp op, int root, bool all) {
  int r = eng.rank();
  bool want = all || r == root;
  int seed = eng.rank_fenced(root) ? eng.lowest_alive() : root;
  std::size_t bytes = n * sizeof(T);
  eng.counters().coll_shm_bytes += bytes;
  cell_exchange(eng, in, bytes, true, seed,
                [&](int w, const std::byte* cell) {
                  if (!want) return;
                  if (w == seed) {
                    resil::fault_point(resil::Site::kCollFold, r);
                    std::memcpy(out, cell, bytes);
                    return;
                  }
                  T v[coll::kCellPayload / sizeof(T)];
                  std::memcpy(v, cell, bytes);
                  fold_chunk(eng, op, out, v, n);
                });
}

}  // namespace

/// Partitioned shm reduction over two-phase exchange rounds. Every round
/// cuts its slice of the vector into one share per surviving rank (fewer
/// for short rounds, see Shares). A rank deposits its operand (staging it
/// into its slot unless peers read it in place) and rings phase 0; folds
/// its own share of every operand, seeded with the root's slice and then
/// in ascending rank order — the p2p oracle's order, so the result is bit
/// for bit the oracle's whatever the share geometry — and rings phase 1;
/// then copies every other share's result into its `out` (everyone for
/// allreduce, only the root for reduce). The arena barrier closes the
/// round, so no rank returns, or restages its slot, while a peer still
/// reads its operand or its result. A folder keeps its result share in its
/// `out` when peers can read it there, else in its own slot over its own
/// operand share, which only it reads. Peer-readable operands and results
/// need no staging: the op is one round spanning the whole vector. Any
/// staged side cuts it into slot-sized rounds.
template <typename T>
void Comm::reduce_shm(const T* in, T* out, std::size_t n, ReduceOp op,
                      int root, bool all, std::uint64_t epoch) {
  static_assert(kCacheLine % sizeof(T) == 0 && kFoldBlock % kCacheLine == 0);
  Engine& eng = engine_;
  coll::WorldColl& cw = eng.coll_view();
  int p = size(), r = rank();
  std::size_t bytes = n * sizeof(T);
  eng.counters().coll_shm_bytes += bytes;
  bool want = all || r == root;  // Our `out` is significant.
  const auto* inb = reinterpret_cast<const std::byte*>(in);
  auto* outb = reinterpret_cast<std::byte*>(out);
  std::uint64_t src = cw.locate(in, bytes);
  std::uint64_t res = want ? cw.locate(out, bytes) : shm::kNil;
  cw.table(r)[0] = res;  // Published with the epoch below.
  bool staged = src == shm::kNil || res == shm::kNil;
  Exchange x(eng, epoch, src, staged ? div_ceil(bytes, cw.slot_bytes()) : 0);
  std::uint64_t rounds = x.sync();
  std::size_t width = rounds == 1 ? bytes : cw.slot_bytes();

  // Folders are the survivors in rank order. A fenced root's seed falls
  // back to the lowest survivor (the oracle over the survivor set).
  std::vector<int> live;
  int me = 0;
  for (int w = 0; w < p; ++w) {
    if (w == r) me = static_cast<int>(live.size());
    if (w == r || !eng.rank_fenced(w)) live.push_back(w);
  }
  int seed = eng.rank_fenced(root) ? eng.lowest_alive() : root;
  std::vector<const std::byte*> from(static_cast<std::size_t>(p));

  for (std::uint64_t t = 0; t < rounds; ++t) {
    std::size_t lo = static_cast<std::size_t>(t) * width;
    Shares sh(std::min(width, bytes - lo), live.size());
    resil::fault_point(resil::Site::kCollDeposit, r);
    if (src == shm::kNil && sh.len > 0) {
      trace::Span sp(eng.tracer(), trace::kCollDeposit, trace::Mode::kRings,
                     t, sh.len);
      std::memcpy(cw.payload(r), inb + lo, sh.len);
    }
    x.ring(t, 0);

    if (me < sh.count && sh.end(me) > sh.begin(me)) {
      std::size_t a = sh.begin(me), b = sh.end(me);
      for (int w : live) {
        const std::byte*& f = from[static_cast<std::size_t>(w)];
        if (w == r) {
          f = inb + lo;
        } else if (const std::byte* direct = x.source(w)) {
          f = direct + lo;
        } else {
          x.await(w, t, 0, resil::Site::kCollGather);
          f = cw.payload(w);
        }
      }
      std::byte* keep = res != shm::kNil ? outb + lo : cw.payload(r);
      resil::fault_point(resil::Site::kCollFold, r);
      trace::Span sp(eng.tracer(), trace::kCollFold, trace::Mode::kRings, t,
                     b - a);
      alignas(kCacheLine) std::byte acc[kFoldBlock];
      auto* acc_t = reinterpret_cast<T*>(acc);
      for (std::size_t x0 = a; x0 < b; x0 += kFoldBlock) {
        std::size_t len = std::min(kFoldBlock, b - x0);
        std::memcpy(acc, from[static_cast<std::size_t>(seed)] + x0, len);
        for (int w : live)
          if (w != seed)
            fold_chunk(eng, op, acc_t,
                       reinterpret_cast<const T*>(
                           from[static_cast<std::size_t>(w)] + x0),
                       len / sizeof(T));
        std::memcpy(keep + x0, acc, len);
        if (want && res == shm::kNil) std::memcpy(outb + lo + x0, acc, len);
      }
    }
    x.ring(t, 1);

    if (want) {
      trace::Span sp(eng.tracer(), trace::kCollRelease, trace::Mode::kRings,
                     t, sh.len);
      // Start after our own share so the readers of one share stagger.
      for (int i = 1; i <= sh.count; ++i) {
        int k = (me + i) % sh.count;
        std::size_t a = sh.begin(k), b = sh.end(k);
        if (k == me || a == b) continue;
        int f = live[static_cast<std::size_t>(k)];
        x.await(f, t, 1, resil::Site::kCollDoorbell);
        std::uint64_t kept = cw.table(f)[0];
        const std::byte* res_f =
            kept != shm::kNil ? cw.resolve(kept) + lo : cw.payload(f);
        std::memcpy(outb + lo + a, res_f + a, b - a);
      }
    }
    shm_barrier(eng);
  }
}

template <typename T>
void Comm::reduce_dispatch(const T* in, T* out, std::size_t n, ReduceOp op,
                           int root, bool all) {
  if (size() == 1) {
    if (out != in) std::memcpy(out, in, n * sizeof(T));
    return;
  }
  Engine& eng = engine_;
  CollScope obs(eng, all ? trace::kOpAllreduce : trace::kOpReduce,
                n * sizeof(T));
  std::uint64_t cs = next_coll_seq(eng);
  if (use_cells(eng, n * sizeof(T))) {
    reduce_cells<T>(eng, in, out, n, op, root, all);
    return;
  }
  if (use_shm_coll(n * sizeof(T), kCacheLine)) {
    reduce_shm<T>(in, out, n, op, root, all, epoch_base(cs));
    return;
  }
  reduce_impl<T>(in, out, n, op, all ? 0 : root, coll_tag(cs, 1));
  // Allreduce distributes via the p2p tree directly: the dispatcher already
  // chose the p2p family for this operation (re-dispatching through bcast()
  // would also double-count the op in the coll telemetry).
  if (all) bcast_p2p(out, n * sizeof(T), 0);
}

void Comm::reduce_f64(const double* in, double* out, std::size_t n,
                      ReduceOp op, int root) {
  reduce_dispatch<double>(in, out, n, op, root, /*all=*/false);
}

void Comm::allreduce_f64(const double* in, double* out, std::size_t n,
                         ReduceOp op) {
  reduce_dispatch<double>(in, out, n, op, 0, /*all=*/true);
}

void Comm::reduce_f32(const float* in, float* out, std::size_t n,
                      ReduceOp op, int root) {
  reduce_dispatch<float>(in, out, n, op, root, /*all=*/false);
}

void Comm::allreduce_f32(const float* in, float* out, std::size_t n,
                         ReduceOp op) {
  reduce_dispatch<float>(in, out, n, op, 0, /*all=*/true);
}

void Comm::reduce_i64(const std::int64_t* in, std::int64_t* out,
                      std::size_t n, ReduceOp op, int root) {
  reduce_dispatch<std::int64_t>(in, out, n, op, root, /*all=*/false);
}

void Comm::allreduce_i64(const std::int64_t* in, std::int64_t* out,
                         std::size_t n, ReduceOp op) {
  reduce_dispatch<std::int64_t>(in, out, n, op, 0, /*all=*/true);
}

void Comm::reduce_i32(const std::int32_t* in, std::int32_t* out,
                      std::size_t n, ReduceOp op, int root) {
  reduce_dispatch<std::int32_t>(in, out, n, op, root, /*all=*/false);
}

void Comm::allreduce_i32(const std::int32_t* in, std::int32_t* out,
                         std::size_t n, ReduceOp op) {
  reduce_dispatch<std::int32_t>(in, out, n, op, 0, /*all=*/true);
}

}  // namespace nemo::core
