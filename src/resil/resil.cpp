#include "resil/resil.hpp"

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "tune/counters.hpp"

namespace nemo::resil {

const char* site_name(Site s) {
  switch (s) {
    case Site::kCollDeposit: return "coll_deposit";
    case Site::kCollFold: return "coll_fold";
    case Site::kBarrierArrive: return "barrier_arrive";
    case Site::kCmaRendezvous: return "cma_rendezvous";
    case Site::kFastboxPut: return "fastbox_put";
    case Site::kKnemShare: return "knem_share";
    case Site::kCollDoorbell: return "coll_doorbell";
    case Site::kCollAck: return "coll_ack";
    case Site::kCollProbe: return "coll_probe";
    case Site::kBarrierRelease: return "barrier_release";
    case Site::kCollGather: return "coll_gather";
    case Site::kEngineWait: return "engine_wait";
    case Site::kCellAlloc: return "cell_alloc";
    case Site::kPendingCtrl: return "pending_ctrl";
    case Site::kHardBarrier: return "hard_barrier";
    case Site::kFenceSync: return "fence_sync";
    case Site::kSiteCount: break;
  }
  return "?";
}

std::optional<Site> crash_site_from_string(const std::string& s) {
  for (auto site : {Site::kCollDeposit, Site::kCollFold, Site::kBarrierArrive,
                    Site::kCmaRendezvous, Site::kFastboxPut,
                    Site::kKnemShare}) {
    if (s == site_name(site)) return site;
  }
  return std::nullopt;
}

PeerDeadError::PeerDeadError(int rank, Site site, bool from_timeout)
    : std::runtime_error("peer rank " + std::to_string(rank) + " is dead (" +
                         (from_timeout ? "heartbeat timeout" : "death verdict") +
                         " at " + site_name(site) + ")"),
      rank(rank),
      site(site),
      from_timeout(from_timeout) {}

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// --- Liveness ---------------------------------------------------------------

std::size_t Liveness::footprint(int nranks) {
  // Heartbeat cells, the fence block, and one fence-flag line per rank.
  return sizeof(LifeCell) * static_cast<std::size_t>(nranks) +
         sizeof(FenceBlock) +
         sizeof(LifeCell) * static_cast<std::size_t>(nranks);
}

std::uint64_t Liveness::create(shm::Arena& arena, int nranks) {
  std::uint64_t off = arena.alloc(footprint(nranks), kCacheLine);
  std::memset(arena.at(off), 0, footprint(nranks));
  return off;
}

Liveness::Liveness(const shm::Arena& arena, std::uint64_t off, int nranks)
    : n_(nranks) {
  cells_ = arena.at_as<LifeCell>(off);
  std::uint64_t fence_off =
      off + sizeof(LifeCell) * static_cast<std::uint64_t>(nranks);
  fence_ = arena.at_as<FenceBlock>(fence_off);
  flags_ = arena.at_as<LifeCell>(fence_off + sizeof(FenceBlock));
}

void Liveness::beat(int r) const {
  NEMO_ASSERT(r >= 0 && r < n_);
  shm::aref(cells_[r].beats).fetch_add(1, std::memory_order_relaxed);
  shm::aref(cells_[r].stamp_ns)
      .store(now_ns(), std::memory_order_release);
}

void Liveness::mark_dead(int r) const {
  NEMO_ASSERT(r >= 0 && r < n_);
  shm::aref(cells_[r].dead).store(1, std::memory_order_release);
}

bool Liveness::is_dead(int r) const {
  NEMO_ASSERT(r >= 0 && r < n_);
  return shm::aref(cells_[r].dead).load(std::memory_order_acquire) != 0;
}

std::uint64_t Liveness::beats(int r) const {
  NEMO_ASSERT(r >= 0 && r < n_);
  return shm::aref(cells_[r].beats).load(std::memory_order_relaxed);
}

std::uint64_t Liveness::stamp_ns(int r) const {
  NEMO_ASSERT(r >= 0 && r < n_);
  return shm::aref(cells_[r].stamp_ns).load(std::memory_order_acquire);
}

int Liveness::find_dead(int self) const {
  for (int r = 0; r < n_; ++r)
    if (r != self && is_dead(r)) return r;
  return -1;
}

std::uint64_t Liveness::fence_generation() const {
  return shm::aref(fence_->generation).load(std::memory_order_acquire);
}

void Liveness::publish_fence_generation(std::uint64_t from,
                                        std::uint64_t to) const {
  shm::aref(fence_->generation)
      .compare_exchange_strong(from, to, std::memory_order_acq_rel);
}

void Liveness::propose_resync(std::uint64_t floor) const {
  auto word = shm::aref(fence_->resync);
  std::uint64_t cur = word.load(std::memory_order_acquire);
  while (cur < floor &&
         !word.compare_exchange_weak(cur, floor, std::memory_order_acq_rel)) {
  }
}

std::uint64_t Liveness::resync_floor() const {
  return shm::aref(fence_->resync).load(std::memory_order_acquire);
}

void Liveness::set_fence_flag(int r, std::uint64_t gen) const {
  NEMO_ASSERT(r >= 0 && r < n_);
  shm::aref(flags_[r].beats).store(gen, std::memory_order_release);
}

std::uint64_t Liveness::fence_flag(int r) const {
  NEMO_ASSERT(r >= 0 && r < n_);
  return shm::aref(flags_[r].beats).load(std::memory_order_acquire);
}

// --- WaitGuard --------------------------------------------------------------

WaitGuard::WaitGuard(const Liveness* live, int self, int watch, Site site,
                     std::size_t timeout_ms, tune::Counters* counters,
                     const unsigned char* fenced)
    : live_(live),
      fenced_(fenced),
      counters_(counters),
      self_(self),
      watch_(watch),
      site_(site) {
  armed_ = live_ != nullptr && live_->valid() && timeout_ms != kTimeoutOff;
  if (!armed_) return;
  timeout_ns_ = static_cast<std::uint64_t>(timeout_ms) * 1'000'000ull;
  deadline_ns_ = now_ns() + timeout_ns_;
}

void WaitGuard::check() {
  if (!armed_) return;
  if (self_ >= 0) live_->beat(self_);

  // A wait on a specific dead rank can never complete, even in a degraded
  // world where the death has already been fenced.
  if (watch_ >= 0 && live_->is_dead(watch_))
    throw PeerDeadError(watch_, site_, false);

  // Eager verdicts: some other detector (parent reaper, CMA ESRCH, another
  // rank's timeout) already flagged a peer. Fenced ranks are exempt so a
  // degraded world's survivors can keep waiting on each other.
  for (int r = 0; r < live_->nranks(); ++r) {
    if (skip(r)) continue;
    if (live_->is_dead(r)) throw PeerDeadError(r, site_, false);
  }

  std::uint64_t now = now_ns();
  if (now < deadline_ns_) return;

  // Deadline expired: any watched peer with a stale heartbeat is declared
  // dead. A fresh heartbeat means slow-but-alive: extend and keep waiting.
  int stale = -1;
  for (int r = 0; r < live_->nranks(); ++r) {
    if (skip(r)) continue;
    if (watch_ >= 0 && r != watch_) continue;
    std::uint64_t stamp = live_->stamp_ns(r);
    if (stamp == 0) continue;  // never started: the dead flag covers it
    if (now - stamp >= timeout_ns_) {
      stale = r;
      break;
    }
  }
  if (stale >= 0) {
    live_->mark_dead(stale);
    if (counters_ != nullptr) counters_->timeout_aborts++;
    throw PeerDeadError(stale, site_, true);
  }
  deadline_ns_ = now + timeout_ns_;
}

// --- fault injection --------------------------------------------------------

namespace detail {
std::atomic<int> g_fault_rank{-1};
FaultSpec g_fault{};

void fire() {
  // SIGKILL, not abort(): the point is an unannounced death — no unwinding,
  // no atexit, exactly what a crashed or OOM-killed rank looks like.
  std::fprintf(stderr, "nemo: NEMO_FAULT firing: killing rank %d at %s\n",
               g_fault.rank, site_name(g_fault.site));
  std::fflush(stderr);
  ::raise(SIGKILL);
  ::_exit(137);  // unreachable; keeps [[noreturn]] honest
}
}  // namespace detail

FaultSpec parse_fault_spec(const std::string& spec) {
  auto bad = [&](const char* why) {
    throw std::invalid_argument("NEMO_FAULT='" + spec + "': " + why +
                                " (expected rank:site:kill, e.g. "
                                "2:coll_deposit:kill)");
  };
  std::size_t c1 = spec.find(':');
  std::size_t c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos)
    bad("not rank:site:op");
  FaultSpec out;
  try {
    out.rank = std::stoi(spec.substr(0, c1));
  } catch (const std::exception&) {
    bad("rank is not a number");
  }
  if (out.rank < 0) bad("rank is negative");
  std::string site = spec.substr(c1 + 1, c2 - c1 - 1);
  auto resolved = crash_site_from_string(site);
  if (!resolved)
    bad("unknown crash site (coll_deposit, coll_fold, barrier_arrive, "
        "cma_rendezvous, fastbox_put, knem_share)");
  out.site = *resolved;
  if (spec.substr(c2 + 1) != "kill") bad("unknown op (only: kill)");
  return out;
}

void arm_fault(const std::string& spec) {
  detail::g_fault_rank.store(-1, std::memory_order_relaxed);
  if (spec.empty()) return;
  detail::g_fault = parse_fault_spec(spec);
  detail::g_fault_rank.store(detail::g_fault.rank, std::memory_order_relaxed);
}

}  // namespace nemo::resil
