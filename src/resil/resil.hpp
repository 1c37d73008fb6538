// Liveness and recovery: the pieces that keep a long-lived world from
// hanging forever when a peer rank dies mid-protocol.
//
// The Nemesis design is cooperative lock-free progress: every doorbell, ack,
// barrier and rendezvous wait assumes the peer eventually shows up. Once
// worlds span real processes (NEMO_WORLD_MODE=procs) a SIGKILL'd rank leaves
// all of those loops spinning forever. This module adds:
//
//  - a per-rank heartbeat table in the shared arena (`Liveness`): each rank
//    bumps a beat counter + CLOCK_MONOTONIC stamp from its progress loop,
//    and anyone may set a sticky "dead" flag (the parent reaper in procs
//    mode, a KNEM pull's ESRCH verdict, or a heartbeat timeout);
//  - the one poll loop (`wait_until`) every wait in the runtime goes
//    through, and its liveness guard (`WaitGuard`): the guard checks dead
//    flags eagerly and, past `NEMO_PEER_TIMEOUT_MS`, converts a stale
//    heartbeat into a death verdict, throwing `PeerDeadError{rank, site}`
//    instead of hanging;
//  - a deterministic fault injector (`NEMO_FAULT=rank:site:op`): named crash
//    points in the hot paths behind a single relaxed load, so tests can kill
//    a specific rank at a specific protocol step reproducibly;
//  - the shared words the post-death epoch fence uses to resynchronise
//    survivor sequence counters (fence generation + counter floor).
//
// See docs/RESILIENCE.md for the protocol walkthrough and failure-mode
// table.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/common.hpp"
#include "shm/arena.hpp"

namespace nemo::tune {
struct Counters;
}

namespace nemo::resil {

/// Protocol steps where a peer death can be detected (wait sites) or
/// injected (crash sites). Crash sites double as the names accepted by
/// NEMO_FAULT.
enum class Site : std::uint8_t {
  // Crash sites (injectable via NEMO_FAULT).
  kCollDeposit = 0,   ///< rank about to deposit its operand (slot or cell)
  kCollFold,          ///< reduction rank about to fold its share
  kBarrierArrive,     ///< rank about to store its barrier arrival
  kRendezvous,        ///< sender just published the RTS of a rendezvous
  kFastboxPut,        ///< sender about to write an eager fastbox slot
  kKnemShare,         ///< KNEM sender just claimed a chunk of a shared copy
  // Wait sites (where a bounded wait can observe the death).
  kCollDoorbell,      ///< waiting for a slot header / chunk doorbell
  kCollAck,           ///< waiting for a consumer ack
  kCollProbe,         ///< waiting for a peer's exchange cell
  kBarrierRelease,    ///< waiting for peers' barrier arrivals (the name
                      ///< predates the all-read-all barrier)
  kCollGather,        ///< folder waiting for a peer's operand deposit
  kEngineWait,        ///< Engine::wait on an incomplete request
  kHardBarrier,       ///< World::hard_barrier generation wait
  kFenceSync,         ///< waiting for survivors inside fence_world()
  kSiteCount
};

[[nodiscard]] const char* site_name(Site s);

/// Crash-site lookup for the NEMO_FAULT parser. Only the injectable sites
/// resolve; wait sites are detection-only.
[[nodiscard]] std::optional<Site> crash_site_from_string(const std::string& s);

/// Thrown instead of hanging when a wait's peer is declared dead.
class PeerDeadError : public std::runtime_error {
 public:
  PeerDeadError(int rank, Site site, bool from_timeout);
  int rank;           ///< the rank declared dead
  Site site;          ///< where the survivor observed it
  bool from_timeout;  ///< true = heartbeat timeout, false = eager verdict
};

/// What survivors do after the fence: poison the world (kAbort, default) or
/// keep it usable over the survivor set (kDegrade).
enum class OnPeerDeath : std::uint8_t { kAbort, kDegrade };

/// Timeout sentinel: liveness checking disabled (NEMO_PEER_TIMEOUT_MS=off).
inline constexpr std::size_t kTimeoutOff = SIZE_MAX;

/// Default peer timeout: generous, so slow-but-alive ranks (compute phases,
/// oversubscribed CI runners) are never declared dead by accident.
inline constexpr std::size_t kDefaultTimeoutMs = 30000;

[[nodiscard]] std::uint64_t now_ns();

/// One rank's liveness state. A full cache line each so heartbeat stores
/// never contend with a neighbour's.
struct LifeCell {
  std::uint64_t beats;     ///< heartbeat counter (relaxed)
  std::uint64_t stamp_ns;  ///< CLOCK_MONOTONIC at the last beat; 0 = never
  std::uint64_t dead;      ///< sticky death flag (release store)
  std::uint64_t pad_[kCacheLine / 8 - 3];
};
static_assert(sizeof(LifeCell) == kCacheLine);

/// Shared words driving the post-death epoch fence (fence_world()).
struct FenceBlock {
  alignas(kCacheLine) std::uint64_t generation;  ///< completed fence count
  alignas(kCacheLine) std::uint64_t resync;      ///< fetch_max'd counter floor
};

/// View over the liveness region carved in the world's bootstrap span.
/// Offset-addressed like everything else in the arena: construct a fresh
/// view after reattach_in_child().
class Liveness {
 public:
  Liveness() = default;
  Liveness(const shm::Arena& arena, std::uint64_t off, int nranks);

  /// Carve and zero a liveness region; returns its offset.
  static std::uint64_t create(shm::Arena& arena, int nranks);
  [[nodiscard]] static std::size_t footprint(int nranks);

  [[nodiscard]] bool valid() const { return cells_ != nullptr; }
  [[nodiscard]] int nranks() const { return n_; }

  /// Bump rank r's heartbeat (called from its own progress loop).
  void beat(int r) const;
  /// Sticky death verdict; safe from any process attached to the arena.
  void mark_dead(int r) const;
  [[nodiscard]] bool is_dead(int r) const;
  [[nodiscard]] std::uint64_t beats(int r) const;
  [[nodiscard]] std::uint64_t stamp_ns(int r) const;

  /// First dead rank != self, or -1.
  [[nodiscard]] int find_dead(int self) const;

  // --- fence words ---------------------------------------------------------
  [[nodiscard]] std::uint64_t fence_generation() const;
  /// CAS generation from -> to; used by the fence coordinator.
  void publish_fence_generation(std::uint64_t from, std::uint64_t to) const;
  /// fetch_max a proposed sequence-counter floor into the resync word.
  void propose_resync(std::uint64_t floor) const;
  [[nodiscard]] std::uint64_t resync_floor() const;
  /// Per-rank fence arrival flag (monotonic generation number).
  void set_fence_flag(int r, std::uint64_t gen) const;
  [[nodiscard]] std::uint64_t fence_flag(int r) const;

 private:
  LifeCell* cells_ = nullptr;
  FenceBlock* fence_ = nullptr;
  LifeCell* flags_ = nullptr;  ///< per-rank fence flags, one line each
  int n_ = 0;
};

/// Liveness guard of one wait: wait_until() calls check() every 64th
/// probe. Free when the timeout is off; a default-constructed guard is
/// disarmed.
///
/// check() in order:
///  1. beats `self` (so two ranks waiting on each other stay live);
///  2. if `watch` >= 0 and that rank is dead: throw (always — a wait on a
///     known-dead rank can never complete);
///  3. eager scan: any dead rank throws immediately, except ranks in `fenced`
///     (degrade mode passes the engine's already-fenced set so survivors can
///     keep waiting on each other after recovery);
///  4. past the deadline: a watched peer whose heartbeat is older than the
///     timeout is marked dead (counters->timeout_aborts++) and thrown;
///     otherwise every watched peer beat recently, so the deadline extends.
///
/// A rank that has never beaten (stamp 0) is exempt from the staleness
/// verdict — it may still be forking/attaching — but not from dead flags.
class WaitGuard {
 public:
  WaitGuard() = default;
  WaitGuard(const Liveness* live, int self, int watch, Site site,
            std::size_t timeout_ms, tune::Counters* counters,
            const unsigned char* fenced);

  void check();

  [[nodiscard]] bool armed() const { return armed_; }

 private:
  [[nodiscard]] bool skip(int r) const {
    return r == self_ || (fenced_ != nullptr && fenced_[r] != 0);
  }

  const Liveness* live_ = nullptr;
  const unsigned char* fenced_ = nullptr;  ///< ranks to ignore (degrade mode)
  tune::Counters* counters_ = nullptr;
  std::uint64_t timeout_ns_ = 0;
  std::uint64_t deadline_ns_ = 0;
  int self_ = -1;
  int watch_ = -1;  ///< specific rank awaited, or -1 = any peer
  Site site_ = Site::kSiteCount;
  bool armed_ = false;
};

/// The one poll loop: probe `ready()` until it returns true. Every 64th
/// probe runs `idle()` (the caller's progress hook), `guard.check()` and
/// one yield, so an oversubscribed core still lets the peer run without
/// paying a yield on every miss. `ready` may do work, as long as the call
/// that returns true has finished it. Throws whatever idle() throws, and a
/// death verdict from check() only if `ready()` is still false after it:
/// idle() may have finished the wait just before the peer died.
template <typename Ready, typename Idle>
void wait_until(WaitGuard guard, Ready&& ready, Idle&& idle) {
  for (std::uint32_t probes = 0; !ready();) {
    if ((++probes & 0x3F) != 0) continue;
    idle();
    try {
      guard.check();
    } catch (const PeerDeadError&) {
      if (ready()) return;
      throw;
    }
    std::this_thread::yield();
  }
}

template <typename Ready>
void wait_until(WaitGuard guard, Ready&& ready) {
  wait_until(guard, ready, [] {});
}

// --- deterministic fault injection -----------------------------------------

struct FaultSpec {
  int rank = -1;
  Site site = Site::kSiteCount;
};

namespace detail {
/// -1 = disarmed; otherwise the rank NEMO_FAULT targets. Single relaxed load
/// on the hot path, same discipline as trace::on().
extern std::atomic<int> g_fault_rank;
extern FaultSpec g_fault;
[[noreturn]] void fire();
}  // namespace detail

/// Arm the process-wide crash point from a NEMO_FAULT spec (rank:site:op);
/// empty disarms. Every World arms its resolved spec at construction.
/// Throws std::invalid_argument on a malformed spec or unknown site/op so
/// typos fail loudly.
void arm_fault(const std::string& spec);

/// Parse a NEMO_FAULT spec string (exposed for tests).
FaultSpec parse_fault_spec(const std::string& spec);

/// Crash point: kills the calling rank when NEMO_FAULT matches (site, rank).
inline void fault_point(Site site, int rank) {
  if (detail::g_fault_rank.load(std::memory_order_relaxed) != rank) return;
  if (detail::g_fault.site == site) detail::fire();
}

}  // namespace nemo::resil
