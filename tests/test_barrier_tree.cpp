// Arena barrier and survivor-set reductions. The barrier check runs at
// 2/8/16/33 ranks against a shared phase counter (the strongest observable
// property of a barrier: nobody enters round i+1 before everyone finished
// round i), plus a 16-rank storm; the ordering check has every rank read
// every peer's plain store across the barrier, in threads and procs
// worlds, with seeded arrival jitter; the partitioned reduction runs over
// every survivor set of a degraded 4-rank world.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/comm.hpp"
#include "shm/arena.hpp"
#include "shm/process_runner.hpp"

namespace nemo::core {
namespace {

/// A slim world: barrier tests want many ranks, not big per-pair buffers
/// (a 33-rank world has 1056 ordered pairs). The arena path must beat any
/// ambient NEMO_COLL (CI forces it in smoke steps, and the environment
/// beats the programmatic config), so tests pin it per World.
Config slim_config(int nranks) {
  Config cfg;
  cfg.env = {{"NEMO_COLL", "shm"}, {"NEMO_FASTBOX_SLOTS", "1"}};
  cfg.nranks = nranks;
  cfg.ring_bufs = 2;
  cfg.ring_buf_bytes = 4 * KiB;
  cfg.coll_slot_bytes = 16 * KiB;
  cfg.shared_pool_bytes = 1 * MiB;
  return cfg;
}

/// Run `rounds` double barriers on an `nranks` world and check the
/// phase-counter invariant after the first of each pair; also assert the
/// telemetry says every barrier took the arena path.
void barrier_phase_check(int nranks, int rounds) {
  // One counter for the whole world: rank 0 allocates and broadcasts the
  // arena *offset* — raw pointers don't survive a process boundary (each
  // forked rank maps the arena at its own base), offsets always do.
  run(slim_config(nranks), [&](Comm& comm) {
    int n = comm.size();
    std::uint64_t off = 0;
    if (comm.rank() == 0) {
      auto* p = reinterpret_cast<std::uint64_t*>(
          comm.shared_alloc(sizeof(std::uint64_t)));
      shm::aref(*p).store(0);
      off = comm.world().arena().offset_of(p);
    }
    comm.bcast(&off, sizeof off, 0);
    auto* ctr = reinterpret_cast<std::uint64_t*>(comm.world().arena().at(off));
    const tune::Counters& c = comm.engine().counters();
    std::uint64_t shm0 = c.coll_shm_ops;
    for (int i = 0; i < rounds; ++i) {
      shm::aref(*ctr).fetch_add(1, std::memory_order_acq_rel);
      comm.barrier();
      // Everyone incremented for round i, nobody has for round i+1.
      ASSERT_EQ(shm::aref(*ctr).load(std::memory_order_acquire),
                static_cast<std::uint64_t>(n) *
                    static_cast<std::uint64_t>(i + 1))
          << "round " << i << " nranks " << nranks;
      comm.barrier();
    }
    EXPECT_EQ(c.coll_shm_ops - shm0, static_cast<std::uint64_t>(2 * rounds));
  });
}

class BarrierSchedule : public ::testing::TestWithParam<int> {};

TEST_P(BarrierSchedule, PhasesHold) {
  int nranks = GetParam();
  barrier_phase_check(nranks, nranks >= 16 ? 5 : 20);
}

INSTANTIATE_TEST_SUITE_P(Worlds, BarrierSchedule,
                         ::testing::Values(2, 8, 16, 33),
                         [](const auto& info) {
                           return std::to_string(info.param) + "ranks";
                         });

TEST(BarrierSchedule, SixteenRankStorm) {
  // Back-to-back barriers: a missed arrival or a stale release sequence
  // shows up as a hang (ctest timeout) or a phase violation.
  barrier_phase_check(16, 150);
}

// ---------------------------------------------------------------------------
// Ordering: every rank's plain store before a barrier is visible to every
// rank after it, and nobody's next store lands before the last read.
// ---------------------------------------------------------------------------

/// One rank's slot, a line of its own so the slots never share a line.
struct alignas(kCacheLine) OrderSlot {
  std::uint64_t value;
  std::uint64_t mismatches;  ///< Written once, by the owner, at the end.
};

/// splitmix64: the seeded jitter source (one stream per rank).
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// `iters` iterations on every rank of `world`: write k into this rank's
/// slot, barrier, check every rank's slot reads k, barrier. Plain loads
/// and stores, so only the barrier orders them (a race is a TSan report in
/// threads worlds and a mismatch anywhere). Each rank jitters its arrival
/// from a seeded stream and stores its mismatch count in its slot.
void order_rank(World& world, int rank, OrderSlot* slots, int iters,
                std::uint64_t seed) {
  Comm comm(world, rank);
  int n = comm.size();
  world.hard_barrier(rank);
  std::uint64_t rng = seed ^ (static_cast<std::uint64_t>(rank) << 32);
  std::uint64_t bad = 0;
  for (int k = 1; k <= iters; ++k) {
    std::uint64_t j = mix(rng);
    if ((j & 7) == 0) {
      std::this_thread::yield();
    } else {
      for (std::uint64_t i = 0; i < ((j >> 3) & 63); ++i)
        std::atomic_signal_fence(std::memory_order_seq_cst);
    }
    slots[rank].value = static_cast<std::uint64_t>(k);
    comm.barrier();
    for (int w = 0; w < n; ++w)
      if (slots[w].value != static_cast<std::uint64_t>(k)) bad++;
    comm.barrier();
  }
  slots[rank].mismatches = bad;
  world.hard_barrier(rank);
}

/// Run the ordering check on an `nranks` world of `mode` and expect no
/// mismatch on any rank.
void barrier_order_check(int nranks, const char* mode, int iters,
                         std::uint64_t seed) {
  Config cfg = slim_config(nranks);
  cfg.env["NEMO_WORLD_MODE"] = mode;
  bool procs = std::strcmp(mode, "procs") == 0;
  if (procs) {
    static std::atomic<unsigned> serial{0};
    cfg.shm_name = "/nemo-bar-" + std::to_string(::getpid()) + "-" +
                   std::to_string(serial.fetch_add(1));
  }
  World world(cfg);
  auto* slots = reinterpret_cast<OrderSlot*>(world.shared_alloc(
      sizeof(OrderSlot) * static_cast<std::size_t>(nranks)));
  for (int r = 0; r < nranks; ++r) slots[r] = {0, ~0ULL};
  if (procs) {
    // Each forked rank maps the arena at its own base: pass the offset.
    std::uint64_t off = world.arena().offset_of(slots);
    shm::ProcessResult res = shm::run_forked_ranks(nranks, [&](int rank) {
      world.reattach_in_child();
      order_rank(world, rank, world.arena().at_as<OrderSlot>(off), iters,
                 seed);
      return 0;
    });
    EXPECT_TRUE(res.all_ok);
  } else {
    std::vector<std::thread> ranks;
    for (int r = 0; r < nranks; ++r)
      ranks.emplace_back([&, r] { order_rank(world, r, slots, iters, seed); });
    for (auto& t : ranks) t.join();
  }
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(slots[r].mismatches, 0u)
        << "rank " << r << " of " << nranks << " (" << mode << ", seed "
        << seed << ")";
    EXPECT_EQ(slots[r].value, static_cast<std::uint64_t>(iters));
  }
}

TEST(BarrierOrder, FourRankThreads) {
  barrier_order_check(4, "threads", 10000, 0x5eed04);
}

TEST(BarrierOrder, EightRankThreads) {
  // More ranks than the CI host has cores: arrivals interleave with
  // descheduled peers.
  barrier_order_check(8, "threads", 10000, 0x5eed08);
}

TEST(BarrierOrder, FourRankProcs) {
  barrier_order_check(4, "procs", 10000, 0x5eed14);
}

// ---------------------------------------------------------------------------
// Reductions over every survivor set.
// ---------------------------------------------------------------------------

/// Operand element i of rank r: the ranks' magnitudes differ, so a fold in
/// the wrong order shows in the bits of the sums.
double operand(int r, std::size_t i) {
  return 1.0 / (r + 3) + static_cast<double>(i % 89) * 1e-3;
}

/// The p2p oracle's fold over the survivors `live` (ascending): seed with
/// `seed`'s operand, then every other survivor in rank order.
std::vector<double> oracle(const std::vector<int>& live, int seed,
                           std::size_t n) {
  std::vector<double> acc(n);
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] = operand(seed, i);
    for (int w : live)
      if (w != seed) acc[i] += operand(w, i);
  }
  return acc;
}

TEST(CollReduce, CorrectForEveryRootAndSurvivorSet) {
  // The partitioned fold splits its shares over whichever ranks survive:
  // reduce at every surviving root and allreduce must match the oracle
  // over the survivor set bit for bit, with operands spanning several
  // slot rounds. The ranks outside the set leave the world right after
  // startup (death flag raised, as a killed rank's would be) and the
  // survivors fence them in degrade mode.
  constexpr int kRanks = 4;
  const std::size_t kN = 5000;  // Doubles: 3 rounds of a 16 KiB slot.
  for (unsigned mask = 1; mask < (1u << kRanks); ++mask) {
    std::vector<int> live;
    for (int r = 0; r < kRanks; ++r)
      if ((mask & (1u << r)) != 0) live.push_back(r);
    if (live.size() < 2) continue;
    Config cfg;
    // The ranks below are this process's threads.
    cfg.env = {{"NEMO_COLL", "shm"}, {"NEMO_WORLD_MODE", "threads"}};
    cfg.nranks = kRanks;
    cfg.coll_slot_bytes = 16 * KiB;
    cfg.shared_pool_bytes = 8 * MiB;
    cfg.on_peer_death = resil::OnPeerDeath::kDegrade;
    World world(cfg);
    std::vector<std::thread> ranks;
    for (int r = 0; r < kRanks; ++r) {
      ranks.emplace_back([&, r] {
        Comm comm(world, r);
        bool dies = (mask & (1u << r)) == 0;
        if (dies) world.liveness().mark_dead(r);
        world.hard_barrier();  // Every death flag is up past here.
        if (dies) return;
        comm.fence_world();
        std::vector<double> in(kN), out(kN);
        for (std::size_t i = 0; i < kN; ++i) in[i] = operand(r, i);
        auto same = [&](int seed) {
          return std::memcmp(out.data(), oracle(live, seed, kN).data(),
                             kN * sizeof(double)) == 0;
        };
        for (int root : live) {
          std::fill(out.begin(), out.end(), -1.0);
          comm.reduce_f64(in.data(), out.data(), kN, Comm::ReduceOp::kSum,
                          root);
          if (r == root) {
            EXPECT_TRUE(same(root))
                << "survivors " << mask << " root " << root;
          }
        }
        comm.allreduce_f64(in.data(), out.data(), kN, Comm::ReduceOp::kSum);
        // Allreduce seeds at rank 0, or the lowest survivor once it died.
        EXPECT_TRUE(same(live.front()))
            << "survivors " << mask << " rank " << r;
        comm.barrier();
      });
    }
    for (auto& t : ranks) t.join();
  }
}

}  // namespace
}  // namespace nemo::core
