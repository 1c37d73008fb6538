// Arena barrier, NUMA-aware leader choice and survivor-set reductions. The
// barrier check runs at 2/8/16/33 ranks against a shared phase counter (the
// strongest observable property of a barrier: nobody enters round i+1
// before everyone finished round i), plus a 16-rank storm; the leader
// choice (the hierarchical collectives' per-node leader) is unit-tested on
// synthetic NUMA maps; the partitioned reduction runs over every survivor
// set of a degraded 4-rank world.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "coll/coll.hpp"
#include "core/comm.hpp"
#include "shm/arena.hpp"

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
// NUMA-aware leader choice.
// ---------------------------------------------------------------------------

TEST(CollLeader, PluralityNodeWinsTiesToLowerNode) {
  // All one node (the single-node fallback): rank 0, as pre-v2.
  EXPECT_EQ(coll::choose_leader({0, 0, 0, 0}), 0);
  // Unknown map: rank 0.
  EXPECT_EQ(coll::choose_leader({-1, -1, -1}), 0);
  EXPECT_EQ(coll::choose_leader({}), 0);
  // Node 1 backs 3 of 4 ranks: the lowest rank on node 1 leads.
  EXPECT_EQ(coll::choose_leader({0, 1, 1, 1}), 1);
  EXPECT_EQ(coll::choose_leader({1, 0, 1, 1}), 0);
  // Tie 2-2: lower node id wins, its lowest rank leads.
  EXPECT_EQ(coll::choose_leader({1, 1, 0, 0}), 2);
  // Unknown ranks don't vote.
  EXPECT_EQ(coll::choose_leader({-1, 2, 2, 0}), 1);
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
