// Arena barrier and NUMA-aware reduction leader choice — the collective-
// arena v2 surfaces. The barrier check runs at 2/8/16/33 ranks against a
// shared phase counter (the strongest observable property of a barrier:
// nobody enters round i+1 before everyone finished round i), plus a
// 16-rank storm; leader choice is unit-tested on synthetic NUMA maps and
// end-to-end through World.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
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
  cfg.env = {{"NEMO_COLL", "shm"}};
  cfg.nranks = nranks;
  cfg.use_fastbox = false;
  cfg.cells_per_rank = 16;
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

TEST(CollLeader, WorldDerivesLeaderFromSyntheticNumaBinding) {
  // e5345 synthesizes one NUMA node per socket (cores 0-3 -> node 0,
  // 4-7 -> node 1). Three of four ranks bound to socket 1: rank 1 leads.
  Config cfg;
  cfg.nranks = 4;
  cfg.topo = xeon_e5345();
  cfg.core_binding = {0, 4, 5, 6};
  World w(cfg);
  EXPECT_EQ(w.coll_leader(), 1);

  // All ranks on one socket: the single-node fallback picks rank 0.
  Config cfg0;
  cfg0.nranks = 4;
  cfg0.topo = xeon_e5345();
  cfg0.core_binding = {0, 1, 2, 3};
  World w0(cfg0);
  EXPECT_EQ(w0.coll_leader(), 0);
}

TEST(CollLeader, EnvOverrideAndValidation) {
  Config cfg;
  cfg.nranks = 4;
  cfg.env["NEMO_COLL_LEADER"] = "2";
  World w(cfg);
  EXPECT_EQ(w.coll_leader(), 2);
  // Out-of-range or junk fails loudly instead of silently redirecting the
  // fold.
  cfg.env["NEMO_COLL_LEADER"] = "4";
  EXPECT_THROW(World{cfg}, std::invalid_argument);
  cfg.env["NEMO_COLL_LEADER"] = "banana";
  EXPECT_THROW(World{cfg}, std::invalid_argument);
}

TEST(CollLeader, ReduceCorrectUnderEveryLeader) {
  // The fold must be leader-invariant: same results whether the leader is
  // the root, another rank, or env-pinned — across reduce roots and
  // allreduce, with operands spanning several sub-chunks.
  for (int leader = 0; leader < 3; ++leader) {
    Config cfg;
    cfg.env["NEMO_COLL"] = "shm";
    cfg.nranks = 3;
    cfg.coll_slot_bytes = 16 * KiB;  // Doubles: 512-elem sub-chunks.
    cfg.coll_leader = leader;
    cfg.shared_pool_bytes = 8 * MiB;
    run(cfg, [&](Comm& comm) {
      int n = comm.size();
      const std::size_t kN = 5000;  // ~10 sub-chunks.
      std::vector<double> in(kN), out(kN, -1);
      for (std::size_t i = 0; i < kN; ++i)
        in[i] = static_cast<double>(comm.rank()) + static_cast<double>(i);
      for (int root = 0; root < n; ++root) {
        comm.reduce_f64(in.data(), out.data(), kN, Comm::ReduceOp::kSum,
                        root);
        if (comm.rank() == root) {
          for (std::size_t i = 0; i < kN; i += 501)
            ASSERT_DOUBLE_EQ(out[i], n * (n - 1) / 2.0 +
                                         static_cast<double>(n) *
                                             static_cast<double>(i))
                << "leader " << leader << " root " << root;
        }
      }
      std::vector<double> mx(kN);
      comm.allreduce_f64(in.data(), mx.data(), kN, Comm::ReduceOp::kMax);
      for (std::size_t i = 0; i < kN; i += 501)
        ASSERT_DOUBLE_EQ(mx[i],
                         static_cast<double>(n - 1) + static_cast<double>(i))
            << "leader " << leader;
    });
  }
}

}  // namespace
}  // namespace nemo::core
