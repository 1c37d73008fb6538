// Deterministic fault-injection matrix: SIGKILL one rank at a named
// protocol site (NEMO_FAULT) in a multi-process world and assert that
// every survivor observes a PeerDeadError verdict against the right rank
// instead of hanging, that the victim died by signal (not by exception),
// and that the shm segment never leaks. Plus the degrade-mode path:
// survivors fence the world and keep computing over the survivor set.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/comm.hpp"
#include "resil/resil.hpp"
#include "shm/process_runner.hpp"

namespace nemo::core {
namespace {

using resil::Site;

std::string test_shm_name() {
  static std::atomic<unsigned> serial{0};
  char buf[64];
  std::snprintf(buf, sizeof buf, "/nemo-fault-%d-%u",
                static_cast<int>(::getpid()),
                serial.fetch_add(1, std::memory_order_relaxed));
  return buf;
}

// Return codes for protocol violations, so a red run names its failure.
constexpr int kWrongRank = 20;       // verdict named the wrong peer
constexpr int kWrongSite = 21;       // verdict at a site outside the set
constexpr int kVictimSurvived = 22;  // the fault point never fired
constexpr int kNoVerdict = 23;       // a blocked survivor returned normally

/// One scenario: `op` runs on every rank; the victim is SIGKILLed by the
/// armed fault point inside it. Survivors listed in `must_throw` are the
/// ranks whose op blocks on the victim — they must catch a PeerDeadError
/// naming it, at one of `sites`. Everyone else must finish op normally.
struct Scenario {
  const char* fault_site;
  std::set<Site> sites;  ///< admissible observation sites for survivors
};

int run_scenario(int nranks, int victim, const Scenario& sc,
                 lmt::LmtKind kind,
                 const std::function<void(Comm&, int)>& op,
                 const std::set<int>& must_throw,
                 lmt::KnemMode knem_mode = lmt::KnemMode::kSyncCopy) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.mode = LaunchMode::kProcesses;
  // The ranks are forked by hand below; pin the mode so an ambient
  // NEMO_WORLD_MODE cannot make this a threads world.
  cfg.env["NEMO_WORLD_MODE"] = "procs";
  cfg.lmt = kind;
  cfg.knem_mode = knem_mode;
  cfg.shm_name = test_shm_name();
  cfg.peer_timeout_ms = 10000;  // Backstop; eager verdicts land in ms.
  // The arena and cell crash sites exist only on the auto family's paths;
  // pin it so an ambient NEMO_COLL cannot route around them.
  cfg.env["NEMO_COLL"] = "auto";
  cfg.env["NEMO_FAULT"] =
      std::to_string(victim) + ":" + sc.fault_site + ":kill";
  std::string name = cfg.shm_name;
  int bad = 0;
  {
    World world(cfg);  // Arms the fault; forked children inherit it.
    resil::Liveness live = world.liveness();
    shm::ProcessResult res = shm::run_forked_ranks(
        nranks,
        [&](int rank) {
          world.reattach_in_child();
          Comm comm(world, rank);
          world.hard_barrier(rank);
          try {
            op(comm, victim);
          } catch (const resil::PeerDeadError& e) {
            if (e.rank != victim) return kWrongRank;
            if (sc.sites.count(e.site) == 0) {
              std::fprintf(stderr, "rank %d: verdict at %s\n", rank,
                           resil::site_name(e.site));
              return kWrongSite;
            }
            return 0;
          }
          if (rank == victim) return kVictimSurvived;
          return must_throw.count(rank) != 0 ? kNoVerdict : 0;
        },
        [&](int r, int code) {
          if (code != 0 && live.valid()) live.mark_dead(r);
        });
    for (int r = 0; r < nranks; ++r) {
      int want = r == victim ? 256 + SIGKILL : 0;
      if (res.exit_codes[static_cast<std::size_t>(r)] != want) {
        ADD_FAILURE() << "rank " << r << ": exit "
                      << res.exit_codes[static_cast<std::size_t>(r)]
                      << ", want " << want << " (site " << sc.fault_site
                      << ", n=" << nranks << ")";
        bad++;
      }
    }
  }
  resil::arm_fault("");  // Disarm the parent.
  EXPECT_NE(::access(("/dev/shm" + name).c_str(), F_OK), 0)
      << "shm segment leaked (site " << sc.fault_site << ")";
  return bad;
}

std::set<int> all_but(int nranks, int victim) {
  std::set<int> s;
  for (int r = 0; r < nranks; ++r)
    if (r != victim) s.insert(r);
  return s;
}

class FaultMatrix : public ::testing::TestWithParam<int> {};

TEST_P(FaultMatrix, KillAtCollDeposit) {
  int n = GetParam();
  // Every rank deposits its operand, so any rank can be the victim.
  int victim = 2;
  Scenario sc{"coll_deposit",
              {Site::kCollDoorbell, Site::kCollAck, Site::kCollGather,
               Site::kBarrierRelease, Site::kEngineWait}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [](Comm& comm, int) {
                 std::vector<double> in(32 * 1024, 1.0), out(in.size());
                 comm.allreduce_f64(in.data(), out.data(), in.size(),
                                    Comm::ReduceOp::kSum);
               },
               all_but(n, victim));
}

TEST_P(FaultMatrix, KillAtCollFold) {
  int n = GetParam();
  // Every rank folds a share of the 256 KiB operand, so any rank can be
  // the victim.
  int victim = 2;
  Scenario sc{"coll_fold",
              {Site::kCollDoorbell, Site::kCollAck, Site::kCollGather,
               Site::kBarrierRelease, Site::kEngineWait}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [](Comm& comm, int) {
                 std::vector<double> in(32 * 1024, 1.0), out(in.size());
                 comm.allreduce_f64(in.data(), out.data(), in.size(),
                                    Comm::ReduceOp::kSum);
               },
               all_but(n, victim));
}

TEST_P(FaultMatrix, KillAtCellDeposit) {
  int n = GetParam();
  // An 8 B allreduce is one cell exchange: the victim dies before it
  // publishes its cell, which every survivor waits on.
  int victim = 2;
  Scenario sc{"coll_deposit", {Site::kCollProbe}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [](Comm& comm, int) {
                 double in = 1.0, out = 0;
                 comm.allreduce_f64(&in, &out, 1, Comm::ReduceOp::kSum);
               },
               all_but(n, victim));
}

TEST_P(FaultMatrix, KillAtCellFold) {
  int n = GetParam();
  // The victim dies after publishing its cell, about to fold: every
  // survivor already has what it needs and finishes the op normally.
  int victim = 2;
  Scenario sc{"coll_fold", {Site::kCollProbe}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [](Comm& comm, int) {
                 double in = 1.0, out = 0;
                 comm.allreduce_f64(&in, &out, 1, Comm::ReduceOp::kSum);
               },
               {});
}

TEST_P(FaultMatrix, KillAtBarrierArrive) {
  int n = GetParam();
  int victim = 2;
  Scenario sc{"barrier_arrive",
              {Site::kBarrierRelease, Site::kEngineWait}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [](Comm& comm, int) { comm.barrier(); }, all_but(n, victim));
}

TEST_P(FaultMatrix, KillAtBarrierArriveRank0) {
  // No barrier rank is special: rank 0 dying before its arrival must give
  // every survivor a verdict naming it, as any other victim does.
  int n = GetParam();
  Scenario sc{"barrier_arrive",
              {Site::kBarrierRelease, Site::kEngineWait}};
  run_scenario(n, 0, sc, lmt::LmtKind::kAuto,
               [](Comm& comm, int) { comm.barrier(); }, all_but(n, 0));
}

TEST_P(FaultMatrix, KillAtRendezvous) {
  int n = GetParam();
  int victim = 2;
  int receiver = 3;
  // The victim dies right after publishing its RTS for a heap buffer; only
  // the posted receiver depends on it. Everyone else returns untouched.
  // The first run lets the policy pick the LMT; the rest force KNEM in
  // each mode. A KNEM pull of the dead pid's pages fails with ESRCH on the
  // receiver's CPU or on a DMA worker thread; either way it must read as a
  // death verdict, not a syscall error.
  Scenario sc{"rendezvous",
              {Site::kRendezvous, Site::kEngineWait}};
  using lmt::KnemMode;
  using lmt::LmtKind;
  for (auto [kind, mode] : {std::pair{LmtKind::kAuto, KnemMode::kSyncCopy},
                            std::pair{LmtKind::kKnem, KnemMode::kSyncCopy},
                            std::pair{LmtKind::kKnem, KnemMode::kAsyncCopy},
                            std::pair{LmtKind::kKnem, KnemMode::kSyncDma},
                            std::pair{LmtKind::kKnem, KnemMode::kAsyncDma}}) {
    SCOPED_TRACE(std::string(lmt::to_string(kind)) + "/" +
                 lmt::to_string(mode));
    run_scenario(n, victim, sc, kind,
                 [=](Comm& comm, int v) {
                   static std::vector<std::byte> buf(4 * MiB);
                   if (comm.rank() == v) {
                     Request r =
                         comm.isend(buf.data(), buf.size(), receiver, 9);
                     (void)r;  // The fault point fires inside start_send.
                   } else if (comm.rank() == receiver) {
                     ::usleep(300 * 1000);  // Let the victim die first.
                     comm.recv(buf.data(), buf.size(), v, 9);
                   }
                 },
                 {receiver}, mode);
  }
}

TEST_P(FaultMatrix, KillAtFastboxPut) {
  int n = GetParam();
  int victim = 2;
  int receiver = 1;
  Scenario sc{"fastbox_put",
              {Site::kEngineWait}};
  run_scenario(n, victim, sc, lmt::LmtKind::kAuto,
               [=](Comm& comm, int v) {
                 std::byte small[64] = {};
                 if (comm.rank() == v) {
                   comm.send(small, sizeof small, receiver, 5);
                 } else if (comm.rank() == receiver) {
                   ::usleep(300 * 1000);
                   comm.recv(small, sizeof small, v, 5);
                 }
               },
               {receiver});
}

TEST_P(FaultMatrix, KillAtKnemShare) {
  int n = GetParam();
  int victim = 2;
  int receiver = 3;
  // The receive buffer is arena-resident, so the receiver publishes its
  // chunks to the sending process. The victim dies holding a claimed
  // chunk it never copies: the receiver must get a verdict, not wait
  // forever for that chunk. It may run the whole loop alone first, so the
  // victim keeps sending until it claims one.
  Scenario sc{"knem_share",
              {Site::kEngineWait}};
  run_scenario(n, victim, sc, lmt::LmtKind::kKnem,
               [=](Comm& comm, int v) {
                 constexpr std::size_t kN = 4 * MiB;
                 if (comm.rank() != v && comm.rank() != receiver) return;
                 std::byte* buf = comm.shared_alloc(kN);
                 for (int i = 0; i < 1000; ++i) {
                   if (comm.rank() == v)
                     comm.send(buf, kN, receiver, 10);
                   else
                     comm.recv(buf, kN, v, 10);
                 }
               },
               {receiver});
}

INSTANTIATE_TEST_SUITE_P(Worlds, FaultMatrix, ::testing::Values(4, 8));

/// NEMO_ON_PEER_DEATH=degrade: after `victim` dies mid-barrier, every
/// survivor fences the world (resynchronising collective sequence
/// counters) and the shrunk world keeps doing real work: a barrier, then a
/// 32 KiB and an 8 B allreduce whose results are exactly the survivor-set
/// sums.
void degrade_and_continue(int victim) {
  constexpr int kRanks = 4;
  Config cfg;
  cfg.nranks = kRanks;
  cfg.mode = LaunchMode::kProcesses;
  cfg.env["NEMO_WORLD_MODE"] = "procs";  // Forked by hand, as above.
  cfg.shm_name = test_shm_name();
  cfg.peer_timeout_ms = 10000;
  cfg.on_peer_death = resil::OnPeerDeath::kDegrade;
  // Force the arena family: the degraded world's continuation story is the
  // shm fast path (the p2p algorithms would address the dead rank).
  cfg.env["NEMO_COLL"] = "shm";
  cfg.env["NEMO_FAULT"] = std::to_string(victim) + ":barrier_arrive:kill";
  std::string name = cfg.shm_name;
  {
    World world(cfg);
    resil::Liveness live = world.liveness();
    shm::ProcessResult res = shm::run_forked_ranks(
        kRanks,
        [&](int rank) {
          world.reattach_in_child();
          Comm comm(world, rank);
          world.hard_barrier(rank);
          try {
            comm.barrier();  // The victim dies in here.
            return kVictimSurvived;
          } catch (const resil::PeerDeadError& e) {
            if (e.rank != victim) return kWrongRank;
          }
          comm.fence_world();
          // The degraded world must still work, collectively.
          comm.barrier();
          std::vector<double> in(4096, 1.0), out(in.size());
          comm.allreduce_f64(in.data(), out.data(), in.size(),
                             Comm::ReduceOp::kSum);
          for (double v : out)
            if (v != static_cast<double>(kRanks - 1)) return 25;
          // An 8 B allreduce rides the exchange cells, which survivors
          // skip for the fenced rank (its cells are never tombstoned).
          double mine = rank + 1, sum = -1;
          comm.allreduce_f64(&mine, &sum, 1, Comm::ReduceOp::kSum);
          if (sum != kRanks * (kRanks + 1) / 2 - (victim + 1)) return 26;
          comm.barrier();
          return 0;
        },
        [&](int r, int code) {
          if (code != 0 && live.valid()) live.mark_dead(r);
        });
    EXPECT_EQ(res.exit_codes[static_cast<std::size_t>(victim)],
              256 + SIGKILL);
    for (int r = 0; r < kRanks; ++r) {
      if (r != victim) {
        EXPECT_EQ(res.exit_codes[static_cast<std::size_t>(r)], 0)
            << "survivor " << r << " (victim " << victim << ")";
      }
    }
  }
  resil::arm_fault("");
  EXPECT_NE(::access(("/dev/shm" + name).c_str(), F_OK), 0)
      << "shm segment leaked";
}

TEST(FaultRecovery, DegradeModeSurvivorsFenceAndContinue) {
  degrade_and_continue(2);
}

TEST(FaultRecovery, DegradeModeFencesRank0AndContinues) {
  // Rank 0 is the lowest rank, so the fence, the reduction seed and every
  // barrier must all move past it.
  degrade_and_continue(0);
}

TEST(FaultRecovery, AbortModePoisonsLaterWaits) {
  // Default abort mode: after the first verdict the world stays poisoned —
  // a survivor that swallows the error and tries another collective gets
  // an immediate second verdict instead of a hang.
  constexpr int kRanks = 4;
  constexpr int kVictim = 1;
  Config cfg;
  cfg.nranks = kRanks;
  cfg.mode = LaunchMode::kProcesses;
  cfg.env["NEMO_WORLD_MODE"] = "procs";  // Forked by hand, as above.
  cfg.shm_name = test_shm_name();
  cfg.peer_timeout_ms = 10000;
  cfg.env["NEMO_COLL"] = "auto";  // barrier_arrive is an arena-barrier site.
  cfg.env["NEMO_FAULT"] = std::to_string(kVictim) + ":barrier_arrive:kill";
  std::string name = cfg.shm_name;
  {
    World world(cfg);
    resil::Liveness live = world.liveness();
    shm::ProcessResult res = shm::run_forked_ranks(
        kRanks,
        [&](int rank) {
          world.reattach_in_child();
          Comm comm(world, rank);
          world.hard_barrier(rank);
          try {
            comm.barrier();
            return kVictimSurvived;
          } catch (const resil::PeerDeadError& e) {
            if (e.rank != kVictim) return kWrongRank;
          }
          try {
            comm.barrier();  // Poisoned: must fail fast, not hang.
            return kNoVerdict;
          } catch (const resil::PeerDeadError& e) {
            return e.rank == kVictim ? 0 : kWrongRank;
          }
        },
        [&](int r, int code) {
          if (code != 0 && live.valid()) live.mark_dead(r);
        });
    EXPECT_EQ(res.exit_codes[kVictim], 256 + SIGKILL);
    for (int r = 0; r < kRanks; ++r) {
      if (r != kVictim) {
        EXPECT_EQ(res.exit_codes[static_cast<std::size_t>(r)], 0)
            << "survivor " << r;
      }
    }
  }
  resil::arm_fault("");
  EXPECT_NE(::access(("/dev/shm" + name).c_str(), F_OK), 0);
}

}  // namespace
}  // namespace nemo::core
