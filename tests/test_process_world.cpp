// True multi-process worlds: forked ranks re-attach to a named shm arena at
// their own base addresses, so every offset-addressed structure is exercised
// with genuinely different VAs per rank, and the CMA backend moves private
// heap memory across real address-space boundaries.
//
// gtest EXPECT failures inside a forked child do not propagate to the parent
// runner, so child-side checks abort() on mismatch (the parent sees
// 256+SIGABRT and the run fails loudly).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "knem/knem_device.hpp"
#include "shm/process_runner.hpp"

namespace nemo::core {
namespace {


/// Unique per-test shm name so parallel ctest runs cannot collide.
std::string test_shm_name() {
  static std::atomic<unsigned> serial{0};
  char buf[64];
  std::snprintf(buf, sizeof buf, "/nemo-test-%d-%u",
                static_cast<int>(::getpid()),
                serial.fetch_add(1, std::memory_order_relaxed));
  return buf;
}

Config proc_config(int nranks, lmt::LmtKind kind) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.mode = LaunchMode::kProcesses;
  cfg.lmt = kind;
  return cfg;
}

/// The runtime's rank body, inlined so tests can pre-allocate shared slots
/// from the parent's World and verify them after the children exit.
template <typename Fn>
int child_rank(World& world, int rank, Fn&& fn) {
  world.reattach_in_child();
  Comm comm(world, rank);
  world.hard_barrier();
  fn(comm);
  comm.barrier();
  world.hard_barrier();
  return 0;
}

std::uint64_t fnv1a_bytes(const std::byte* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(p[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ProcessWorld, ShmHandoffPreservesOffsetViews) {
  Config cfg = proc_config(4, lmt::LmtKind::kAuto);
  cfg.shm_name = test_shm_name();
  World world(cfg);

  // Parent-written pattern, child-read through the re-attached mapping; a
  // per-rank flag written back the other way proves the children mapped the
  // same segment (an inherited COW copy would swallow the stores).
  constexpr std::size_t kBlob = 8 * KiB;
  std::byte* blob = world.shared_alloc(kBlob);
  pattern_fill({blob, kBlob}, 42);
  std::uint64_t blob_off = world.arena().offset_of(blob);
  auto* flags = reinterpret_cast<std::uint64_t*>(
      world.shared_alloc(4 * sizeof(std::uint64_t)));
  std::uint64_t flags_off = world.arena().offset_of(flags);

  shm::ProcessResult res = shm::run_forked_ranks(4, [&](int rank) {
    return child_rank(world, rank, [&](Comm& comm) {
      const shm::Arena& a = comm.world().arena();
      const std::byte* view = a.at(blob_off);
      if (pattern_check({view, kBlob}, 42) != kPatternOk) std::abort();
      auto* fl = a.at_as<std::uint64_t>(flags_off);
      shm::aref(fl[comm.rank()])
          .store(1000 + static_cast<std::uint64_t>(comm.rank()),
                 std::memory_order_release);
    });
  });
  EXPECT_TRUE(res.all_ok);
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(shm::aref(flags[r]).load(std::memory_order_acquire),
              1000u + static_cast<unsigned>(r))
        << "rank " << r << " write did not land in the shared segment";
}

TEST(ProcessWorld, CmaRoundTripMatchesShmCopyOracle) {
  // The same private-heap payload through the CMA backend and through the
  // shm copy ring must arrive bit-identical. Each receiver verifies every
  // byte against a locally regenerated expectation, and publishes a
  // checksum so the parent can compare the two runs directly.
  constexpr std::size_t kN = 1 * MiB + 13;
  std::uint64_t sums[2] = {0, 0};
  lmt::LmtKind kinds[2] = {lmt::LmtKind::kCma, lmt::LmtKind::kDefaultShm};
  for (int k = 0; k < 2; ++k) {
    Config cfg = proc_config(2, kinds[k]);
    cfg.shm_name = test_shm_name();
    World world(cfg);
    auto* sum_slot =
        reinterpret_cast<std::uint64_t*>(world.shared_alloc(sizeof(std::uint64_t)));
    std::uint64_t sum_off = world.arena().offset_of(sum_slot);
    shm::ProcessResult res = shm::run_forked_ranks(2, [&](int rank) {
      return child_rank(world, rank, [&](Comm& comm) {
        std::vector<std::byte> buf(kN);  // Private memory in both ranks.
        if (comm.rank() == 0) {
          pattern_fill(buf, 77);
          comm.send(buf.data(), kN, 1, 5);
        } else {
          comm.recv(buf.data(), kN, 0, 5);
          if (pattern_check(buf, 77) != kPatternOk) std::abort();
          shm::aref(*comm.world().arena().at_as<std::uint64_t>(sum_off))
              .store(fnv1a_bytes(buf.data(), kN), std::memory_order_release);
        }
      });
    });
    ASSERT_TRUE(res.all_ok) << "kind=" << lmt::to_string(kinds[k]);
    sums[k] = shm::aref(*sum_slot).load(std::memory_order_acquire);
  }
  EXPECT_NE(sums[0], 0u);
  EXPECT_EQ(sums[0], sums[1]) << "CMA payload differs from shm-copy oracle";
}

class ProcessWorldMatrix
    : public ::testing::TestWithParam<std::tuple<lmt::LmtKind, int>> {};

TEST_P(ProcessWorldMatrix, RingExchangeForkedRanks) {
  auto [kind, nranks] = GetParam();
  Config cfg = proc_config(nranks, kind);
  bool ok = run(cfg, [&](Comm& comm) {
    constexpr std::size_t kN = 192 * KiB;
    int n = comm.size();
    int to = (comm.rank() + 1) % n, from = (comm.rank() - 1 + n) % n;
    std::vector<std::byte> out(kN), in(kN);
    pattern_fill(out, static_cast<std::uint64_t>(comm.rank()));
    Request s = comm.isend(out.data(), kN, to, 4);
    Request r = comm.irecv(in.data(), kN, from, 4);
    comm.wait(s);
    comm.wait(r);
    if (pattern_check(in, static_cast<std::uint64_t>(from)) != kPatternOk)
      std::abort();
  });
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(
    KindsByRanks, ProcessWorldMatrix,
    ::testing::Combine(::testing::Values(lmt::LmtKind::kDefaultShm,
                                         lmt::LmtKind::kVmsplice,
                                         lmt::LmtKind::kKnem,
                                         lmt::LmtKind::kCma),
                       ::testing::Values(2, 4, 8)),
    [](const auto& info) {
      std::string s = lmt::to_string(std::get<0>(info.param));
      for (auto& c : s)
        if (c == '-') c = '_';
      return s + "_x" + std::to_string(std::get<1>(info.param));
    });

TEST(ProcessWorld, CmaMovesFourMiBWithExactlyOneCopy) {
  // The acceptance check: a 4 MiB rendezvous through the CMA backend is one
  // process_vm_readv (counter-asserted), or — where the kernel refuses the
  // attach — every byte is accounted to the staged path instead. The device
  // stats live in the arena, so the receiving child's view is worldwide.
  constexpr std::size_t kN = 4 * MiB;
  Config cfg = proc_config(2, lmt::LmtKind::kCma);
  cfg.shm_name = test_shm_name();
  cfg.shared_pool_bytes = 8 * MiB;  // Headroom for a possible staged copy.
  World world(cfg);
  bool cma_ok = world.cma_ok();
  shm::ProcessResult res = shm::run_forked_ranks(2, [&](int rank) {
    return child_rank(world, rank, [&](Comm& comm) {
      std::vector<std::byte> buf(kN);
      if (comm.rank() == 0) {
        pattern_fill(buf, 8);
        comm.send(buf.data(), kN, 1, 6);
      } else {
        comm.recv(buf.data(), kN, 0, 6);
        if (pattern_check(buf, 8) != kPatternOk) std::abort();
        knem::DeviceStats st = comm.engine().knem_device().stats();
        bool single_copy = st.cma_read_cmds == 1 && st.cma_bytes == kN &&
                           st.cma_stage_bytes == 0;
        bool staged = st.cma_stage_fallbacks == 1 && st.cma_stage_bytes == kN;
        if (!(single_copy || staged)) std::abort();
      }
    });
  });
  EXPECT_TRUE(res.all_ok);
  // Where the forced-kind path fell back entirely (no CMA on the host), the
  // data checks above still had to pass through the shm ring.
  if (!cma_ok)
    std::fprintf(stderr, "note: CMA unavailable, exercised fallback only\n");
}

TEST(ProcessWorld, SimulatedSyscallFailureTakesStagedPath) {
  // NEMO_CMA=nosyscall semantics via the Config: the receiver must degrade
  // mid-transfer to the sender-staged two-copy path, and every byte must be
  // accounted to the stage counters (none to the single-copy ones).
  constexpr std::size_t kN = 2 * MiB + 3;
  Config cfg = proc_config(2, lmt::LmtKind::kCma);
  cfg.shm_name = test_shm_name();
  cfg.cma_sim_fail = true;
  cfg.shared_pool_bytes = 8 * MiB;
  World world(cfg);
  if (!world.cma_ok()) GTEST_SKIP() << "CMA probe failed on this host";
  shm::ProcessResult res = shm::run_forked_ranks(2, [&](int rank) {
    return child_rank(world, rank, [&](Comm& comm) {
      std::vector<std::byte> buf(kN);
      if (comm.rank() == 0) {
        pattern_fill(buf, 21);
        comm.send(buf.data(), kN, 1, 9);
      } else {
        comm.recv(buf.data(), kN, 0, 9);
        if (pattern_check(buf, 21) != kPatternOk) std::abort();
        knem::DeviceStats st = comm.engine().knem_device().stats();
        if (st.cma_stage_fallbacks != 1 || st.cma_stage_bytes != kN ||
            st.cma_bytes != 0)
          std::abort();
      }
    });
  });
  EXPECT_TRUE(res.all_ok);
}

TEST(ProcessWorld, EnvSwitchForksRealProcesses) {
  // NEMO_WORLD_MODE=procs flips a threads-mode Config into forked ranks: the
  // lambda must observe a pid different from the launcher's.
  pid_t parent = ::getpid();
  Config cfg;
  cfg.env["NEMO_WORLD_MODE"] = "procs";
  cfg.nranks = 2;
  cfg.mode = LaunchMode::kThreads;
  bool ok = run(cfg, [parent](Comm& comm) {
    if (::getpid() == parent) std::abort();  // Still a thread of the parent.
    std::byte token{};
    if (comm.rank() == 0)
      comm.send(&token, 1, 1, 1);
    else
      comm.recv(&token, 1, 0, 1);
  });
  EXPECT_TRUE(ok);
}

TEST(ProcessWorld, EnvSwitchRejectsTypos) {
  Config cfg;
  cfg.env["NEMO_WORLD_MODE"] = "prcoesses";
  cfg.nranks = 2;
  EXPECT_THROW(run(cfg, [](Comm&) {}), std::invalid_argument);
}

TEST(ProcessWorld, CmaKillSwitchFallsBackCleanly) {
  // NEMO_CMA=off: auto/forced selection must never touch the CMA counters,
  // and the transfer still completes through the shm ring.
  constexpr std::size_t kN = 512 * KiB;
  Config cfg = proc_config(2, lmt::LmtKind::kCma);
  cfg.env["NEMO_CMA"] = "off";
  cfg.shm_name = test_shm_name();
  World world(cfg);
  EXPECT_FALSE(world.cma_ok());
  shm::ProcessResult res = shm::run_forked_ranks(2, [&](int rank) {
    return child_rank(world, rank, [&](Comm& comm) {
      std::vector<std::byte> buf(kN);
      if (comm.rank() == 0) {
        pattern_fill(buf, 5);
        comm.send(buf.data(), kN, 1, 2);
      } else {
        comm.recv(buf.data(), kN, 0, 2);
        if (pattern_check(buf, 5) != kPatternOk) std::abort();
        knem::DeviceStats st = comm.engine().knem_device().stats();
        if (st.cma_read_cmds != 0 || st.cma_bytes != 0 ||
            st.cma_stage_fallbacks != 0)
          std::abort();
      }
    });
  });
  EXPECT_TRUE(res.all_ok);
}

TEST(ProcessWorld, ShmSegmentUnlinkedAfterWorld) {
  std::string name = test_shm_name();
  {
    Config cfg = proc_config(2, lmt::LmtKind::kAuto);
    cfg.shm_name = name;
    World world(cfg);
    shm::ProcessResult res = shm::run_forked_ranks(2, [&](int rank) {
      return child_rank(world, rank, [](Comm&) {});
    });
    EXPECT_TRUE(res.all_ok);
    // While the world lives the segment must exist...
    EXPECT_EQ(::access(("/dev/shm" + name).c_str(), F_OK), 0);
  }
  // ...and the children's disowned re-attachments must not have unlinked it
  // early nor leaked it past the owner's destruction.
  EXPECT_NE(::access(("/dev/shm" + name).c_str(), F_OK), 0);
}

}  // namespace
}  // namespace nemo::core
