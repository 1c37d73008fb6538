// True multi-process worlds: forked ranks re-attach to a named shm arena at
// their own base addresses, so every offset-addressed structure is exercised
// with genuinely different VAs per rank, and KNEM pulls private heap memory
// across real address-space boundaries (or, without cross-memory attach,
// sends it through the copy ring).
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
#include "shm/remote_mem.hpp"

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
  // The tests fork the ranks by hand, so an ambient NEMO_WORLD_MODE must
  // not turn this into a threads world (the environment beats cfg.mode).
  cfg.env["NEMO_WORLD_MODE"] = "procs";
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

TEST(ProcessWorld, KnemHeapRoundTripMatchesShmCopyOracle) {
  // The same private-heap payload through KNEM and through the shm copy
  // ring must arrive bit-identical. Each receiver verifies every byte
  // against a locally regenerated expectation, and publishes a checksum so
  // the parent can compare the two runs directly.
  constexpr std::size_t kN = 1 * MiB + 13;
  std::uint64_t sums[2] = {0, 0};
  lmt::LmtKind kinds[2] = {lmt::LmtKind::kKnem, lmt::LmtKind::kDefaultShm};
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
  EXPECT_EQ(sums[0], sums[1]) << "KNEM payload differs from shm-copy oracle";
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
                                         lmt::LmtKind::kAuto),
                       ::testing::Values(2, 4, 8)),
    [](const auto& info) {
      std::string s = lmt::to_string(std::get<0>(info.param));
      for (auto& c : s)
        if (c == '-') c = '_';
      return s + "_x" + std::to_string(std::get<1>(info.param));
    });

TEST(ProcessWorld, KnemPullsFourMiBHeapWithExactlyOneCopy) {
  // A 4 MiB heap-to-heap rendezvous through KNEM is one receive command
  // whose bytes the receiver alone pulls: the sender cannot address a heap
  // receive buffer, so nothing is shared. Without cross-memory attach the
  // sender sends it through the copy ring instead. The device stats live in
  // the arena, so the receiving child's view is worldwide.
  constexpr std::size_t kN = 4 * MiB;
  Config cfg = proc_config(2, lmt::LmtKind::kKnem);
  cfg.shm_name = test_shm_name();
  World world(cfg);
  const bool cma_ok = world.cma_ok();
  shm::ProcessResult res = shm::run_forked_ranks(2, [&](int rank) {
    return child_rank(world, rank, [&](Comm& comm) {
      std::vector<std::byte> buf(kN);
      if (comm.rank() == 0) {
        pattern_fill(buf, 8);
        comm.send(buf.data(), kN, 1, 6);
        auto want = cma_ok ? lmt::LmtKind::kKnem : lmt::LmtKind::kDefaultShm;
        if (comm.engine().stats().rndv_by_kind[static_cast<std::size_t>(
                want)] != 1)
          std::abort();
      } else {
        comm.recv(buf.data(), kN, 0, 6);
        if (pattern_check(buf, 8) != kPatternOk) std::abort();
        knem::DeviceStats st = comm.engine().knem_device().stats();
        const std::uint64_t pulled = cma_ok ? kN : 0;
        if (st.recv_cmds != (cma_ok ? 1u : 0u) || st.bytes_copied != pulled ||
            st.sender_copied_bytes != 0)
          std::abort();
      }
    });
  });
  EXPECT_TRUE(res.all_ok);
  if (!cma_ok)
    std::fprintf(stderr, "note: CMA unavailable, exercised the ring only\n");
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

/// Rank 0 sends `msgs` byte-checked heap messages of `n` bytes to rank 1 in
/// a 2-rank procs world pinned to NEMO_LMT=auto and `cma`. Each rank
/// aborts unless the arena's free space is the same before and after the
/// loop and rank 0's rendezvous all took `want`.
bool heap_stream(const char* cma, lmt::LmtKind want, int msgs,
                 std::size_t n) {
  Config cfg = proc_config(2, lmt::LmtKind::kAuto);
  cfg.env["NEMO_CMA"] = cma;
  cfg.env["NEMO_LMT"] = "auto";
  return run(cfg, [&](Comm& comm) {
    std::vector<std::byte> buf(n);  // Private memory in both ranks.
    comm.barrier();
    const std::size_t before = comm.world().arena().remaining();
    for (int i = 0; i < msgs; ++i) {
      auto seed = static_cast<std::uint64_t>(i);
      if (comm.rank() == 0) {
        pattern_fill(buf, seed);
        comm.send(buf.data(), n, 1, i);
      } else {
        comm.recv(buf.data(), n, 0, i);
        if (pattern_check(buf, seed) != kPatternOk) std::abort();
      }
    }
    comm.barrier();
    if (comm.world().arena().remaining() != before) std::abort();
    if (comm.rank() == 0) {
      const auto& by_kind = comm.engine().stats().rndv_by_kind;
      for (std::size_t k = 0; k < by_kind.size(); ++k)
        if (by_kind[k] != (k == static_cast<std::size_t>(want)
                               ? static_cast<std::uint64_t>(msgs)
                               : 0u))
          std::abort();
    }
  });
}

TEST(ProcessWorld, CmaKillSwitchSendsHeapPullsToTheRing) {
  // NEMO_CMA=off: a KNEM receiver in another process could only reach the
  // sender's heap over cross-memory attach, so every such message takes
  // the copy ring, whose memory is bounded: 64 x 4 MiB leave the arena's
  // free space unchanged.
  EXPECT_TRUE(heap_stream("off", lmt::LmtKind::kDefaultShm, 64, 4 * MiB));
}

TEST(ProcessWorld, CmaOnHeapPullsTakeKnem) {
  // The same loop with cross-memory attach allowed stays on KNEM.
  if (!shm::cma_available()) GTEST_SKIP() << "no CMA on this host";
  EXPECT_TRUE(heap_stream("on", lmt::LmtKind::kKnem, 64, 4 * MiB));
}

TEST(ProcessWorld, CmaKillSwitchFallsBackCleanly) {
  // NEMO_CMA=off with KNEM forced: heap messages still take the ring, and
  // the KNEM device sees no receive.
  constexpr std::size_t kN = 512 * KiB;
  Config cfg = proc_config(2, lmt::LmtKind::kKnem);
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
        if (st.send_cmds != 0 || st.recv_cmds != 0 || st.bytes_copied != 0)
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
