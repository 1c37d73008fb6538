// Process mode: forked ranks over the inherited arena. The KNEM backend goes
// through real cross-memory attach here (separate address spaces), vmsplice
// through inherited pipes — the paper's actual deployment shape.
#include <gtest/gtest.h>

#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "shm/process_runner.hpp"

namespace nemo::core {
namespace {

Config proc_config(int nranks, lmt::LmtKind kind) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.mode = LaunchMode::kProcesses;
  cfg.lmt = kind;
  return cfg;
}

class ProcessMode : public ::testing::TestWithParam<lmt::LmtKind> {};

TEST_P(ProcessMode, PingpongAcrossAddressSpaces) {
  bool ok = run(proc_config(2, GetParam()), [&](Comm& comm) {
    for (std::size_t n : {std::size_t{1024}, 128 * KiB, 2 * MiB}) {
      std::vector<std::byte> buf(n);  // Private memory: CMA territory.
      if (comm.rank() == 0) {
        pattern_fill(buf, n);
        comm.send(buf.data(), n, 1, 1);
      } else {
        comm.recv(buf.data(), n, 0, 1);
        if (pattern_check(buf, n) != kPatternOk) std::abort();
      }
    }
  });
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ProcessMode,
                         ::testing::Values(lmt::LmtKind::kDefaultShm,
                                           lmt::LmtKind::kVmsplice,
                                           lmt::LmtKind::kKnem,
                                           lmt::LmtKind::kAuto),
                         [](const auto& info) {
                           std::string s = lmt::to_string(info.param);
                           for (auto& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

TEST(ProcessMode, ArenaBuffersUseDirectWindow) {
  // Buffers allocated from the shared arena are readable directly by the
  // peer process (XPMEM-style), even in process mode.
  bool ok = run(proc_config(2, lmt::LmtKind::kKnem), [&](Comm& comm) {
    constexpr std::size_t kN = 1 * MiB;
    std::byte* buf = comm.shared_alloc(kN);
    if (comm.rank() == 0) {
      pattern_fill({buf, kN}, 3);
      comm.send(buf, kN, 1, 2);
    } else {
      std::byte* dst = comm.shared_alloc(kN);
      comm.recv(dst, kN, 0, 2);
      if (pattern_check({dst, kN}, 3) != kPatternOk) std::abort();
    }
  });
  EXPECT_TRUE(ok);
}

TEST(ProcessMode, KnemDmaAcrossProcesses) {
  Config cfg = proc_config(2, lmt::LmtKind::kKnem);
  cfg.knem_mode = lmt::KnemMode::kAsyncDma;
  bool ok = run(cfg, [&](Comm& comm) {
    constexpr std::size_t kN = 2 * MiB;
    std::vector<std::byte> buf(kN);
    if (comm.rank() == 0) {
      pattern_fill(buf, 9);
      comm.send(buf.data(), kN, 1, 3);
    } else {
      comm.recv(buf.data(), kN, 0, 3);
      if (pattern_check(buf, 9) != kPatternOk) std::abort();
    }
  });
  EXPECT_TRUE(ok);
}

TEST(ProcessMode, CollectivesAcrossFourProcesses) {
  bool ok = run(proc_config(4, lmt::LmtKind::kKnem), [&](Comm& comm) {
    const std::size_t per = 96 * KiB;
    int n = comm.size();
    std::vector<std::byte> send(per * static_cast<std::size_t>(n)),
        recv(per * static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d)
      pattern_fill(std::span<std::byte>(
                       send.data() + static_cast<std::size_t>(d) * per, per),
                   static_cast<std::uint64_t>(comm.rank() * 10 + d));
    comm.alltoall(send.data(), per, recv.data());
    for (int s = 0; s < n; ++s)
      if (pattern_check(std::span<const std::byte>(
                            recv.data() + static_cast<std::size_t>(s) * per,
                            per),
                        static_cast<std::uint64_t>(s * 10 + comm.rank())) !=
          kPatternOk)
        std::abort();
    std::int64_t one = 1, sum = 0;
    comm.allreduce_i64(&one, &sum, 1, Comm::ReduceOp::kSum);
    if (sum != n) std::abort();
  });
  EXPECT_TRUE(ok);
}

TEST(ProcessMode, ChildFailurePropagates) {
  shm::ProcessResult res = shm::run_forked_ranks(3, [](int rank) {
    return rank == 1 ? 17 : 0;
  });
  EXPECT_FALSE(res.all_ok);
  ASSERT_EQ(res.exit_codes.size(), 3u);
  EXPECT_EQ(res.exit_codes[0], 0);
  EXPECT_EQ(res.exit_codes[1], 17);
  EXPECT_EQ(res.exit_codes[2], 0);
}

TEST(ProcessMode, ChildExceptionBecomesCode121) {
  shm::ProcessResult res = shm::run_forked_ranks(2, [](int rank) -> int {
    if (rank == 0) throw std::runtime_error("boom");
    return 0;
  });
  EXPECT_FALSE(res.all_ok);
  EXPECT_EQ(res.exit_codes[0], 121);
  // The out-of-band flag distinguishes the escape from a legit return.
  ASSERT_EQ(res.uncaught.size(), 2u);
  EXPECT_TRUE(res.uncaught[0]);
  EXPECT_FALSE(res.uncaught[1]);
}

TEST(ProcessMode, LegitExitCode121IsNotFlaggedAsException) {
  // A rank body may return any code — including the 121 the catch-all also
  // maps to. Only the out-of-band pipe flag may claim "exception escaped".
  shm::ProcessResult res = shm::run_forked_ranks(2, [](int rank) -> int {
    return rank == 0 ? 121 : 0;
  });
  EXPECT_FALSE(res.all_ok);
  EXPECT_EQ(res.exit_codes[0], 121);
  EXPECT_FALSE(res.uncaught[0]);
  EXPECT_FALSE(res.uncaught[1]);
}

}  // namespace
}  // namespace nemo::core
