// Failure injection and edge cases: truncation aborts, arena exhaustion,
// KNEM error paths under the full stack, zero-size messages, cell-pool
// pressure, stale-cookie handling.
#include <gtest/gtest.h>
#include <unistd.h>

#include <csignal>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "shm/process_runner.hpp"

namespace nemo::core {
namespace {

TEST(FailurePaths, TruncatedEagerAbortsReceiver) {
  // Truncation is a protocol violation; the engine aborts loudly rather
  // than corrupting memory. Run in a forked child and expect SIGABRT.
  shm::ProcessResult res = shm::run_forked_ranks(1, [](int) -> int {
    Config cfg;
    cfg.nranks = 2;
    // Rank threads of this child, so the abort ends the child itself.
    cfg.env["NEMO_WORLD_MODE"] = "threads";
    run(cfg, [](Comm& comm) {
      std::vector<std::byte> buf(8 * KiB);
      if (comm.rank() == 0) {
        comm.send(buf.data(), buf.size(), 1, 1);
      } else {
        std::vector<std::byte> small(1 * KiB);
        comm.recv(small.data(), small.size(), 0, 1);
      }
    });
    return 0;  // Unreachable.
  });
  EXPECT_FALSE(res.all_ok);
  EXPECT_EQ(res.exit_codes[0], 256 + SIGABRT);
}

TEST(FailurePaths, TruncatedRendezvousAbortsReceiver) {
  shm::ProcessResult res = shm::run_forked_ranks(1, [](int) -> int {
    Config cfg;
    cfg.nranks = 2;
    cfg.lmt = lmt::LmtKind::kKnem;
    cfg.env["NEMO_WORLD_MODE"] = "threads";  // As above.
    run(cfg, [](Comm& comm) {
      std::vector<std::byte> buf(1 * MiB);
      if (comm.rank() == 0) {
        comm.send(buf.data(), buf.size(), 1, 1);
      } else {
        std::vector<std::byte> small(64 * KiB + 1);
        comm.recv(small.data(), small.size(), 0, 1);
      }
    });
    return 0;
  });
  EXPECT_FALSE(res.all_ok);
  EXPECT_EQ(res.exit_codes[0], 256 + SIGABRT);
}

TEST(FailurePaths, ArenaExhaustionAborts) {
  shm::ProcessResult res = shm::run_forked_ranks(1, [](int) -> int {
    shm::Arena a = shm::Arena::create_anonymous(1 * MiB);
    for (;;) a.alloc(64 * KiB);  // Must abort, not overflow.
  });
  EXPECT_EQ(res.exit_codes[0], 256 + SIGABRT);
}

TEST(FailurePaths, ZeroByteMessagesAllBackends) {
  for (lmt::LmtKind kind :
       {lmt::LmtKind::kDefaultShm, lmt::LmtKind::kVmsplice,
        lmt::LmtKind::kKnem, lmt::LmtKind::kAuto}) {
    Config cfg;
    cfg.nranks = 2;
    cfg.lmt = kind;
    run(cfg, [&](Comm& comm) {
      std::byte token{};
      if (comm.rank() == 0) {
        comm.send(nullptr, 0, 1, 1);
        comm.send(&token, 1, 1, 2);  // Ensure ordering survives.
      } else {
        RecvInfo info;
        comm.recv(nullptr, 0, 0, 1, &info);
        EXPECT_EQ(info.bytes, 0u);
        comm.recv(&token, 1, 0, 2);
      }
    });
  }
}

TEST(FailurePaths, ChildKilledMidRendezvousIsReportedAndLeaksNothing) {
  // A rank SIGKILLed after initiating a rendezvous (RTS posted, no data
  // moved, cookie still held): the parent must report 256+SIGKILL without
  // mistaking it for an escaped exception, the SURVIVING rank's recv must
  // return (with a PeerDeadError verdict, not a hang), and the named
  // segment must not outlive the owning World.
  std::string name = "/nemo-test-kill-" + std::to_string(::getpid());
  {
    Config cfg;
    cfg.nranks = 2;
    cfg.mode = LaunchMode::kProcesses;
    cfg.lmt = lmt::LmtKind::kAuto;  // Heap buffer: KNEM over CMA, else ring.
    cfg.shm_name = name;
    cfg.peer_timeout_ms = 5000;  // Backstop; the eager verdict lands first.
    World world(cfg);
    resil::Liveness live = world.liveness();
    shm::ProcessResult res = shm::run_forked_ranks(
        2,
        [&](int rank) {
          world.reattach_in_child();
          Comm comm(world, rank);
          static std::vector<std::byte> buf(4 * MiB);
          if (rank == 0) {
            Request r = comm.isend(buf.data(), buf.size(), 1, 1);
            (void)r;
            ::raise(SIGKILL);
            return 0;  // Unreachable.
          }
          // Survivor: give the victim time to die, then wait on it. The
          // bounded wait must convert the death into an exception.
          ::usleep(200 * 1000);
          try {
            comm.recv(buf.data(), buf.size(), 0, 1);
          } catch (const resil::PeerDeadError& e) {
            return e.rank == 0 ? 0 : 14;
          }
          return 13;  // Recv completed against a dead sender?
        },
        [&](int rank, int code) {
          if (code != 0 && live.valid()) live.mark_dead(rank);
        });
    EXPECT_FALSE(res.all_ok);
    EXPECT_EQ(res.exit_codes[0], 256 + SIGKILL);
    EXPECT_FALSE(res.uncaught[0]);  // Killed, not thrown.
    EXPECT_EQ(res.exit_codes[1], 0);
  }
  EXPECT_NE(::access(("/dev/shm" + name).c_str(), F_OK), 0)
      << "shm segment leaked past the owning World";
}

TEST(FailurePaths, CellPoolPressureManySmallMessages) {
  // Far more eager messages than a one-record ring holds: senders must
  // defer and flush through progress without deadlock.
  Config cfg;
  cfg.nranks = 2;
  cfg.env = {{"NEMO_FASTBOX_SLOTS", "1"}};  // Tiny ring.
  run(cfg, [&](Comm& comm) {
    constexpr int kMsgs = 500;
    std::vector<std::byte> buf(4 * KiB);
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        pattern_fill(buf, static_cast<std::uint64_t>(i));
        comm.send(buf.data(), buf.size(), 1, 7);
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        comm.recv(buf.data(), buf.size(), 0, 7);
        ASSERT_EQ(pattern_check(buf, static_cast<std::uint64_t>(i)),
                  kPatternOk);
      }
    }
  });
}

TEST(FailurePaths, BidirectionalFloodTinyCellPool) {
  // Both sides flood simultaneously through rings far smaller than the
  // traffic: the defer-and-flush path must avoid deadlock.
  Config cfg;
  cfg.nranks = 2;
  cfg.env = {{"NEMO_FASTBOX_SLOTS", "1"}};
  run(cfg, [&](Comm& comm) {
    std::vector<std::byte> out(60 * KiB), in(60 * KiB);
    pattern_fill(out, static_cast<std::uint64_t>(comm.rank()));
    for (int i = 0; i < 50; ++i) {
      Request s = comm.isend(out.data(), out.size(), 1 - comm.rank(), i);
      Request r = comm.irecv(in.data(), in.size(), 1 - comm.rank(), i);
      comm.wait(s);
      comm.wait(r);
      ASSERT_EQ(pattern_check(in, static_cast<std::uint64_t>(1 - comm.rank())),
                kPatternOk);
    }
  });
}

TEST(FailurePaths, RingSmallerThanMessageStreams) {
  // A 4 MiB rendezvous through a 2x8 KiB ring: many wrap-arounds.
  Config cfg;
  cfg.nranks = 2;
  cfg.lmt = lmt::LmtKind::kDefaultShm;
  cfg.ring_bufs = 2;
  cfg.ring_buf_bytes = 8 * KiB;
  run(cfg, [&](Comm& comm) {
    std::vector<std::byte> buf(4 * MiB + 17);
    if (comm.rank() == 0) {
      pattern_fill(buf, 1);
      comm.send(buf.data(), buf.size(), 1, 1);
    } else {
      comm.recv(buf.data(), buf.size(), 0, 1);
      EXPECT_EQ(pattern_check(buf, 1), kPatternOk);
    }
  });
}

TEST(FailurePaths, ManyRingBuffersAlsoWork) {
  Config cfg;
  cfg.nranks = 2;
  cfg.lmt = lmt::LmtKind::kDefaultShm;
  cfg.ring_bufs = 8;
  cfg.ring_buf_bytes = 64 * KiB;
  run(cfg, [&](Comm& comm) {
    std::vector<std::byte> buf(3 * MiB);
    if (comm.rank() == 0) {
      pattern_fill(buf, 2);
      comm.send(buf.data(), buf.size(), 1, 1);
    } else {
      comm.recv(buf.data(), buf.size(), 0, 1);
      EXPECT_EQ(pattern_check(buf, 2), kPatternOk);
    }
  });
}

TEST(FailurePaths, RecvInfoReportsActualSizeSmallerThanBuffer) {
  Config cfg;
  cfg.nranks = 2;
  run(cfg, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> buf(10 * KiB);
      pattern_fill(buf, 1);
      comm.send(buf.data(), buf.size(), 1, 1);
    } else {
      std::vector<std::byte> big(1 * MiB);
      RecvInfo info;
      comm.recv(big.data(), big.size(), 0, 1, &info);
      EXPECT_EQ(info.bytes, 10 * KiB);
      EXPECT_EQ(info.src, 0);
      EXPECT_EQ(info.tag, 1);
      EXPECT_EQ(pattern_check(
                    std::span<const std::byte>(big.data(), 10 * KiB), 1),
                kPatternOk);
    }
  });
}

TEST(FailurePaths, WaitOnCompletedRequestIsIdempotent) {
  Config cfg;
  cfg.nranks = 2;
  run(cfg, [&](Comm& comm) {
    std::byte b{};
    if (comm.rank() == 0) {
      Request r = comm.isend(&b, 1, 1, 1);
      comm.wait(r);
      comm.wait(r);
      EXPECT_TRUE(comm.test(r));
    } else {
      Request r = comm.irecv(&b, 1, 0, 1);
      comm.wait(r);
      comm.wait(r);
      EXPECT_TRUE(comm.test(r));
    }
  });
}

}  // namespace
}  // namespace nemo::core
