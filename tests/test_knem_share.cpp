// KNEM shared copy: a synchronous CPU receive is cut into chunks that the
// receiver and the sender waiting for FIN both claim from the cookie's
// share block. Payloads must land byte for byte at chunk edges, through
// vectorial sends and non-contiguous receives, in thread and process
// worlds; the copy must be counted once whoever made it; a sender that
// does not progress leaves every chunk to the receiver; an abandoned
// receive closes the claim word.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "affinity.hpp"
#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "core/datatype.hpp"
#include "knem/knem_device.hpp"

namespace nemo::core {
namespace {

using knem::DeviceStats;
using test::two_cpus;

Config knem_config(LaunchMode mode = LaunchMode::kThreads) {
  Config cfg;
  cfg.nranks = 2;
  cfg.mode = mode;
  cfg.lmt = lmt::LmtKind::kKnem;
  cfg.knem_mode = lmt::KnemMode::kSyncCopy;
  cfg.eager_threshold = 8 * KiB;  // 8 KiB + 1 already takes the rendezvous.
  // Whatever the environment says: the cases assert who copied what.
  cfg.env["NEMO_WORLD_MODE"] =
      mode == LaunchMode::kThreads ? "threads" : "procs";
  cfg.env["NEMO_LMT"] = "knem";
  return cfg;
}

DeviceStats stats(Comm& comm) { return comm.engine().knem_device().stats(); }

constexpr std::size_t kTail = 64;  // Sentinel bytes past the payload.

TEST(KnemShare, ChunkEdgeSizesLandByteForByte) {
  const std::size_t sizes[] = {8 * KiB + 1, 64 * KiB, 1 * MiB + 13, 4 * MiB};
  run(knem_config(), [&](Comm& comm) {
    std::uint64_t seed = 1;
    for (std::size_t n : sizes) {
      std::vector<std::byte> buf(n + kTail, std::byte{0xA5});
      if (comm.rank() == 0) {
        pattern_fill(std::span(buf).first(n), seed);
        comm.send(buf.data(), n, 1, 3);
      } else {
        comm.recv(buf.data(), n + kTail, 0, 3);
        EXPECT_EQ(pattern_check(std::span(buf).first(n), seed), kPatternOk)
            << n << " B";
        for (std::size_t i = n; i < buf.size(); ++i)
          ASSERT_EQ(buf[i], std::byte{0xA5}) << "tail clobbered at " << n;
      }
      ++seed;
    }
    comm.barrier();
    if (comm.rank() == 0) {
      DeviceStats st = stats(comm);
      std::size_t sum = 0;
      for (std::size_t n : sizes) sum += n;
      EXPECT_EQ(st.bytes_copied, sum);  // Once, whoever copied it.
      EXPECT_LE(st.sender_copied_bytes, st.bytes_copied);
      EXPECT_EQ(comm.engine().knem_device().slots_in_use(), 0u);
    }
  });
}

TEST(KnemShare, VectorSendIntoContiguousRecv) {
  // 700 blocks of 1000 B every 1536 B: odd block edges against 64 B chunk
  // multiples, so chunks start and end inside source blocks.
  const Datatype vec = Datatype::vector(700, 1000, 1536);
  const std::size_t packed = vec.size();
  run(knem_config(), [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> src(vec.extent());
      pattern_fill(src, 7);
      comm.send_typed(src.data(), vec, 1, 1, 4);
    } else {
      std::vector<std::byte> dst(packed);
      comm.recv(dst.data(), packed, 0, 4);
      std::vector<std::byte> want(vec.extent()), packed_want(packed);
      pattern_fill(want, 7);
      vec.pack(want.data(), 1, packed_want.data());
      EXPECT_EQ(dst, packed_want);
    }
  });
}

TEST(KnemShare, NoncontiguousRecvIsReceiverOnly) {
  // The sender can only write one contiguous destination, so a strided
  // receive publishes nothing: every chunk is the receiver's.
  const Datatype vec = Datatype::vector(256, 1024, 3000);
  const std::size_t packed = vec.size();
  run(knem_config(), [&](Comm& comm) {
    for (int round = 0; round < 8; ++round) {
      if (comm.rank() == 0) {
        std::vector<std::byte> src(packed);
        pattern_fill(src, 11 + static_cast<std::uint64_t>(round));
        comm.send(src.data(), packed, 1, 5);
      } else {
        std::vector<std::byte> dst(vec.extent(), std::byte{0});
        comm.recv_typed(dst.data(), vec, 1, 0, 5);
        std::vector<std::byte> got(packed), want(packed);
        vec.pack(dst.data(), 1, got.data());
        pattern_fill(want, 11 + static_cast<std::uint64_t>(round));
        EXPECT_EQ(got, want) << "round " << round;
      }
    }
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_EQ(stats(comm).sender_copied_bytes, 0u);
      EXPECT_EQ(stats(comm).bytes_copied, 8 * packed);
    }
  });
}

TEST(KnemShare, IdleSenderLeavesEveryChunkToReceiver) {
  constexpr std::size_t kN = 1 * MiB;
  std::atomic<bool> received{false};
  run(knem_config(), [&](Comm& comm) {
    std::vector<std::byte> buf(kN);
    if (comm.rank() == 0) {
      pattern_fill(buf, 21);
      Request r = comm.isend(buf.data(), kN, 1, 6);
      // No progress on this rank until the receive has completed.
      while (!received.load(std::memory_order_acquire))
        std::this_thread::yield();
      comm.wait(r);
    } else {
      comm.recv(buf.data(), kN, 0, 6);
      EXPECT_EQ(pattern_check(buf, 21), kPatternOk);
      received.store(true, std::memory_order_release);
    }
    comm.barrier();
    if (comm.rank() == 0) {
      EXPECT_EQ(stats(comm).sender_copied_bytes, 0u);
      EXPECT_EQ(stats(comm).bytes_copied, kN);
    }
  });
}

TEST(KnemShare, BlockingPingpongSenderHelps) {
  // Both ranks wait in blocking calls, so the sender of each leg claims
  // chunks while the receiver copies. That needs both running at once:
  // ranks sharing one CPU may take turns and leave the sender nothing.
  constexpr std::size_t kN = 4 * MiB;
  constexpr int kLegs = 64;
  Config cfg = knem_config();
  cfg.core_binding = two_cpus();
  if (cfg.core_binding.size() < 2)
    GTEST_SKIP() << "the affinity mask holds fewer than two CPUs, so the "
                    "ranks cannot run side by side";
  run(cfg, [&](Comm& comm) {
    std::vector<std::byte> buf(kN);
    for (int i = 0; i < kLegs; ++i) {
      auto seed = static_cast<std::uint64_t>(100 + i);
      if (comm.rank() == i % 2) {
        pattern_fill(buf, seed);
        comm.send(buf.data(), kN, 1 - comm.rank(), 7);
      } else {
        comm.recv(buf.data(), kN, 1 - comm.rank(), 7);
        ASSERT_EQ(pattern_check(buf, seed), kPatternOk) << "leg " << i;
      }
    }
    comm.barrier();
    if (comm.rank() == 0) {
      DeviceStats st = stats(comm);
      EXPECT_EQ(st.bytes_copied, kLegs * kN);
      EXPECT_GT(st.sender_copied_bytes, 0u);
      EXPECT_LT(st.sender_copied_bytes, st.bytes_copied);
    }
  });
}

TEST(KnemShareProcs, ArenaAndHeapReceivesLandByteForByte) {
  // Arena-resident receive: published as an arena offset, so the sender
  // process writes its chunks in place. Heap receive: another process's
  // private memory the sender cannot address, so the receiver pulls every
  // chunk over CMA. Without CMA the heap message takes the copy ring and
  // the KNEM device never sees it.
  constexpr std::size_t kN = 4 * MiB + 13;
  bool ok = run(knem_config(LaunchMode::kProcesses), [&](Comm& comm) {
    const bool cma = comm.world().cma_ok();
    std::byte* shared = comm.shared_alloc(kN);
    std::vector<std::byte> heap(kN);
    for (int round = 0; round < 4; ++round) {
      auto seed = static_cast<std::uint64_t>(31 + round);
      if (comm.rank() == 0) {
        pattern_fill({shared, kN}, seed);
        comm.send(shared, kN, 1, 8);
        pattern_fill(heap, seed + 100);
        comm.send(heap.data(), kN, 1, 9);
      } else {
        std::fill_n(shared, kN, std::byte{0});
        comm.recv(shared, kN, 0, 8);
        if (pattern_check({shared, kN}, seed) != kPatternOk) std::_Exit(40);
        std::uint64_t helped = stats(comm).sender_copied_bytes;
        comm.recv(heap.data(), kN, 0, 9);
        if (pattern_check(heap, seed + 100) != kPatternOk) std::_Exit(41);
        if (stats(comm).sender_copied_bytes != helped) std::_Exit(43);
      }
    }
    comm.barrier();
    DeviceStats st = stats(comm);
    if (st.bytes_copied != (cma ? 8u : 4u) * kN) std::_Exit(42);
  });
  EXPECT_TRUE(ok);
}

// --- Device level -----------------------------------------------------------

TEST(KnemShareChunk, QuartersUpTo1MiBThen256KiB) {
  // Golden cuts: a change to the chunk rule shows up here.
  struct Cut {
    std::uint64_t total, chunk, n;
  };
  const Cut cuts[] = {{16 * KiB, 4 * KiB, 4},
                      {64 * KiB, 16 * KiB, 4},
                      {100000, 25024, 4},  // Rounded up to a cache line.
                      {1 * MiB + 13, 256 * KiB, 5},
                      {4 * MiB, 256 * KiB, 16}};
  for (const Cut& c : cuts) {
    std::uint64_t chunk = knem::share_chunk(c.total);
    EXPECT_EQ(chunk, c.chunk) << c.total << " B";
    EXPECT_EQ((c.total + chunk - 1) / chunk, c.n) << c.total << " B";
  }
}

struct ShareFixture : ::testing::Test {
  ShareFixture()
      : arena(shm::Arena::create_anonymous(16 * MiB)),
        dev(arena, knem::Device::create(arena, /*nranks=*/1, 8, 4), /*rank=*/0,
            ::getpid()) {}
  shm::Arena arena;
  knem::Device dev;
};

TEST_F(ShareFixture, SelfShareSenderCopiesEveryPublishedChunk) {
  // Sender and receiver are one rank: the sender's progress runs first and
  // claims every chunk the receive published.
  constexpr std::size_t kN = 1 * MiB + 13;
  std::vector<std::byte> src(kN), dst(kN);
  pattern_fill(src, 3);
  std::uint64_t cookie = dev.submit_send(ConstSegmentList{{src.data(), kN}});
  SegmentList local{{dst.data(), kN}};
  knem::ShareRecv rx;
  ASSERT_EQ(dev.recv_share_start(cookie, local, /*share=*/true, rx),
            knem::KnemResult::kOk);
  EXPECT_TRUE(dev.send_share_progress(cookie, ConstSegmentList{{src.data(), kN}}));
  EXPECT_TRUE(dev.recv_share_progress(rx, local));
  EXPECT_EQ(pattern_check(dst, 3), kPatternOk);
  EXPECT_EQ(dev.stats().sender_copied_bytes, kN);
  EXPECT_EQ(dev.stats().bytes_copied, kN);
  dev.release(cookie);
  EXPECT_EQ(dev.slots_in_use(), 0u);
}

TEST_F(ShareFixture, SmallPayloadIsNotPublished) {
  // Below 16 KiB the receiver keeps every chunk: the sender sees nothing
  // published.
  std::vector<std::byte> src(12 * KiB), dst(12 * KiB);
  pattern_fill(src, 4);
  ConstSegmentList segs{{src.data(), src.size()}};
  std::uint64_t cookie = dev.submit_send(segs);
  SegmentList local{{dst.data(), dst.size()}};
  knem::ShareRecv rx;
  ASSERT_EQ(dev.recv_share_start(cookie, local, /*share=*/true, rx),
            knem::KnemResult::kOk);
  EXPECT_FALSE(dev.send_share_progress(cookie, segs));
  EXPECT_TRUE(dev.recv_share_progress(rx, local));
  EXPECT_EQ(pattern_check(dst, 4), kPatternOk);
  EXPECT_EQ(dev.stats().sender_copied_bytes, 0u);
  dev.release(cookie);
}

TEST_F(ShareFixture, AbandonClosesTheClaimWord) {
  // A receive dropped before it copied anything leaves the sender nothing
  // to claim, and its buffer untouched.
  constexpr std::size_t kN = 256 * KiB;
  std::vector<std::byte> src(kN), dst(kN, std::byte{0});
  pattern_fill(src, 5);
  ConstSegmentList segs{{src.data(), kN}};
  std::uint64_t cookie = dev.submit_send(segs);
  SegmentList local{{dst.data(), kN}};
  {
    knem::ShareRecv rx;
    ASSERT_EQ(dev.recv_share_start(cookie, local, /*share=*/true, rx),
              knem::KnemResult::kOk);
  }  // Abandoned here.
  EXPECT_TRUE(dev.send_share_progress(cookie, segs));
  EXPECT_EQ(dev.stats().sender_copied_bytes, 0u);
  EXPECT_EQ(dev.stats().bytes_copied, 0u);
  for (std::byte b : dst) ASSERT_EQ(b, std::byte{0});
  dev.release(cookie);
}

}  // namespace
}  // namespace nemo::core
