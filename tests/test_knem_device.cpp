// KNEM pseudo-device: cookie lifecycle, vectorial buffers with extension
// blocks, sync/async/DMA receive commands, error results, pinning stats,
// per-slot cookie generations and per-rank stats lines.
#include <gtest/gtest.h>

#include <unistd.h>

#include <vector>

#include "common/checksum.hpp"
#include "knem/knem_device.hpp"

namespace nemo::knem {
namespace {

struct KnemFixture : ::testing::Test {
  KnemFixture()
      : arena(shm::Arena::create_anonymous(16 * MiB)),
        dev_off(Device::create(arena, /*nranks=*/2, 32, 16)),
        dev(arena, dev_off, /*rank=*/0, ::getpid()) {}
  shm::Arena arena;
  std::uint64_t dev_off;
  Device dev;
};

TEST_F(KnemFixture, SendRecvSyncCopy) {
  std::vector<std::byte> src(300 * KiB), dst(300 * KiB);
  pattern_fill(src, 1);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), src.size()}});
  ASSERT_NE(cookie, 0u);
  SegmentList local{{dst.data(), dst.size()}};
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst, 1), kPatternOk);
  dev.release(cookie);
  EXPECT_EQ(dev.slots_in_use(), 0u);
}

TEST_F(KnemFixture, ResolveReportsOwnerAndSegments) {
  std::vector<std::byte> a(100), b(200);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{a.data(), 100}, {b.data(), 200}});
  auto r = dev.resolve(cookie);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pid, ::getpid());
  EXPECT_EQ(r->owner_rank, 0u);
  EXPECT_EQ(r->total, 300u);
  ASSERT_EQ(r->segs.size(), 2u);
  EXPECT_EQ(r->segs[0].addr, reinterpret_cast<std::uint64_t>(a.data()));
  EXPECT_EQ(r->segs[1].len, 200u);
  EXPECT_EQ(r->mode, shm::RemoteMode::kDirect);  // Same pid.
  dev.release(cookie);
}

TEST_F(KnemFixture, VectorialCookieSpillsIntoSegBlocks) {
  // More segments than fit inline: exercises the extension-block chain.
  constexpr std::size_t kSegs = kInlineSegs + 2 * kBlockSegs + 5;
  constexpr std::size_t kSegLen = 256;
  std::vector<std::byte> src(kSegs * kSegLen), dst(kSegs * kSegLen);
  pattern_fill(src, 2);
  ConstSegmentList segs;
  for (std::size_t i = 0; i < kSegs; ++i)
    segs.push_back({src.data() + i * kSegLen, kSegLen});
  std::uint64_t cookie = dev.submit_send(segs);
  auto r = dev.resolve(cookie);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->segs.size(), kSegs);
  SegmentList local{{dst.data(), dst.size()}};
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst, 2), kPatternOk);
  dev.release(cookie);
  // Blocks returned to the pool: a second jumbo cookie must succeed.
  std::uint64_t cookie2 = dev.submit_send(segs);
  EXPECT_NE(cookie2, 0u);
  dev.release(cookie2);
}

TEST_F(KnemFixture, BadCookieAndStaleCookieRejected) {
  std::vector<std::byte> dst(64);
  SegmentList local{{dst.data(), dst.size()}};
  EXPECT_EQ(dev.recv_sync(0, local, 0, nullptr), KnemResult::kBadCookie);
  EXPECT_EQ(dev.recv_sync(0xdeadbeef, local, 0, nullptr),
            KnemResult::kBadCookie);
  std::vector<std::byte> src(64);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), 64}});
  dev.release(cookie);
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kBadCookie);
}

TEST_F(KnemFixture, TruncatedReceiveRejected) {
  std::vector<std::byte> src(1000), dst(999);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), src.size()}});
  SegmentList local{{dst.data(), dst.size()}};
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kTruncated);
  dev.release(cookie);
}

TEST_F(KnemFixture, RecvSyncWithDmaEngine) {
  shm::DmaEngine engine;
  std::vector<std::byte> src(2 * MiB), dst(2 * MiB);
  pattern_fill(src, 3);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), src.size()}});
  SegmentList local{{dst.data(), dst.size()}};
  EXPECT_EQ(dev.recv_sync(cookie, local, kFlagDma, &engine), KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst, 3), kPatternOk);
  dev.release(cookie);
  EXPECT_GE(dev.stats().dma_recv_cmds, 1u);
}

TEST_F(KnemFixture, RecvAsyncStatusByte) {
  shm::DmaEngine engine;
  std::vector<std::byte> src(1 * MiB), dst(1 * MiB);
  pattern_fill(src, 4);
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), src.size()}});
  std::uint8_t status = 0;
  EXPECT_EQ(dev.recv_async(cookie, {{dst.data(), dst.size()}},
                           kFlagDma | kFlagAsync, engine, &status),
            KnemResult::kOk);
  while (shm::aref(status).load(std::memory_order_acquire) !=
         static_cast<std::uint8_t>(shm::DmaStatus::kSuccess)) {
  }
  EXPECT_EQ(pattern_check(dst, 4), kPatternOk);
  dev.release(cookie);
  EXPECT_GE(dev.stats().async_recv_cmds, 1u);
}

TEST_F(KnemFixture, ScatterRecvIntoMultipleSegments) {
  std::vector<std::byte> src(10000), dst(10000);
  pattern_fill(src, 5);
  std::uint64_t cookie = dev.submit_send(
      ConstSegmentList{{src.data(), 4000}, {src.data() + 4000, 6000}});
  SegmentList local{{dst.data(), 1000},
                    {dst.data() + 1000, 8000},
                    {dst.data() + 9000, 1000}};
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst, 5), kPatternOk);
  dev.release(cookie);
}

TEST_F(KnemFixture, PinningAccounted) {
  std::vector<std::byte> src(1 * MiB);
  auto before = dev.stats().pages_pinned;
  std::uint64_t cookie =
      dev.submit_send(ConstSegmentList{{src.data(), src.size()}});
  auto after = dev.stats().pages_pinned;
  // 1 MiB touches 256 or 257 pages depending on alignment.
  EXPECT_GE(after - before, 256u);
  EXPECT_LE(after - before, 257u);
  dev.release(cookie);
}

TEST_F(KnemFixture, ZeroLengthSegmentsSkipped) {
  std::vector<std::byte> src(100), dst(100);
  pattern_fill(src, 6);
  std::uint64_t cookie = dev.submit_send(ConstSegmentList{
      {src.data(), 0}, {src.data(), 50}, {src.data() + 50, 0},
      {src.data() + 50, 50}});
  auto r = dev.resolve(cookie);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->segs.size(), 2u);
  EXPECT_EQ(r->total, 100u);
  SegmentList local{{dst.data(), 100}};
  EXPECT_EQ(dev.recv_sync(cookie, local, 0, nullptr), KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst, 6), kPatternOk);
  dev.release(cookie);
}

TEST_F(KnemFixture, ManyConcurrentCookies) {
  std::vector<std::vector<std::byte>> bufs;
  std::vector<std::uint64_t> cookies;
  for (int i = 0; i < 32; ++i) {
    bufs.emplace_back(1024);
    pattern_fill(bufs.back(), static_cast<std::uint64_t>(i));
    cookies.push_back(
        dev.submit_send(ConstSegmentList{{bufs.back().data(), 1024}}));
  }
  EXPECT_EQ(dev.slots_in_use(), 32u);
  // Receive them out of order.
  for (int i = 31; i >= 0; --i) {
    std::vector<std::byte> dst(1024);
    SegmentList local{{dst.data(), 1024}};
    ASSERT_EQ(dev.recv_sync(cookies[static_cast<std::size_t>(i)], local, 0,
                            nullptr),
              KnemResult::kOk);
    EXPECT_EQ(pattern_check(dst, static_cast<std::uint64_t>(i)), kPatternOk);
    dev.release(cookies[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(dev.slots_in_use(), 0u);
}

TEST_F(KnemFixture, ReleaseStaleCountsLeak) {
  auto before = dev.stats().cookie_leaks;
  dev.release(0x12345);
  EXPECT_EQ(dev.stats().cookie_leaks, before + 1);
}

TEST_F(KnemFixture, ReclaimedSlotRejectsTheOldId) {
  // The slot's own generation, bumped on each claim, is all that tells the
  // two ids apart.
  std::vector<std::byte> src(256), dst(256);
  pattern_fill(src, 7);
  ConstSegmentList segs{{src.data(), src.size()}};
  std::uint64_t stale = dev.submit_send(segs);
  dev.release(stale);
  std::uint64_t fresh = dev.submit_send(segs);
  ASSERT_EQ(fresh & 0xfffff, stale & 0xfffff);  // Same slot, re-claimed.
  ASSERT_NE(fresh, stale);

  auto leaks = dev.stats().cookie_leaks;
  dev.release(stale);
  EXPECT_EQ(dev.stats().cookie_leaks, leaks + 1);
  EXPECT_EQ(dev.slots_in_use(), 1u);
  SegmentList local{{dst.data(), dst.size()}};
  EXPECT_EQ(dev.recv_sync(stale, local, 0, nullptr), KnemResult::kBadCookie);
  EXPECT_EQ(dev.recv_sync(fresh, local, 0, nullptr), KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst, 7), kPatternOk);
  dev.release(fresh);
  EXPECT_EQ(dev.slots_in_use(), 0u);
}

TEST_F(KnemFixture, TwoRankViewsWriteOwnLinesAndSumOnRead) {
  // Rank 0 (the fixture's view) and rank 1 each send one buffer and
  // receive the other's.
  Device dev1(arena, dev_off, /*rank=*/1, ::getpid());
  std::vector<std::byte> src0(3000), src1(5000), dst0(5000), dst1(3000);
  pattern_fill(src0, 8);
  pattern_fill(src1, 9);
  std::uint64_t c0 = dev.submit_send(ConstSegmentList{{src0.data(), 3000}});
  std::uint64_t c1 = dev1.submit_send(ConstSegmentList{{src1.data(), 5000}});
  EXPECT_NE(c0 & 0xfffff, c1 & 0xfffff);  // The scans start apart.
  ASSERT_EQ(dev1.recv_sync(c0, SegmentList{{dst1.data(), 3000}}, 0, nullptr),
            KnemResult::kOk);
  ASSERT_EQ(dev.recv_sync(c1, SegmentList{{dst0.data(), 5000}}, 0, nullptr),
            KnemResult::kOk);
  EXPECT_EQ(pattern_check(dst1, 8), kPatternOk);
  EXPECT_EQ(pattern_check(dst0, 9), kPatternOk);
  dev.release(c0);
  dev1.release(c1);

  const auto* st = arena.at_as<DeviceState>(dev_off);
  const auto* lines = arena.at_as<DeviceStats>(st->stats_off);
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(lines[r].send_cmds, 1u) << "rank " << r;
    EXPECT_EQ(lines[r].recv_cmds, 1u) << "rank " << r;
  }
  EXPECT_EQ(lines[0].bytes_copied, 5000u);
  EXPECT_EQ(lines[1].bytes_copied, 3000u);
  for (const Device* view : {&dev, &dev1}) {
    DeviceStats sum = view->stats();
    EXPECT_EQ(sum.send_cmds, 2u);
    EXPECT_EQ(sum.recv_cmds, 2u);
    EXPECT_EQ(sum.bytes_copied, 8000u);
    EXPECT_EQ(sum.pages_pinned,
              lines[0].pages_pinned + lines[1].pages_pinned);
    EXPECT_EQ(sum.cookie_leaks, 0u);
  }
  EXPECT_EQ(dev.slots_in_use(), 0u);
}

}  // namespace
}  // namespace nemo::knem
