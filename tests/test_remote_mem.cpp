// Remote-memory ports: direct and CMA modes, scatter/gather, non-temporal
// destination writes, and true cross-process CMA through fork.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

#include "common/checksum.hpp"
#include "shm/arena.hpp"
#include "shm/remote_mem.hpp"

namespace nemo::shm {
namespace {

RemoteSegmentList rsegs(const void* p, std::size_t n) {
  return {{reinterpret_cast<std::uint64_t>(p), n}};
}

TEST(RemoteMem, DirectReadContiguous) {
  std::vector<std::byte> src(5000), dst(5000);
  pattern_fill(src, 1);
  RemoteMemPort port(RemoteMode::kDirect, ::getpid());
  EXPECT_EQ(port.read(rsegs(src.data(), 5000), SegmentList{{dst.data(), 5000}}),
            5000u);
  EXPECT_EQ(pattern_check(dst, 1), kPatternOk);
}

TEST(RemoteMem, DirectReadScatterGatherMismatchedSegments) {
  std::vector<std::byte> src(6000), dst(6000);
  pattern_fill(src, 2);
  RemoteSegmentList remote{
      {reinterpret_cast<std::uint64_t>(src.data()), 1000},
      {reinterpret_cast<std::uint64_t>(src.data() + 1000), 2000},
      {reinterpret_cast<std::uint64_t>(src.data() + 3000), 3000}};
  SegmentList local{{dst.data(), 2500}, {dst.data() + 2500, 3500}};
  RemoteMemPort port(RemoteMode::kDirect, ::getpid());
  EXPECT_EQ(port.read(remote, local), 6000u);
  EXPECT_EQ(pattern_check(dst, 2), kPatternOk);
}

TEST(RemoteMem, DirectNonTemporalRead) {
  std::vector<std::byte> src(1 * MiB), dst(1 * MiB);
  pattern_fill(src, 3);
  RemoteMemPort port(RemoteMode::kDirect, ::getpid());
  port.read(rsegs(src.data(), src.size()),
            SegmentList{{dst.data(), dst.size()}}, /*non_temporal=*/true);
  EXPECT_EQ(pattern_check(dst, 3), kPatternOk);
}

TEST(RemoteMem, DirectWrite) {
  std::vector<std::byte> src(4000), dst(4000);
  pattern_fill(src, 4);
  RemoteMemPort port(RemoteMode::kDirect, ::getpid());
  ConstSegmentList local{{src.data(), 4000}};
  EXPECT_EQ(port.write(rsegs(dst.data(), 4000), local), 4000u);
  EXPECT_EQ(pattern_check(dst, 4), kPatternOk);
}

TEST(RemoteMem, CmaAvailableHere) { EXPECT_TRUE(cma_available()); }

TEST(RemoteMem, CmaProbeAgreesWithAChildReadingItsParent) {
  // The probe answers for forked ranks, which read each other's heaps: a
  // read of our own pid would pass under Yama ptrace_scope=1, which refuses
  // a child's read of its parent.
  std::vector<std::byte> src(64 * KiB), dst(64 * KiB);
  pattern_fill(src, 6);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    RemoteMemPort port(RemoteMode::kCma, parent);
    try {
      port.read(rsegs(src.data(), src.size()),
                SegmentList{{dst.data(), dst.size()}});
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(pattern_check(dst, 6) == kPatternOk ? 0 : 2);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  const bool child_read = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  EXPECT_EQ(cma_available(), child_read);
}

TEST(RemoteMem, CmaSelfRead) {
  if (!cma_available()) GTEST_SKIP();
  std::vector<std::byte> src(100 * KiB), dst(100 * KiB);
  pattern_fill(src, 5);
  RemoteMemPort port(RemoteMode::kCma, ::getpid());
  EXPECT_EQ(port.read(rsegs(src.data(), src.size()),
                      SegmentList{{dst.data(), dst.size()}}),
            src.size());
  EXPECT_EQ(pattern_check(dst, 5), kPatternOk);
}

TEST(RemoteMem, CmaManySegmentsBatched) {
  if (!cma_available()) GTEST_SKIP();
  // More than one iovec batch (kIovMax = 64).
  constexpr int kSegs = 200;
  constexpr std::size_t kSegLen = 1000;
  std::vector<std::byte> src(kSegs * kSegLen), dst(kSegs * kSegLen);
  pattern_fill(src, 6);
  RemoteSegmentList remote;
  for (int i = 0; i < kSegs; ++i)
    remote.push_back({reinterpret_cast<std::uint64_t>(
                          src.data() + static_cast<std::size_t>(i) * kSegLen),
                      kSegLen});
  RemoteMemPort port(RemoteMode::kCma, ::getpid());
  EXPECT_EQ(port.read(remote, SegmentList{{dst.data(), dst.size()}}),
            dst.size());
  EXPECT_EQ(pattern_check(dst, 6), kPatternOk);
}

TEST(RemoteMem, CmaSelfWriteManySegments) {
  if (!cma_available()) GTEST_SKIP();
  constexpr int kSegs = 150;  // Three iovec batches.
  constexpr std::size_t kSegLen = 700;
  std::vector<std::byte> src(kSegs * kSegLen), dst(kSegs * kSegLen);
  pattern_fill(src, 8);
  ConstSegmentList local;
  for (int i = 0; i < kSegs; ++i)
    local.push_back({src.data() + static_cast<std::size_t>(i) * kSegLen,
                     kSegLen});
  RemoteMemPort port(RemoteMode::kCma, ::getpid());
  EXPECT_EQ(port.write(rsegs(dst.data(), dst.size()), local), dst.size());
  EXPECT_EQ(pattern_check(dst, 8), kPatternOk);
}

TEST(RemoteMem, ReadRangeMatchesTheWholeReadPieceByPiece) {
  // Odd-sized segments on both sides; every range starts and ends inside
  // segments, and ranges past the end come back short.
  std::vector<std::byte> src(10000), dst(10000);
  pattern_fill(src, 9);
  RemoteSegmentList remote;
  for (std::size_t off = 0, len = 333; off < src.size(); off += len)
    remote.push_back({reinterpret_cast<std::uint64_t>(src.data() + off),
                      std::min(len, src.size() - off)});
  SegmentList local;
  for (std::size_t off = 0, len = 1021; off < dst.size(); off += len)
    local.push_back({dst.data() + off, std::min(len, dst.size() - off)});
  std::vector<RemoteMode> modes{RemoteMode::kDirect};
  if (cma_available()) modes.push_back(RemoteMode::kCma);
  for (RemoteMode mode : modes) {
    std::fill(dst.begin(), dst.end(), std::byte{0});
    RemoteMemPort port(mode, ::getpid());
    for (std::size_t off = 0; off < src.size(); off += 1500)
      EXPECT_EQ(port.read_range(remote, local, off, 1500),
                std::min<std::size_t>(1500, src.size() - off));
    EXPECT_EQ(pattern_check(dst, 9), kPatternOk) << to_string(mode);
    EXPECT_EQ(port.read_range(remote, local, src.size(), 10), 0u);
  }
}

TEST(RemoteMem, CmaCrossProcessRead) {
  if (!cma_available()) GTEST_SKIP();
  // The child fills a *private* buffer and publishes its address through
  // shared memory; the parent reads it via CMA — the KNEM single-copy path.
  Arena arena = Arena::create_anonymous(64 * KiB);
  std::uint64_t addr_off = arena.alloc(8);
  std::uint64_t flag_off = arena.alloc(8);
  auto* addr_word = arena.at_as<std::uint64_t>(addr_off);
  auto* flag = arena.at_as<std::uint64_t>(flag_off);
  *addr_word = 0;
  *flag = 0;

  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::vector<std::byte> private_buf(200 * KiB);
    pattern_fill(private_buf, 7);
    aref(*addr_word).store(
        reinterpret_cast<std::uint64_t>(private_buf.data()),
        std::memory_order_release);
    // Wait until the parent signals it has read the buffer.
    while (aref(*flag).load(std::memory_order_acquire) == 0) {
    }
    ::_exit(0);
  }
  while (aref(*addr_word).load(std::memory_order_acquire) == 0) {
  }
  std::vector<std::byte> dst(200 * KiB);
  RemoteMemPort port(RemoteMode::kCma, pid);
  RemoteSegmentList remote{
      {aref(*addr_word).load(std::memory_order_acquire), dst.size()}};
  EXPECT_EQ(port.read(remote, SegmentList{{dst.data(), dst.size()}}),
            dst.size());
  EXPECT_EQ(pattern_check(dst, 7), kPatternOk);
  aref(*flag).store(1, std::memory_order_release);
  int status = 0;
  ::waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

TEST(RemoteMem, ModeNames) {
  EXPECT_STREQ(to_string(RemoteMode::kDirect), "direct");
  EXPECT_STREQ(to_string(RemoteMode::kCma), "cma");
}

}  // namespace
}  // namespace nemo::shm
