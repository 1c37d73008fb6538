// Property sweeps and soak tests over the full stack: every backend must
// deliver byte-exact payloads for arbitrary (size, fragmentation, traffic
// pattern) combinations, and the engine must stay deadlock-free under
// randomized bidirectional load.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"

namespace nemo::core {
namespace {

// --- Property: delivery is byte-exact for size x fragmentation x backend ---

using XferCase = std::tuple<lmt::LmtKind, std::size_t /*bytes*/,
                            std::size_t /*send frags*/,
                            std::size_t /*recv frags*/>;

class FragmentedTransfer : public ::testing::TestWithParam<XferCase> {};

SegmentList fragment(std::byte* base, std::size_t total, std::size_t frags) {
  SegmentList out;
  std::size_t off = 0;
  for (std::size_t i = 0; i < frags; ++i) {
    // Uneven pieces, including a zero-length one in the middle.
    std::size_t len = (i + 1 == frags)
                          ? total - off
                          : (total / frags) + (i % 3 == 0 ? 7 : 0);
    if (off + len > total) len = total - off;
    if (i == frags / 2) out.push_back({base + off, 0});
    out.push_back({base + off, len});
    off += len;
  }
  return out;
}

TEST_P(FragmentedTransfer, ByteExactAcrossSegmentGeometries) {
  auto [kind, bytes, sfrags, rfrags] = GetParam();
  Config cfg;
  cfg.nranks = 2;
  cfg.lmt = kind;
  cfg.knem_mode = lmt::KnemMode::kAuto;
  run(cfg, [&](Comm& comm) {
    std::vector<std::byte> mem(bytes);
    if (comm.rank() == 0) {
      pattern_fill(mem, bytes * 31);
      SegmentList segs = fragment(mem.data(), bytes, sfrags);
      comm.wait(comm.isendv(nemo::as_const(segs), 1, 3));
    } else {
      SegmentList segs = fragment(mem.data(), bytes, rfrags);
      comm.wait(comm.irecvv(std::move(segs), 0, 3));
      EXPECT_EQ(pattern_check(mem, bytes * 31), kPatternOk);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FragmentedTransfer,
    ::testing::Combine(
        ::testing::Values(lmt::LmtKind::kDefaultShm, lmt::LmtKind::kVmsplice,
                          lmt::LmtKind::kKnem),
        ::testing::Values(std::size_t{100 * KiB}, std::size_t{1 * MiB + 11}),
        ::testing::Values(std::size_t{1}, std::size_t{5}, std::size_t{23}),
        ::testing::Values(std::size_t{1}, std::size_t{8})),
    [](const auto& info) {
      std::string s = lmt::to_string(std::get<0>(info.param));
      for (auto& c : s)
        if (c == '-') c = '_';
      return s + "_" + std::to_string(std::get<1>(info.param)) + "b_s" +
             std::to_string(std::get<2>(info.param)) + "_r" +
             std::to_string(std::get<3>(info.param));
    });

// --- Soak: randomized bidirectional traffic, all sizes interleaved ---------

class TrafficSoak : public ::testing::TestWithParam<lmt::LmtKind> {};

TEST_P(TrafficSoak, RandomizedBidirectionalMix) {
  Config cfg;
  cfg.nranks = 2;
  cfg.lmt = GetParam();
  cfg.knem_mode = lmt::KnemMode::kAuto;
  cfg.env = {{"NEMO_FASTBOX_SLOTS", "1"}};  // Keep ring pressure on.
  run(cfg, [&](Comm& comm) {
    // Same deterministic size stream on both ranks.
    SplitMix64 sizes(2026);
    constexpr int kMsgs = 60;
    int peer = 1 - comm.rank();
    std::vector<Request> reqs;
    std::vector<std::vector<std::byte>> keep;
    for (int i = 0; i < kMsgs; ++i) {
      std::size_t sz = 1 + sizes.next_below(700 * KiB);
      keep.emplace_back(sz);
      pattern_fill(keep.back(), static_cast<std::uint64_t>(i) * 2 +
                                    static_cast<std::uint64_t>(comm.rank()));
      reqs.push_back(comm.isend(keep.back().data(), sz, peer, i));
      keep.emplace_back(sz);
      reqs.push_back(comm.irecv(keep.back().data(), sz, peer, i));
      // Occasionally drain to bound in-flight state.
      if (i % 8 == 7) {
        comm.waitall(reqs);
        // Verify the received half of the last batch.
        for (std::size_t k = 1; k < keep.size(); k += 2) {
          auto msg = (k - 1) / 2;
          EXPECT_EQ(pattern_check(keep[k],
                                  static_cast<std::uint64_t>(msg) * 2 +
                                      static_cast<std::uint64_t>(peer)),
                    kPatternOk)
              << "msg " << msg;
        }
        // Keep buffers alive until verified, then recycle.
        reqs.clear();
        // (sizes stream continues; keep grows per batch)
      }
    }
    comm.waitall(reqs);
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, TrafficSoak,
                         ::testing::Values(lmt::LmtKind::kDefaultShm,
                                           lmt::LmtKind::kKnem,
                                           lmt::LmtKind::kAuto),
                         [](const auto& info) {
                           std::string s = lmt::to_string(info.param);
                           for (auto& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

// --- Many-to-one and one-to-many fan patterns -------------------------------

TEST(FanPatterns, ManyToOneLargeMessages) {
  Config cfg;
  cfg.nranks = 5;
  cfg.lmt = lmt::LmtKind::kKnem;
  run(cfg, [&](Comm& comm) {
    constexpr std::size_t kN = 256 * KiB;
    if (comm.rank() == 0) {
      // Wildcard-source receives from every peer, arbitrary arrival order.
      std::vector<std::vector<std::byte>> bufs;
      for (int i = 1; i < comm.size(); ++i) {
        bufs.emplace_back(kN);
        RecvInfo info;
        comm.recv(bufs.back().data(), kN, kAnySource, 9, &info);
        EXPECT_EQ(pattern_check(bufs.back(),
                                static_cast<std::uint64_t>(info.src)),
                  kPatternOk);
      }
    } else {
      std::vector<std::byte> buf(kN);
      pattern_fill(buf, static_cast<std::uint64_t>(comm.rank()));
      comm.send(buf.data(), kN, 0, 9);
    }
  });
}

TEST(FanPatterns, OneToManyDistinctPayloads) {
  Config cfg;
  cfg.nranks = 5;
  cfg.lmt = lmt::LmtKind::kDefaultShm;
  run(cfg, [&](Comm& comm) {
    constexpr std::size_t kN = 200 * KiB;
    if (comm.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (int dst = 1; dst < comm.size(); ++dst) {
        bufs.emplace_back(kN);
        pattern_fill(bufs.back(), 50u + static_cast<std::uint64_t>(dst));
        reqs.push_back(comm.isend(bufs.back().data(), kN, dst, 4));
      }
      comm.waitall(reqs);
    } else {
      std::vector<std::byte> buf(kN);
      comm.recv(buf.data(), kN, 0, 4);
      EXPECT_EQ(
          pattern_check(buf, 50u + static_cast<std::uint64_t>(comm.rank())),
          kPatternOk);
    }
  });
}

// --- Mixed backends in one world --------------------------------------------

TEST(MixedTraffic, CollectivesInterleavedWithPt2pt) {
  Config cfg;
  cfg.nranks = 4;
  cfg.lmt = lmt::LmtKind::kAuto;
  cfg.knem_mode = lmt::KnemMode::kAuto;
  run(cfg, [&](Comm& comm) {
    int n = comm.size();
    constexpr std::size_t kN = 128 * KiB;
    std::vector<std::byte> ring_out(kN), ring_in(kN);
    for (int round = 0; round < 5; ++round) {
      // Pt2pt ring with outstanding requests...
      pattern_fill(ring_out, static_cast<std::uint64_t>(
                                 comm.rank() * 10 + round));
      Request s =
          comm.isend(ring_out.data(), kN, (comm.rank() + 1) % n, round);
      Request r =
          comm.irecv(ring_in.data(), kN, (comm.rank() + n - 1) % n, round);
      // ...while a collective runs in between (separate match context).
      std::int64_t one = 1, sum = 0;
      comm.allreduce_i64(&one, &sum, 1, Comm::ReduceOp::kSum);
      EXPECT_EQ(sum, n);
      comm.wait(s);
      comm.wait(r);
      EXPECT_EQ(
          pattern_check(ring_in, static_cast<std::uint64_t>(
                                     ((comm.rank() + n - 1) % n) * 10 +
                                     round)),
          kPatternOk);
    }
  });
}

}  // namespace
}  // namespace nemo::core
