// Backend-level behaviours beyond plain delivery: rendezvous protocol shape
// (CTS/FIN requirements), cookie release on FIN, per-pair serialization,
// noncontiguous rendezvous on every backend, engine statistics.
#include <gtest/gtest.h>

#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "lmt/backends.hpp"

namespace nemo::core {
namespace {

Config cfg_with(lmt::LmtKind kind, lmt::KnemMode mode = lmt::KnemMode::kSyncCopy) {
  Config cfg;
  cfg.nranks = 2;
  cfg.lmt = kind;
  cfg.knem_mode = mode;
  return cfg;
}

TEST(LmtProtocol, BackendHandshakeRequirements) {
  run(cfg_with(lmt::LmtKind::kKnem), [&](Comm& comm) {
    Engine& eng = comm.engine();
    // Protocol shape documented in §3: ring and pipe backends gate the data
    // phase on CTS; single-copy backends release resources on FIN.
    struct Expect {
      lmt::LmtKind kind;
      bool cts, fin;
    };
    for (auto [kind, cts, fin] :
         {Expect{lmt::LmtKind::kDefaultShm, true, false},
          Expect{lmt::LmtKind::kVmsplice, true, true},
          Expect{lmt::LmtKind::kVmspliceWritev, true, false},
          Expect{lmt::LmtKind::kKnem, false, true}}) {
      auto backend = lmt::make_backend(kind, eng);
      EXPECT_EQ(backend->needs_cts(), cts) << to_string(kind);
      EXPECT_EQ(backend->needs_fin(), fin) << to_string(kind);
    }
  });
}

TEST(LmtProtocol, KnemCookiesReleasedAfterTraffic) {
  run(cfg_with(lmt::LmtKind::kKnem), [&](Comm& comm) {
    constexpr std::size_t kN = 256 * KiB;
    std::vector<std::byte> buf(kN);
    for (int i = 0; i < 20; ++i) {
      if (comm.rank() == 0) {
        pattern_fill(buf, static_cast<std::uint64_t>(i));
        comm.send(buf.data(), kN, 1, i);
      } else {
        comm.recv(buf.data(), kN, 0, i);
      }
    }
    comm.barrier();
    // Every cookie was released by FIN: the shared table must be empty.
    EXPECT_EQ(comm.engine().knem_device().slots_in_use(), 0u);
    auto st = comm.engine().knem_device().stats();
    if (comm.rank() == 0) {
      EXPECT_GE(st.send_cmds, 20u);
      EXPECT_GE(st.recv_cmds, 20u);
      EXPECT_EQ(st.bytes_copied, 20u * kN);
    }
  });
}

TEST(LmtProtocol, StatsClassifyEagerVsRndv) {
  run(cfg_with(lmt::LmtKind::kKnem), [&](Comm& comm) {
    std::vector<std::byte> small(1 * KiB), big(1 * MiB);
    if (comm.rank() == 0) {
      comm.send(small.data(), small.size(), 1, 1);
      comm.send(big.data(), big.size(), 1, 2);
      EXPECT_EQ(comm.engine().stats().eager_msgs_sent, 1u);
      EXPECT_EQ(comm.engine().stats().rndv_sent, 1u);
      EXPECT_EQ(comm.engine().stats().rndv_by_kind[static_cast<std::size_t>(
                    lmt::LmtKind::kKnem)],
                1u);
    } else {
      comm.recv(small.data(), small.size(), 0, 1);
      comm.recv(big.data(), big.size(), 0, 2);
      EXPECT_EQ(comm.engine().stats().bytes_recv, small.size() + big.size());
    }
  });
}

class NoncontigRndv : public ::testing::TestWithParam<lmt::LmtKind> {};

TEST_P(NoncontigRndv, StridedBothSides) {
  run(cfg_with(GetParam()), [&](Comm& comm) {
    // 96 blocks of 4 KiB at 12 KiB stride: 384 KiB payload, segment list
    // longer than KNEM's inline capacity on both sides.
    const Datatype dt = Datatype::vector(96, 4 * KiB, 12 * KiB);
    std::vector<std::byte> mem(dt.extent());
    if (comm.rank() == 0) {
      std::vector<std::byte> packed(dt.size());
      pattern_fill(packed, 11);
      dt.unpack(packed.data(), 1, mem.data());
      comm.send_typed(mem.data(), dt, 1, 1, 0);
    } else {
      comm.recv_typed(mem.data(), dt, 1, 0, 0);
      std::vector<std::byte> packed(dt.size());
      dt.pack(mem.data(), 1, packed.data());
      EXPECT_EQ(pattern_check(packed, 11), kPatternOk);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllKinds, NoncontigRndv,
                         ::testing::Values(lmt::LmtKind::kDefaultShm,
                                           lmt::LmtKind::kVmsplice,
                                           lmt::LmtKind::kVmspliceWritev,
                                           lmt::LmtKind::kKnem),
                         [](const auto& info) {
                           std::string s = lmt::to_string(info.param);
                           for (auto& c : s)
                             if (c == '-') c = '_';
                           return s;
                         });

TEST(LmtProtocol, InterleavedRndvBothDirectionsSamePair) {
  // Stress the per-pair serialization: many overlapping rendezvous in both
  // directions with the ring backend (single shared ring per direction).
  run(cfg_with(lmt::LmtKind::kDefaultShm), [&](Comm& comm) {
    constexpr int kMsgs = 8;
    constexpr std::size_t kN = 200 * KiB;
    std::vector<std::vector<std::byte>> out(kMsgs), in(kMsgs);
    std::vector<Request> reqs;
    for (int i = 0; i < kMsgs; ++i) {
      auto iz = static_cast<std::size_t>(i);
      out[iz].resize(kN);
      in[iz].resize(kN);
      pattern_fill(out[iz], static_cast<std::uint64_t>(comm.rank()) * 100 +
                                static_cast<std::uint64_t>(i));
      reqs.push_back(comm.isend(out[iz].data(), kN, 1 - comm.rank(), i));
      reqs.push_back(comm.irecv(in[iz].data(), kN, 1 - comm.rank(), i));
    }
    comm.waitall(reqs);
    for (int i = 0; i < kMsgs; ++i)
      EXPECT_EQ(
          pattern_check(in[static_cast<std::size_t>(i)],
                        static_cast<std::uint64_t>(1 - comm.rank()) * 100 +
                            static_cast<std::uint64_t>(i)),
          kPatternOk);
  });
}

TEST(LmtProtocol, ResolveKindHonoursConfigAndPolicy) {
  std::vector<std::byte> buf(1 * MiB);
  const ConstSegment seg{buf.data(), buf.size()};
  Config cfg;
  cfg.nranks = 2;
  cfg.lmt = lmt::LmtKind::kAuto;
  cfg.topo = xeon_e5345();
  cfg.core_binding = {0, 1};
  run(cfg, [&](Comm& comm) {
    // Auto + KNEM available resolves to KNEM regardless of placement.
    EXPECT_EQ(comm.engine().resolve_kind(1 - comm.rank(), {&seg, 1}),
              lmt::LmtKind::kKnem);
  });

  Config cfg2 = cfg;
  cfg2.policy.knem_available = false;
  cfg2.core_binding = {0, 7};  // No shared cache on the modelled topology.
  run(cfg2, [&](Comm& comm) {
    EXPECT_EQ(comm.engine().resolve_kind(1 - comm.rank(), {&seg, 1}),
              lmt::LmtKind::kVmsplice);
  });

  // Without cross-memory attach a threads world keeps KNEM: the receiver
  // reads the sender's heap in the shared address space.
  Config cfg3 = cfg;
  cfg3.env["NEMO_CMA"] = "off";
  run(cfg3, [&](Comm& comm) {
    EXPECT_FALSE(comm.world().cma_ok());
    EXPECT_EQ(comm.engine().resolve_kind(1 - comm.rank(), {&seg, 1}),
              lmt::LmtKind::kKnem);
  });
}

TEST(LmtProtocol, EagerThresholdBoundary) {
  Config cfg = cfg_with(lmt::LmtKind::kKnem);
  cfg.eager_threshold = 64 * KiB;
  run(cfg, [&](Comm& comm) {
    // Exactly at the threshold: eager. One past: rendezvous. Both deliver.
    for (std::size_t n : {64 * KiB, 64 * KiB + 1}) {
      std::vector<std::byte> buf(n);
      if (comm.rank() == 0) {
        pattern_fill(buf, n);
        comm.send(buf.data(), n, 1, 5);
      } else {
        comm.recv(buf.data(), n, 0, 5);
        EXPECT_EQ(pattern_check(buf, n), kPatternOk);
      }
    }
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.engine().stats().eager_msgs_sent, 1u);
      EXPECT_EQ(comm.engine().stats().rndv_sent, 1u);
    }
  });
}

}  // namespace
}  // namespace nemo::core
