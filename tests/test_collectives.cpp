// Collectives across LMT backends and rank counts, including non-power-of-two
// worlds and the large-message alltoall(v) paths Figure 7 depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"

namespace nemo::core {
namespace {

struct CollParam {
  int nranks;
  lmt::LmtKind kind;
};

class Collectives : public ::testing::TestWithParam<CollParam> {
 protected:
  Config config() const {
    Config cfg;
    cfg.nranks = GetParam().nranks;
    cfg.lmt = GetParam().kind;
    cfg.knem_mode = lmt::KnemMode::kAuto;
    cfg.shared_pool_bytes = 64 * MiB;
    return cfg;
  }
};

TEST_P(Collectives, BarrierManyTimes) {
  run(config(), [&](Comm& comm) {
    for (int i = 0; i < 50; ++i) comm.barrier();
  });
}

TEST_P(Collectives, BcastFromEveryRoot) {
  run(config(), [&](Comm& comm) {
    constexpr std::size_t kN = 200 * KiB;  // Rendezvous-sized.
    std::vector<std::byte> buf(kN);
    for (int root = 0; root < comm.size(); ++root) {
      if (comm.rank() == root) pattern_fill(buf, 100 + root);
      comm.bcast(buf.data(), kN, root);
      EXPECT_EQ(pattern_check(buf, 100 + static_cast<unsigned>(root)),
                kPatternOk)
          << "root " << root;
    }
  });
}

TEST_P(Collectives, GatherScatterInverse) {
  run(config(), [&](Comm& comm) {
    const std::size_t per = 64 * KiB + 16;
    int n = comm.size();
    std::vector<std::byte> mine(per);
    pattern_fill(mine, static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::byte> all(per * static_cast<std::size_t>(n));
    comm.gather(mine.data(), per, all.data(), 0);
    if (comm.rank() == 0) {
      for (int r = 0; r < n; ++r)
        EXPECT_EQ(
            pattern_check(std::span<const std::byte>(
                              all.data() + static_cast<std::size_t>(r) * per,
                              per),
                          static_cast<std::uint64_t>(r)),
            kPatternOk);
    }
    std::vector<std::byte> back(per);
    comm.scatter(all.data(), per, back.data(), 0);
    EXPECT_EQ(pattern_check(back, static_cast<std::uint64_t>(comm.rank())),
              kPatternOk);
  });
}

TEST_P(Collectives, AllgatherRing) {
  run(config(), [&](Comm& comm) {
    const std::size_t per = 96 * KiB;
    int n = comm.size();
    std::vector<std::byte> mine(per);
    pattern_fill(mine, 7u + static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::byte> all(per * static_cast<std::size_t>(n));
    comm.allgather(mine.data(), per, all.data());
    for (int r = 0; r < n; ++r)
      EXPECT_EQ(pattern_check(std::span<const std::byte>(
                                  all.data() + static_cast<std::size_t>(r) * per,
                                  per),
                              7u + static_cast<std::uint64_t>(r)),
                kPatternOk);
  });
}

TEST_P(Collectives, AlltoallLargeBlocks) {
  run(config(), [&](Comm& comm) {
    const std::size_t per = 128 * KiB;
    int n = comm.size();
    std::vector<std::byte> send(per * static_cast<std::size_t>(n)),
        recv(per * static_cast<std::size_t>(n));
    // Block (r -> d) filled with seed r*1000+d.
    for (int d = 0; d < n; ++d)
      pattern_fill(std::span<std::byte>(
                       send.data() + static_cast<std::size_t>(d) * per, per),
                   static_cast<std::uint64_t>(comm.rank()) * 1000 +
                       static_cast<std::uint64_t>(d));
    comm.alltoall(send.data(), per, recv.data());
    for (int s = 0; s < n; ++s)
      EXPECT_EQ(pattern_check(std::span<const std::byte>(
                                  recv.data() + static_cast<std::size_t>(s) * per,
                                  per),
                              static_cast<std::uint64_t>(s) * 1000 +
                                  static_cast<std::uint64_t>(comm.rank())),
                kPatternOk)
          << "from rank " << s;
  });
}

TEST_P(Collectives, AlltoallvUnevenIncludingZeros) {
  run(config(), [&](Comm& comm) {
    int n = comm.size();
    int me = comm.rank();
    auto nsz = static_cast<std::size_t>(n);
    // Rank r sends (r+1)*8KiB to each destination except one it skips.
    std::vector<std::size_t> scounts(nsz), sdispls(nsz), rcounts(nsz),
        rdispls(nsz);
    for (int d = 0; d < n; ++d) {
      auto dz = static_cast<std::size_t>(d);
      scounts[dz] =
          (d == (me + 1) % n && n > 1) ? 0 : (static_cast<std::size_t>(me) + 1) * 8 * KiB;
    }
    std::partial_sum(scounts.begin(), scounts.end() - 1, sdispls.begin() + 1);
    for (int s = 0; s < n; ++s) {
      auto sz = static_cast<std::size_t>(s);
      rcounts[sz] =
          (me == (s + 1) % n && n > 1) ? 0 : (static_cast<std::size_t>(s) + 1) * 8 * KiB;
    }
    std::partial_sum(rcounts.begin(), rcounts.end() - 1, rdispls.begin() + 1);

    std::vector<std::byte> send(sdispls[nsz - 1] + scounts[nsz - 1]);
    std::vector<std::byte> recv(rdispls[nsz - 1] + rcounts[nsz - 1]);
    for (int d = 0; d < n; ++d) {
      auto dz = static_cast<std::size_t>(d);
      pattern_fill(std::span<std::byte>(send.data() + sdispls[dz],
                                        scounts[dz]),
                   static_cast<std::uint64_t>(me) * 97 +
                       static_cast<std::uint64_t>(d));
    }
    comm.alltoallv(send.data(), scounts.data(), sdispls.data(), recv.data(),
                   rcounts.data(), rdispls.data());
    for (int s = 0; s < n; ++s) {
      auto sz = static_cast<std::size_t>(s);
      EXPECT_EQ(pattern_check(std::span<const std::byte>(
                                  recv.data() + rdispls[sz], rcounts[sz]),
                              static_cast<std::uint64_t>(s) * 97 +
                                  static_cast<std::uint64_t>(me)),
                kPatternOk)
          << "from " << s;
    }
  });
}

TEST_P(Collectives, ReduceAndAllreduce) {
  run(config(), [&](Comm& comm) {
    int n = comm.size();
    const std::size_t kN = 4096;
    std::vector<double> in(kN), out(kN, -1);
    for (std::size_t i = 0; i < kN; ++i)
      in[i] = static_cast<double>(comm.rank()) + static_cast<double>(i);
    comm.reduce_f64(in.data(), out.data(), kN, Comm::ReduceOp::kSum, 0);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < kN; ++i)
        EXPECT_DOUBLE_EQ(out[i], n * (n - 1) / 2.0 +
                                     static_cast<double>(n) *
                                         static_cast<double>(i));
    }
    std::vector<double> amax(kN);
    comm.allreduce_f64(in.data(), amax.data(), kN, Comm::ReduceOp::kMax);
    for (std::size_t i = 0; i < kN; ++i)
      EXPECT_DOUBLE_EQ(amax[i],
                       static_cast<double>(n - 1) + static_cast<double>(i));

    std::int64_t one = comm.rank() + 1, sum = 0;
    comm.allreduce_i64(&one, &sum, 1, Comm::ReduceOp::kSum);
    EXPECT_EQ(sum, static_cast<std::int64_t>(n) * (n + 1) / 2);
    std::int64_t mn = 0;
    comm.allreduce_i64(&one, &mn, 1, Comm::ReduceOp::kMin);
    EXPECT_EQ(mn, 1);
  });
}

INSTANTIATE_TEST_SUITE_P(
    WorldsAndKinds, Collectives,
    ::testing::Values(CollParam{2, lmt::LmtKind::kKnem},
                      CollParam{4, lmt::LmtKind::kKnem},
                      CollParam{8, lmt::LmtKind::kKnem},
                      CollParam{3, lmt::LmtKind::kKnem},
                      CollParam{5, lmt::LmtKind::kDefaultShm},
                      CollParam{4, lmt::LmtKind::kDefaultShm},
                      CollParam{4, lmt::LmtKind::kVmsplice},
                      CollParam{4, lmt::LmtKind::kAuto}),
    [](const auto& info) {
      std::string s = std::to_string(info.param.nranks) + "ranks_";
      s += lmt::to_string(info.param.kind);
      for (auto& c : s)
        if (c == '-') c = '_';
      return s;
    });

// ---------------------------------------------------------------------------
// Cross-check matrix: every op runs under NEMO_COLL forced both ways (the
// pt2pt family is the correctness oracle for the shm arena family), over
// odd / non-power-of-two rank counts and sizes straddling the slot size
// (so both the direct single-round and the chunked multi-round arena
// schedules execute).
// ---------------------------------------------------------------------------

constexpr std::size_t kTestSlot = 16 * KiB;

struct CrossParam {
  int nranks;
  coll::Mode mode;
};

class CollCross : public ::testing::TestWithParam<CrossParam> {
 protected:
  Config config() const {
    Config cfg;
    // The param IS the family under test; pin NEMO_COLL so an outer value
    // (e.g. CI's forced runs) cannot silently redirect it.
    cfg.env["NEMO_COLL"] = coll::to_string(GetParam().mode);
    cfg.nranks = GetParam().nranks;
    cfg.coll_slot_bytes = kTestSlot;  // Small slot: multi-round paths cheap.
    cfg.shared_pool_bytes = 64 * MiB;
    return cfg;
  }
  /// Below / at / just above / laps-beyond the slot (and, for alltoall at
  /// 8 ranks, many laps beyond the per-dest chunk capacity).
  static std::vector<std::size_t> sizes() {
    return {512, kTestSlot / 2, kTestSlot, 2 * kTestSlot + 192};
  }
};

// ---------------------------------------------------------------------------
// Reduction checks shared by the threads-mode and procs-mode worlds. gtest
// failures inside a forked rank never reach the runner, so in a procs-mode
// world fail() prints and aborts the rank instead (run() then reports the
// world as failed).
// ---------------------------------------------------------------------------

void fail(Comm& comm, const std::string& what) {
  if (comm.engine().world().config().mode == LaunchMode::kProcesses) {
    std::fprintf(stderr, "rank %d: %s\n", comm.rank(), what.c_str());
    std::abort();
  }
  ADD_FAILURE() << "rank " << comm.rank() << ": " << what;
}

/// Reduce to the last rank and allreduce at element counts straddling a
/// 16 KiB slot (doubles: 2048 elements per slot).
void reduce_allreduce_all_sizes(Comm& comm) {
  int n = comm.size();
  for (std::size_t kN : {31u, 2048u, 5000u}) {
    std::vector<double> in(kN), out(kN, -1);
    for (std::size_t i = 0; i < kN; ++i)
      in[i] = static_cast<double>(comm.rank()) + static_cast<double>(i);
    comm.reduce_f64(in.data(), out.data(), kN, Comm::ReduceOp::kSum, n - 1);
    if (comm.rank() == n - 1) {
      for (std::size_t i = 0; i < kN; ++i)
        if (out[i] != n * (n - 1) / 2.0 + static_cast<double>(n) *
                                              static_cast<double>(i))
          return fail(comm, "reduce n=" + std::to_string(kN) +
                                " i=" + std::to_string(i));
    }
    std::vector<double> amax(kN);
    comm.allreduce_f64(in.data(), amax.data(), kN, Comm::ReduceOp::kMax);
    for (std::size_t i = 0; i < kN; ++i)
      if (amax[i] != static_cast<double>(n - 1) + static_cast<double>(i))
        return fail(comm, "allreduce n=" + std::to_string(kN) +
                              " i=" + std::to_string(i));
  }
  std::int64_t one = comm.rank() + 1, sum = 0;
  comm.allreduce_i64(&one, &sum, 1, Comm::ReduceOp::kSum);
  if (sum != static_cast<std::int64_t>(n) * (n + 1) / 2)
    fail(comm, "allreduce_i64 scalar");
}

/// Regression: a reduce whose writers finish at different times (one
/// direct-mode arena-resident operand consumed in round 0, others staged
/// over several rounds) immediately followed by more arena collectives. The
/// early-exiting writer opens the next epoch on its slot while its peers
/// are still combining — they must work from a header snapshot, not re-read
/// the live slot (which used to deadlock the world). Needs a 16 KiB slot.
void reduce_mixed_direct_and_staged(Comm& comm) {
  int n = comm.size();
  const std::size_t kN = 5000;  // 3 staged rounds.
  bool direct = comm.rank() == 1;
  std::vector<double> heap(direct ? 0 : kN);
  double* in = direct ? reinterpret_cast<double*>(comm.shared_alloc(
                            kN * sizeof(double), alignof(double)))
                      : heap.data();
  for (int it = 0; it < 20; ++it) {
    for (std::size_t i = 0; i < kN; ++i)
      in[i] = static_cast<double>(comm.rank() + it) + static_cast<double>(i);
    std::vector<double> out(kN, -1);
    comm.reduce_f64(in, out.data(), kN, Comm::ReduceOp::kSum, 0);
    // No intervening barrier: the next collective reuses the arena as
    // soon as each rank's part of the reduce completes.
    std::uint32_t word =
        comm.rank() == 2 ? 99u + static_cast<std::uint32_t>(it) : 0u;
    comm.bcast(&word, sizeof word, 2);
    if (word != 99u + static_cast<std::uint32_t>(it))
      return fail(comm, "bcast after reduce, it=" + std::to_string(it));
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < kN; i += 997)
        if (out[i] != n * (n - 1) / 2.0 + static_cast<double>(n) *
                                              (static_cast<double>(i) + it))
          return fail(comm, "reduce it=" + std::to_string(it) +
                                " i=" + std::to_string(i));
    }
  }
}

/// Operand element i of rank r, chosen so the fold order shows in the bits
/// of float sums (the ranks' magnitudes differ).
template <typename T>
T operand(int r, std::size_t i) {
  if constexpr (std::is_floating_point_v<T>)
    return static_cast<T>(1.0 / (r + 3) + static_cast<double>(i % 97) * 1e-3 *
                                              (r % 2 != 0 ? -1.0 : 1.0));
  else
    return static_cast<T>(static_cast<std::int64_t>((i * 31 + 7) % 2001) -
                          1000 + r * 77);
}

template <typename T>
T apply(Comm::ReduceOp op, T a, T b) {
  switch (op) {
    case Comm::ReduceOp::kSum: return a + b;
    case Comm::ReduceOp::kProd: return a * b;
    case Comm::ReduceOp::kMin: return std::min(a, b);
    case Comm::ReduceOp::kMax: return std::max(a, b);
  }
  return a;
}

/// The p2p oracle's fold: seed with the root's operand, then every other
/// rank in ascending order.
template <typename T>
std::vector<T> oracle(int n, int root, std::size_t count, Comm::ReduceOp op,
                      T (*value)(int, std::size_t) = operand<T>) {
  std::vector<T> acc(count);
  for (std::size_t i = 0; i < count; ++i) {
    acc[i] = value(root, i);
    for (int w = 0; w < n; ++w)
      if (w != root) acc[i] = apply(op, acc[i], value(w, i));
  }
  return acc;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Typed entry points (`Reduce`/`Allreduce` bind e.g. reduce_f32 and
/// allreduce_f32) at odd counts straddling a 16 KiB slot, every op (no
/// integer products), roots 0 and n-1; bit-exact against the oracle fold.
template <typename T, typename Reduce, typename Allreduce>
void typed_reductions(Comm& comm, Reduce&& reduce, Allreduce&& allreduce) {
  int n = comm.size();
  for (std::size_t count : {1u, 17u, 1001u, 4099u, 9001u}) {
    std::vector<T> in(count);
    for (std::size_t i = 0; i < count; ++i) in[i] = operand<T>(comm.rank(), i);
    for (auto op : {Comm::ReduceOp::kSum, Comm::ReduceOp::kProd,
                    Comm::ReduceOp::kMin, Comm::ReduceOp::kMax}) {
      // Integer products of these operands overflow.
      if (op == Comm::ReduceOp::kProd && !std::is_floating_point_v<T>)
        continue;
      std::string at = "count " + std::to_string(count) + " op " +
                       std::to_string(static_cast<int>(op));
      for (int root : {0, n - 1}) {
        std::vector<T> out(count, T{});
        reduce(in.data(), out.data(), count, op, root);
        if (comm.rank() == root &&
            !same_bits(out, oracle<T>(n, root, count, op)))
          fail(comm, "reduce " + at + " root " + std::to_string(root));
      }
      std::vector<T> all(count, T{});
      allreduce(in.data(), all.data(), count, op);
      if (!same_bits(all, oracle<T>(n, 0, count, op)))
        fail(comm, "allreduce " + at);
    }
  }
}

TEST_P(CollCross, BcastEveryRootAllSizes) {
  run(config(), [&](Comm& comm) {
    for (std::size_t bytes : sizes()) {
      for (int root : {0, comm.size() - 1}) {
        std::vector<std::byte> buf(bytes);
        if (comm.rank() == root) pattern_fill(buf, 31 + bytes + static_cast<std::size_t>(root));
        comm.bcast(buf.data(), bytes, root);
        EXPECT_EQ(pattern_check(buf, 31 + bytes + static_cast<std::size_t>(root)),
                  kPatternOk)
            << bytes << " from root " << root;
      }
    }
  });
}

TEST_P(CollCross, BcastDirectFromArenaBuffer) {
  run(config(), [&](Comm& comm) {
    // shared_alloc'd source: the shm path publishes the offset and readers
    // pull straight from it (direct-read mode).
    const std::size_t bytes = 48 * KiB;
    std::byte* buf = comm.shared_alloc(bytes);
    if (comm.rank() == 1 % comm.size())
      pattern_fill({buf, bytes}, 777);
    comm.bcast(buf, bytes, 1 % comm.size());
    EXPECT_EQ(pattern_check({buf, bytes}, 777), kPatternOk);
  });
}

TEST_P(CollCross, AllgatherAllSizes) {
  run(config(), [&](Comm& comm) {
    int n = comm.size();
    for (std::size_t per : sizes()) {
      std::vector<std::byte> mine(per);
      pattern_fill(mine, 5u + static_cast<std::uint64_t>(comm.rank()));
      std::vector<std::byte> all(per * static_cast<std::size_t>(n));
      comm.allgather(mine.data(), per, all.data());
      for (int r = 0; r < n; ++r)
        EXPECT_EQ(pattern_check(
                      std::span<const std::byte>(
                          all.data() + static_cast<std::size_t>(r) * per, per),
                      5u + static_cast<std::uint64_t>(r)),
                  kPatternOk)
            << per << " block " << r;
    }
  });
}

TEST_P(CollCross, AlltoallAllSizes) {
  run(config(), [&](Comm& comm) {
    int n = comm.size();
    for (std::size_t per : sizes()) {
      std::vector<std::byte> send(per * static_cast<std::size_t>(n)),
          recv(per * static_cast<std::size_t>(n));
      for (int d = 0; d < n; ++d)
        pattern_fill(
            std::span<std::byte>(
                send.data() + static_cast<std::size_t>(d) * per, per),
            static_cast<std::uint64_t>(comm.rank()) * 131 +
                static_cast<std::uint64_t>(d));
      comm.alltoall(send.data(), per, recv.data());
      for (int s = 0; s < n; ++s)
        EXPECT_EQ(pattern_check(
                      std::span<const std::byte>(
                          recv.data() + static_cast<std::size_t>(s) * per, per),
                      static_cast<std::uint64_t>(s) * 131 +
                          static_cast<std::uint64_t>(comm.rank())),
                  kPatternOk)
            << per << " from " << s;
    }
  });
}

TEST_P(CollCross, AlltoallDirectFromArenaMatrix) {
  run(config(), [&](Comm& comm) {
    int n = comm.size();
    const std::size_t per = 24 * KiB;
    std::size_t matrix = per * static_cast<std::size_t>(n);
    std::byte* send = comm.shared_alloc(matrix);
    std::byte* recv = comm.shared_alloc(matrix);
    for (int d = 0; d < n; ++d)
      pattern_fill(std::span<std::byte>(
                       send + static_cast<std::size_t>(d) * per, per),
                   static_cast<std::uint64_t>(comm.rank()) * 17 +
                       static_cast<std::uint64_t>(d));
    comm.alltoall(send, per, recv);
    for (int s = 0; s < n; ++s)
      EXPECT_EQ(pattern_check(std::span<const std::byte>(
                                  recv + static_cast<std::size_t>(s) * per,
                                  per),
                              static_cast<std::uint64_t>(s) * 17 +
                                  static_cast<std::uint64_t>(comm.rank())),
                kPatternOk);
  });
}

TEST_P(CollCross, AlltoallvRaggedWithZeros) {
  run(config(), [&](Comm& comm) {
    int n = comm.size();
    int me = comm.rank();
    auto nsz = static_cast<std::size_t>(n);
    // Ragged rows spanning well past the per-dest chunk capacity, with one
    // zero-count destination per sender.
    std::vector<std::size_t> scounts(nsz), sdispls(nsz), rcounts(nsz),
        rdispls(nsz);
    auto count_for = [&](int s, int d) -> std::size_t {
      if (n > 1 && d == (s + 1) % n) return 0;
      return (static_cast<std::size_t>(s) + 1) * 3 * KiB +
             static_cast<std::size_t>(d) * 128 + kTestSlot / 2;
    };
    for (int d = 0; d < n; ++d)
      scounts[static_cast<std::size_t>(d)] = count_for(me, d);
    std::partial_sum(scounts.begin(), scounts.end() - 1, sdispls.begin() + 1);
    for (int s = 0; s < n; ++s)
      rcounts[static_cast<std::size_t>(s)] = count_for(s, me);
    std::partial_sum(rcounts.begin(), rcounts.end() - 1, rdispls.begin() + 1);

    std::vector<std::byte> send(sdispls[nsz - 1] + scounts[nsz - 1]);
    std::vector<std::byte> recv(rdispls[nsz - 1] + rcounts[nsz - 1]);
    for (int d = 0; d < n; ++d) {
      auto dz = static_cast<std::size_t>(d);
      pattern_fill(
          std::span<std::byte>(send.data() + sdispls[dz], scounts[dz]),
          static_cast<std::uint64_t>(me) * 311 + static_cast<std::uint64_t>(d));
    }
    comm.alltoallv(send.data(), scounts.data(), sdispls.data(), recv.data(),
                   rcounts.data(), rdispls.data());
    for (int s = 0; s < n; ++s) {
      auto sz = static_cast<std::size_t>(s);
      EXPECT_EQ(pattern_check(std::span<const std::byte>(
                                  recv.data() + rdispls[sz], rcounts[sz]),
                              static_cast<std::uint64_t>(s) * 311 +
                                  static_cast<std::uint64_t>(me)),
                kPatternOk)
          << "from " << s;
    }
  });
}

TEST_P(CollCross, AlltoallStridedPacksDirectWithZeroStaging) {
  run(config(), [&](Comm& comm) {
    int n = comm.size();
    int me = comm.rank();
    // Send and receive layouts differ (same packed size): the op must
    // re-block, not just move bytes. 720 packed bytes per destination fit
    // one per-dest slot chunk at every tested rank count, yet strided ops
    // take the segment-list p2p path in every mode.
    Datatype sdt = Datatype::vector(3, 48, 96);
    Datatype rdt = Datatype::vector(2, 72, 100);
    ASSERT_EQ(sdt.size(), rdt.size());
    const std::size_t count = 5;
    std::size_t sext = sdt.extent() * count, rext = rdt.extent() * count;
    std::size_t packed = sdt.size() * count;
    auto nsz = static_cast<std::size_t>(n);
    std::vector<std::byte> send(sext * nsz, std::byte{0});
    std::vector<std::byte> recv(rext * nsz, std::byte{0xee});
    auto seed = [](int s, int d) {
      return static_cast<std::uint64_t>(s) * 977 +
             static_cast<std::uint64_t>(d);
    };
    std::vector<std::byte> pk(packed);
    for (int d = 0; d < n; ++d) {
      pattern_fill(pk, seed(me, d));
      sdt.unpack(pk.data(), count,
                 send.data() + static_cast<std::size_t>(d) * sext);
    }

    const tune::Counters& c = comm.engine().counters();
    std::uint64_t direct0 = c.pack_direct_ops;
    comm.alltoall_strided(send.data(), sdt, count, recv.data(), rdt);

    // The acceptance property: the strided flow packs straight into shared
    // destinations, on either family.
    if (n > 1) {
      EXPECT_GT(c.pack_direct_ops, direct0);
    }

    for (int s = 0; s < n; ++s) {
      rdt.pack(recv.data() + static_cast<std::size_t>(s) * rext, count,
               pk.data());
      EXPECT_EQ(pattern_check(pk, seed(s, me)), kPatternOk)
          << "from " << s;
    }
  });
}

TEST_P(CollCross, AllgatherStridedIndexedReceiveLayout) {
  run(config(), [&](Comm& comm) {
    int n = comm.size();
    int me = comm.rank();
    Datatype sdt = Datatype::vector(4, 40, 64);
    Datatype rdt = Datatype::indexed({100, 60}, {0, 128});
    ASSERT_EQ(sdt.size(), rdt.size());
    const std::size_t count = 6;  // 960 packed bytes: fits the test slot.
    std::size_t sext = sdt.extent() * count, rext = rdt.extent() * count;
    std::size_t packed = sdt.size() * count;
    std::vector<std::byte> send(sext, std::byte{0});
    std::vector<std::byte> recv(rext * static_cast<std::size_t>(n),
                                std::byte{0xee});
    std::vector<std::byte> pk(packed);
    pattern_fill(pk, 4242u + static_cast<std::uint64_t>(me));
    sdt.unpack(pk.data(), count, send.data());

    comm.allgather_strided(send.data(), sdt, count, recv.data(), rdt);

    for (int w = 0; w < n; ++w) {
      rdt.pack(recv.data() + static_cast<std::size_t>(w) * rext, count,
               pk.data());
      EXPECT_EQ(pattern_check(pk, 4242u + static_cast<std::uint64_t>(w)),
                kPatternOk)
          << "block " << w;
    }
  });
}

TEST_P(CollCross, AlltoallStridedOverflowingChunkFallsBackCorrectly) {
  run(config(), [&](Comm& comm) {
    int n = comm.size();
    int me = comm.rank();
    // Packed per-dest block (20 KiB) exceeds any per-dest chunk of the
    // 16 KiB test slot: the op must take the segment-list p2p family even
    // under forced shm, and still deliver every block.
    Datatype dt = Datatype::vector(10, 2048, 4096);
    const std::size_t count = 1;
    std::size_t ext = dt.extent() * count;
    std::size_t packed = dt.size() * count;
    auto nsz = static_cast<std::size_t>(n);
    std::vector<std::byte> send(ext * nsz, std::byte{0});
    std::vector<std::byte> recv(ext * nsz, std::byte{0xee});
    std::vector<std::byte> pk(packed);
    for (int d = 0; d < n; ++d) {
      pattern_fill(pk, static_cast<std::uint64_t>(me) * 53 +
                           static_cast<std::uint64_t>(d));
      dt.unpack(pk.data(), count,
                send.data() + static_cast<std::size_t>(d) * ext);
    }
    comm.alltoall_strided(send.data(), dt, count, recv.data(), dt);
    for (int s = 0; s < n; ++s) {
      dt.pack(recv.data() + static_cast<std::size_t>(s) * ext, count,
              pk.data());
      EXPECT_EQ(pattern_check(pk, static_cast<std::uint64_t>(s) * 53 +
                                      static_cast<std::uint64_t>(me)),
                kPatternOk)
          << "from " << s;
    }
  });
}

TEST_P(CollCross, ReduceAllreduceAllSizes) {
  run(config(), [&](Comm& comm) { reduce_allreduce_all_sizes(comm); });
}

TEST_P(CollCross, TypedReductionsOddCountsMatchOracle) {
  run(config(), [&](Comm& comm) {
    using Op = Comm::ReduceOp;
    typed_reductions<float>(
        comm,
        [&](const float* i, float* o, std::size_t c, Op op, int root) {
          comm.reduce_f32(i, o, c, op, root);
        },
        [&](const float* i, float* o, std::size_t c, Op op) {
          comm.allreduce_f32(i, o, c, op);
        });
    typed_reductions<std::int32_t>(
        comm,
        [&](const std::int32_t* i, std::int32_t* o, std::size_t c, Op op,
            int root) { comm.reduce_i32(i, o, c, op, root); },
        [&](const std::int32_t* i, std::int32_t* o, std::size_t c, Op op) {
          comm.allreduce_i32(i, o, c, op);
        });
    typed_reductions<std::int64_t>(
        comm,
        [&](const std::int64_t* i, std::int64_t* o, std::size_t c, Op op,
            int root) { comm.reduce_i64(i, o, c, op, root); },
        [&](const std::int64_t* i, std::int64_t* o, std::size_t c, Op op) {
          comm.allreduce_i64(i, o, c, op);
        });
  });
}

TEST_P(CollCross, InPlaceReductionsStraddlingTheSlot) {
  // in == out: every rank's operand is also its result buffer, so no rank
  // may overwrite its operand before every peer folded it.
  run(config(), [&](Comm& comm) {
    int n = comm.size();
    for (std::size_t count : {2047u, 2048u, 2049u, 5000u}) {
      for (auto op : {Comm::ReduceOp::kSum, Comm::ReduceOp::kMax}) {
        std::string at = "count " + std::to_string(count) + " op " +
                         std::to_string(static_cast<int>(op));
        std::vector<double> buf(count);
        for (int root : {0, n - 1}) {
          for (std::size_t i = 0; i < count; ++i)
            buf[i] = operand<double>(comm.rank(), i);
          comm.reduce_f64(buf.data(), buf.data(), count, op, root);
          if (comm.rank() == root &&
              !same_bits(buf, oracle<double>(n, root, count, op)))
            fail(comm,
                 "in-place reduce " + at + " root " + std::to_string(root));
        }
        for (std::size_t i = 0; i < count; ++i)
          buf[i] = operand<double>(comm.rank(), i);
        comm.allreduce_f64(buf.data(), buf.data(), count, op);
        if (!same_bits(buf, oracle<double>(n, 0, count, op)))
          fail(comm, "in-place allreduce " + at);
      }
    }
  });
}

TEST_P(CollCross, EpochReuseStress) {
  // Many back-to-back arena collectives: sequence/sense bugs in the epoch
  // or flat-barrier protocol show up as hangs or cross-epoch corruption.
  run(config(), [&](Comm& comm) {
    int n = comm.size();
    for (int it = 0; it < 150; ++it) {
      comm.barrier();
      std::uint32_t word = 0;
      if (comm.rank() == it % n)
        word = 0xC0FFEE00u + static_cast<std::uint32_t>(it);
      comm.bcast(&word, sizeof word, it % n);
      ASSERT_EQ(word, 0xC0FFEE00u + static_cast<std::uint32_t>(it)) << it;
      std::int64_t v = it + comm.rank(), mx = -1;
      comm.allreduce_i64(&v, &mx, 1, Comm::ReduceOp::kMax);
      ASSERT_EQ(mx, it + n - 1) << it;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndWorlds, CollCross,
    ::testing::Values(CrossParam{2, coll::Mode::kShm},
                      CrossParam{3, coll::Mode::kShm},
                      CrossParam{5, coll::Mode::kShm},
                      CrossParam{8, coll::Mode::kShm},
                      CrossParam{2, coll::Mode::kP2p},
                      CrossParam{3, coll::Mode::kP2p},
                      CrossParam{5, coll::Mode::kP2p},
                      CrossParam{8, coll::Mode::kP2p}),
    [](const auto& info) {
      return std::to_string(info.param.nranks) + "ranks_" +
             coll::to_string(info.param.mode);
    });

// Auto mode routes by the tuned coll_activation crossover: sizes straddling
// it take different families (observable in the coll telemetry), and both
// produce correct results.
TEST(CollAuto, ActivationBoundaryRoutesAndWorks) {
  // The routing under test; beats any outer env.
  Config cfg;
  cfg.env["NEMO_COLL"] = "auto";
  cfg.nranks = 4;
  tune::TuningTable t = tune::effective_table(detect_host());
  t.coll_activation = 4 * KiB;
  cfg.tuning = t;
  run(cfg, [&](Comm& comm) {
    std::vector<std::byte> small(1 * KiB), big(64 * KiB);
    if (comm.rank() == 0) {
      pattern_fill(small, 1);
      pattern_fill(big, 2);
    }
    std::uint64_t shm_before = comm.engine().counters().coll_shm_ops;
    std::uint64_t p2p_before = comm.engine().counters().coll_p2p_ops;
    comm.bcast(small.data(), small.size(), 0);
    EXPECT_EQ(comm.engine().counters().coll_p2p_ops, p2p_before + 1);
    comm.bcast(big.data(), big.size(), 0);
    EXPECT_EQ(comm.engine().counters().coll_shm_ops, shm_before + 1);
    EXPECT_EQ(pattern_check(small, 1), kPatternOk);
    EXPECT_EQ(pattern_check(big, 2), kPatternOk);
  });
}

TEST(CollAuto, ReduceMixedDirectAndStagedWritersBackToBack) {
  Config cfg;
  cfg.env["NEMO_COLL"] = "shm";
  cfg.nranks = 4;
  cfg.coll_slot_bytes = 16 * KiB;  // Doubles: 2048 elems/round.
  cfg.shared_pool_bytes = 32 * MiB;
  run(cfg, [&](Comm& comm) { reduce_mixed_direct_and_staged(comm); });
}

// Procs-mode worlds: heap operands cannot be read across address spaces,
// so every one is staged through the slots (a threads world reads them in
// place). Checks run inside the world and abort the rank on a mismatch.
TEST(CollProcs, ReductionsStageHeapOperands) {
  for (int nranks : {3, 4}) {
    Config cfg;
    cfg.env["NEMO_COLL"] = "shm";
    cfg.env["NEMO_WORLD_MODE"] = "procs";  // Whatever the environment says.
    cfg.nranks = nranks;
    cfg.coll_slot_bytes = kTestSlot;
    cfg.shared_pool_bytes = 32 * MiB;
    bool ok = run(cfg, [&](Comm& comm) {
      reduce_allreduce_all_sizes(comm);
      reduce_mixed_direct_and_staged(comm);
    });
    EXPECT_TRUE(ok) << nranks << " ranks";
  }
}

// Auto-mode alltoallv gates on a rank-consistent symmetric proxy: the
// minimum over ranks of total row bytes, exchanged through the arena's
// exchange cells. Tiny rows go pt2pt, big rows take the arena, and ONE
// small-row participant drags the whole operation to pt2pt — all
// observable in the coll telemetry, and every variant must stay correct.
TEST(CollAuto, AlltoallvTinyRowsGateToP2p) {
  Config cfg;
  cfg.env["NEMO_COLL"] = "auto";
  cfg.nranks = 4;
  tune::TuningTable t = tune::effective_table(detect_host());
  t.coll_activation = 4 * KiB;
  cfg.tuning = t;
  cfg.shared_pool_bytes = 32 * MiB;
  run(cfg, [&](Comm& comm) {
    int n = comm.size();
    int me = comm.rank();
    auto nsz = static_cast<std::size_t>(n);
    auto do_alltoallv = [&](std::size_t per_dest_me) {
      std::vector<std::size_t> scounts(nsz, per_dest_me), sdispls(nsz),
          rcounts(nsz), rdispls(nsz);
      // Symmetric layout: every rank must compute the peer's count. The
      // mixed case gives rank 0 tiny rows and everyone else big ones.
      for (int s = 0; s < n; ++s)
        rcounts[static_cast<std::size_t>(s)] =
            per_dest_me == 0 ? 0 : per_dest_me;
      std::partial_sum(scounts.begin(), scounts.end() - 1,
                       sdispls.begin() + 1);
      std::partial_sum(rcounts.begin(), rcounts.end() - 1,
                       rdispls.begin() + 1);
      std::vector<std::byte> send(sdispls[nsz - 1] + scounts[nsz - 1]);
      std::vector<std::byte> recv(rdispls[nsz - 1] + rcounts[nsz - 1]);
      for (int d = 0; d < n; ++d)
        pattern_fill(std::span<std::byte>(
                         send.data() + sdispls[static_cast<std::size_t>(d)],
                         scounts[static_cast<std::size_t>(d)]),
                     static_cast<std::uint64_t>(me) * 41 +
                         static_cast<std::uint64_t>(d));
      comm.alltoallv(send.data(), scounts.data(), sdispls.data(),
                     recv.data(), rcounts.data(), rdispls.data());
      for (int s = 0; s < n; ++s)
        EXPECT_EQ(pattern_check(
                      std::span<const std::byte>(
                          recv.data() + rdispls[static_cast<std::size_t>(s)],
                          rcounts[static_cast<std::size_t>(s)]),
                      static_cast<std::uint64_t>(s) * 41 +
                          static_cast<std::uint64_t>(me)),
                  kPatternOk);
    };
    tune::Counters& c = comm.engine().counters();
    // Tiny rows: 256 B to each of 3 peers = 768 B < 4 KiB -> pt2pt.
    std::uint64_t p2p0 = c.coll_p2p_ops;
    do_alltoallv(256);
    EXPECT_EQ(c.coll_p2p_ops, p2p0 + 1);
    // Big rows: 4 KiB each = 12 KiB >= 4 KiB -> arena.
    std::uint64_t shm0 = c.coll_shm_ops;
    do_alltoallv(4 * KiB);
    EXPECT_EQ(c.coll_shm_ops, shm0 + 1);
  });
}

TEST(CollAuto, AlltoallvOneTinyParticipantDragsAllToP2p) {
  Config cfg;
  cfg.env["NEMO_COLL"] = "auto";
  cfg.nranks = 3;
  tune::TuningTable t = tune::effective_table(detect_host());
  t.coll_activation = 4 * KiB;
  cfg.tuning = t;
  run(cfg, [&](Comm& comm) {
    int n = comm.size();
    int me = comm.rank();
    auto nsz = static_cast<std::size_t>(n);
    // Rank 0 sends 64 B per destination, everyone else 8 KiB: the minimum
    // anchors the decision, so ALL ranks must agree on pt2pt.
    auto count_for = [&](int s) -> std::size_t {
      return s == 0 ? 64 : 8 * KiB;
    };
    std::vector<std::size_t> scounts(nsz, count_for(me)), sdispls(nsz),
        rcounts(nsz), rdispls(nsz);
    for (int s = 0; s < n; ++s)
      rcounts[static_cast<std::size_t>(s)] = count_for(s);
    std::partial_sum(scounts.begin(), scounts.end() - 1, sdispls.begin() + 1);
    std::partial_sum(rcounts.begin(), rcounts.end() - 1, rdispls.begin() + 1);
    std::vector<std::byte> send(sdispls[nsz - 1] + scounts[nsz - 1]);
    std::vector<std::byte> recv(rdispls[nsz - 1] + rcounts[nsz - 1]);
    for (int d = 0; d < n; ++d)
      pattern_fill(std::span<std::byte>(
                       send.data() + sdispls[static_cast<std::size_t>(d)],
                       scounts[static_cast<std::size_t>(d)]),
                   static_cast<std::uint64_t>(me) * 53 +
                       static_cast<std::uint64_t>(d));
    tune::Counters& c = comm.engine().counters();
    std::uint64_t p2p0 = c.coll_p2p_ops;
    comm.alltoallv(send.data(), scounts.data(), sdispls.data(), recv.data(),
                   rcounts.data(), rdispls.data());
    EXPECT_EQ(c.coll_p2p_ops, p2p0 + 1);
    for (int s = 0; s < n; ++s)
      EXPECT_EQ(pattern_check(
                    std::span<const std::byte>(
                        recv.data() + rdispls[static_cast<std::size_t>(s)],
                        rcounts[static_cast<std::size_t>(s)]),
                    static_cast<std::uint64_t>(s) * 53 +
                        static_cast<std::uint64_t>(me)),
                kPatternOk);
  });
}

// ---------------------------------------------------------------------------
// Cell exchange: reductions and allgathers of at most coll::kCellPayload
// (56 B) per rank finish in one all-read-all exchange through the arena's
// parity cells, in auto and shm mode alike: one arena op, no pt2pt message,
// and results bit-identical to the p2p oracle's fold. One element more
// takes the family auto mode picks by size (p2p below coll_activation).
// ---------------------------------------------------------------------------

/// Operand element i of rank r for the cell tests: the float operands of
/// the oracle tests, and integers in [-3, 3] so a product over 8 ranks
/// stays in range (every op runs, products included).
template <typename T>
T cell_operand(int r, std::size_t i) {
  if constexpr (std::is_floating_point_v<T>)
    return operand<T>(r, i);
  else
    return static_cast<T>(
        static_cast<int>((i * 7 + static_cast<std::size_t>(r) * 3) % 7) - 3);
}

/// Counters one cell op may move: arena ops, p2p ops, and every pt2pt send.
struct OpTally {
  std::uint64_t shm, p2p, eager, fastbox, rndv;
  static OpTally of(Comm& comm) {
    const tune::Counters& c = comm.engine().counters();
    EngineStats st = comm.engine().stats();
    return {c.coll_shm_ops,   c.coll_p2p_ops, st.eager_msgs_sent,
            st.fastbox_sent,  st.rndv_sent};
  }
};

/// Run `op` and check the path it took: one cell exchange (one arena op,
/// no pt2pt send) when `cells`, else one p2p op.
template <typename Op>
void expect_path(Comm& comm, bool cells, const std::string& at, Op&& op) {
  OpTally a = OpTally::of(comm);
  op();
  OpTally b = OpTally::of(comm);
  if (cells) {
    if (b.shm != a.shm + 1 || b.p2p != a.p2p)
      fail(comm, at + ": not one arena op");
    if (b.eager != a.eager || b.fastbox != a.fastbox || b.rndv != a.rndv)
      fail(comm, at + ": sent a pt2pt message");
  } else if (b.p2p != a.p2p + 1 || b.shm != a.shm) {
    fail(comm, at + ": not one p2p op");
  }
}

/// Every count from one element to the cell payload, and one element past
/// it: every op, reduce at every root, allreduce, and an allgather of the
/// same bytes per rank — bit-exact, on the path the size selects.
template <typename T, typename Reduce, typename Allreduce>
void cell_reductions(Comm& comm, const char* type, Reduce&& reduce,
                     Allreduce&& allreduce) {
  int n = comm.size(), me = comm.rank();
  std::size_t max = coll::kCellPayload / sizeof(T);
  for (std::size_t count = 1; count <= max + 1; ++count) {
    bool cells = count <= max;
    std::vector<T> in(count);
    for (std::size_t i = 0; i < count; ++i) in[i] = cell_operand<T>(me, i);
    for (auto op : {Comm::ReduceOp::kSum, Comm::ReduceOp::kProd,
                    Comm::ReduceOp::kMin, Comm::ReduceOp::kMax}) {
      std::string at = std::string(type) + " count " + std::to_string(count) +
                       " op " + std::to_string(static_cast<int>(op));
      for (int root = 0; root < n; ++root) {
        std::vector<T> out(count, T{});
        std::string where = "reduce " + at + " root " + std::to_string(root);
        expect_path(comm, cells, where, [&] {
          reduce(in.data(), out.data(), count, op, root);
        });
        if (me == root &&
            !same_bits(out, oracle<T>(n, root, count, op, cell_operand<T>)))
          fail(comm, where);
      }
      std::vector<T> all(count, T{});
      expect_path(comm, cells, "allreduce " + at,
                  [&] { allreduce(in.data(), all.data(), count, op); });
      if (!same_bits(all, oracle<T>(n, 0, count, op, cell_operand<T>)))
        fail(comm, "allreduce " + at);
    }
    std::size_t per = count * sizeof(T);
    std::vector<std::byte> block(per),
        gathered(per * static_cast<std::size_t>(n));
    pattern_fill(block, static_cast<std::uint64_t>(me) * 131 + per);
    std::string at = std::string("allgather ") + type + " bytes " +
                     std::to_string(per);
    expect_path(comm, cells, at,
                [&] { comm.allgather(block.data(), per, gathered.data()); });
    for (int w = 0; w < n; ++w)
      if (pattern_check(std::span<const std::byte>(
                            gathered.data() + static_cast<std::size_t>(w) * per,
                            per),
                        static_cast<std::uint64_t>(w) * 131 + per) !=
          kPatternOk)
        fail(comm, at + " block " + std::to_string(w));
  }
}

void all_cell_reductions(Comm& comm) {
  using Op = Comm::ReduceOp;
  cell_reductions<double>(
      comm, "f64",
      [&](const double* i, double* o, std::size_t c, Op op, int root) {
        comm.reduce_f64(i, o, c, op, root);
      },
      [&](const double* i, double* o, std::size_t c, Op op) {
        comm.allreduce_f64(i, o, c, op);
      });
  cell_reductions<float>(
      comm, "f32",
      [&](const float* i, float* o, std::size_t c, Op op, int root) {
        comm.reduce_f32(i, o, c, op, root);
      },
      [&](const float* i, float* o, std::size_t c, Op op) {
        comm.allreduce_f32(i, o, c, op);
      });
  cell_reductions<std::int32_t>(
      comm, "i32",
      [&](const std::int32_t* i, std::int32_t* o, std::size_t c, Op op,
          int root) { comm.reduce_i32(i, o, c, op, root); },
      [&](const std::int32_t* i, std::int32_t* o, std::size_t c, Op op) {
        comm.allreduce_i32(i, o, c, op);
      });
  cell_reductions<std::int64_t>(
      comm, "i64",
      [&](const std::int64_t* i, std::int64_t* o, std::size_t c, Op op,
          int root) { comm.reduce_i64(i, o, c, op, root); },
      [&](const std::int64_t* i, std::int64_t* o, std::size_t c, Op op) {
        comm.allreduce_i64(i, o, c, op);
      });
}

void cell_reductions_in(const char* world_mode) {
  for (int nranks : {2, 3, 4, 8}) {
    Config cfg;
    cfg.env["NEMO_COLL"] = "auto";
    cfg.env["NEMO_WORLD_MODE"] = world_mode;  // Whatever the env says.
    cfg.nranks = nranks;
    bool ok = run(cfg, [&](Comm& comm) { all_cell_reductions(comm); });
    EXPECT_TRUE(ok) << world_mode << " " << nranks << " ranks";
  }
}

TEST(CollAuto, SmallReductionsRideTheCells) { cell_reductions_in("threads"); }

// The same in forked worlds (a separate suite: sanitizer jobs that cannot
// follow a fork filter out CollProcs.*).
TEST(CollProcs, SmallReductionsRideTheCells) { cell_reductions_in("procs"); }

// Back-to-back cell exchanges with rotating roots, interleaved with auto
// alltoallv size probes (cell exchanges too), while one rank yields at
// random: a rank that finishes early starts the next exchange while a
// straggler still reads the last one. Parity double-buffering must keep
// every instance intact without a closing barrier.
TEST(CollAuto, CellParityStress) {
  Config cfg;
  cfg.env["NEMO_COLL"] = "auto";
  cfg.nranks = 4;
  bool ok = run(cfg, [&](Comm& comm) {
    int n = comm.size(), me = comm.rank();
    auto nsz = static_cast<std::size_t>(n);
    std::vector<std::size_t> counts(nsz, 16), displs(nsz);
    for (std::size_t d = 0; d < nsz; ++d) displs[d] = d * 16;
    std::vector<std::byte> send(16 * nsz), recv(16 * nsz);
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    for (int it = 0; it < 10000; ++it) {
      if (me == 1) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        if ((lcg >> 60) < 3) std::this_thread::yield();
      }
      int root = it % n;
      std::int64_t v[2] = {it + me, static_cast<std::int64_t>(me) << 32};
      std::int64_t out[2] = {-1, -1};
      comm.reduce_i64(v, out, 2, Comm::ReduceOp::kSum, root);
      if (me == root &&
          (out[0] != static_cast<std::int64_t>(it) * n + n * (n - 1) / 2 ||
           out[1] != (static_cast<std::int64_t>(n) * (n - 1) / 2) << 32))
        return fail(comm, "reduce it=" + std::to_string(it));
      if (it % 10 != 0) continue;
      for (int d = 0; d < n; ++d)
        std::memset(send.data() + static_cast<std::size_t>(d) * 16,
                    (it + me * 7 + d) & 0xff, 16);
      comm.alltoallv(send.data(), counts.data(), displs.data(), recv.data(),
                     counts.data(), displs.data());
      for (int s = 0; s < n; ++s)
        if (recv[static_cast<std::size_t>(s) * 16 + 15] !=
            static_cast<std::byte>((it + s * 7 + me) & 0xff))
          return fail(comm, "alltoallv it=" + std::to_string(it));
    }
  });
  EXPECT_TRUE(ok);
}

// A forced-shm world whose geometry cannot host the op (slot too small for
// the per-dest stride) must fall back to pt2pt, counted as a fallback.
TEST(CollAuto, GeometryFallbackCounts) {
  Config cfg;
  cfg.env["NEMO_COLL"] = "shm";
  cfg.nranks = 4;
  cfg.coll_slot_bytes = 64;  // < 64 * (nranks-1): alltoall cannot fit.
  run(cfg, [&](Comm& comm) {
    int n = comm.size();
    const std::size_t per = 4 * KiB;
    std::vector<std::byte> send(per * static_cast<std::size_t>(n)),
        recv(per * static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d)
      pattern_fill(std::span<std::byte>(
                       send.data() + static_cast<std::size_t>(d) * per, per),
                   static_cast<std::uint64_t>(comm.rank() * 7 + d));
    std::uint64_t fb = comm.engine().counters().coll_fallbacks;
    comm.alltoall(send.data(), per, recv.data());
    EXPECT_EQ(comm.engine().counters().coll_fallbacks, fb + 1);
    for (int s = 0; s < n; ++s)
      EXPECT_EQ(pattern_check(std::span<const std::byte>(
                                  recv.data() + static_cast<std::size_t>(s) * per,
                                  per),
                              static_cast<std::uint64_t>(s * 7 + comm.rank())),
                kPatternOk);
  });
}

// ---------------------------------------------------------------------------
// The auto family crossover follows the launch mode, with no knob: 4 KiB in
// threads worlds, whose readers pull heap operands in place, and 8 KiB in
// procs worlds, whose heap operands are staged through the slots. Every op
// counts exactly the path its size selects and matches the p2p oracle byte
// for byte.
// ---------------------------------------------------------------------------

/// bcast, allgather, alltoall, reduce and allreduce of `bytes` (the bcast
/// payload, the per-rank block, the operand) on heap buffers, each on the
/// arena when `shm`, else on the pt2pt algorithms.
void crossover_ops(Comm& comm, std::size_t bytes, bool shm) {
  int n = comm.size(), me = comm.rank();
  auto nsz = static_cast<std::size_t>(n);
  std::string at = std::to_string(bytes) + " B, " + std::to_string(n) +
                   " ranks: ";
  auto block = [&](std::vector<std::byte>& v, int i) {
    return std::span<std::byte>(v.data() + static_cast<std::size_t>(i) * bytes,
                                bytes);
  };

  std::vector<std::byte> b(bytes);
  int root = n - 1;
  if (me == root) pattern_fill(b, 7);
  expect_path(comm, shm, at + "bcast",
              [&] { comm.bcast(b.data(), bytes, root); });
  if (pattern_check(b, 7) != kPatternOk) fail(comm, at + "bcast result");

  std::vector<std::byte> mine(bytes), all(bytes * nsz);
  pattern_fill(mine, 300 + static_cast<std::uint64_t>(me));
  expect_path(comm, shm, at + "allgather",
              [&] { comm.allgather(mine.data(), bytes, all.data()); });
  for (int w = 0; w < n; ++w)
    if (pattern_check(block(all, w), 300 + static_cast<std::uint64_t>(w)) !=
        kPatternOk)
      fail(comm, at + "allgather block " + std::to_string(w));

  std::vector<std::byte> send(bytes * nsz), recv(bytes * nsz);
  for (int d = 0; d < n; ++d)
    pattern_fill(block(send, d), static_cast<std::uint64_t>(me * 41 + d));
  expect_path(comm, shm, at + "alltoall",
              [&] { comm.alltoall(send.data(), bytes, recv.data()); });
  for (int w = 0; w < n; ++w)
    if (pattern_check(block(recv, w),
                      static_cast<std::uint64_t>(w * 41 + me)) != kPatternOk)
      fail(comm, at + "alltoall block " + std::to_string(w));

  std::size_t count = bytes / sizeof(double);
  std::vector<double> in(count), out(count, -1.0);
  for (std::size_t i = 0; i < count; ++i) in[i] = operand<double>(me, i);
  expect_path(comm, shm, at + "reduce", [&] {
    comm.reduce_f64(in.data(), out.data(), count, Comm::ReduceOp::kSum, root);
  });
  if (me == root &&
      !same_bits(out, oracle<double>(n, root, count, Comm::ReduceOp::kSum)))
    fail(comm, at + "reduce result");
  expect_path(comm, shm, at + "allreduce", [&] {
    comm.allreduce_f64(in.data(), out.data(), count, Comm::ReduceOp::kSum);
  });
  if (!same_bits(out, oracle<double>(n, 0, count, Comm::ReduceOp::kSum)))
    fail(comm, at + "allreduce result");
}

/// Worlds of 2 and 4 ranks in `world_mode` under NEMO_COLL=auto: every op
/// at `p2p_bytes` takes the pt2pt algorithms, every op at `shm_bytes` the
/// arena.
void crossover_in(const char* world_mode, std::size_t p2p_bytes,
                  std::size_t shm_bytes) {
  for (int nranks : {2, 4}) {
    Config cfg;
    cfg.env["NEMO_COLL"] = "auto";
    cfg.env["NEMO_WORLD_MODE"] = world_mode;  // Whatever the env says.
    cfg.nranks = nranks;
    bool ok = run(cfg, [&](Comm& comm) {
      crossover_ops(comm, p2p_bytes, false);
      crossover_ops(comm, shm_bytes, true);
    });
    EXPECT_TRUE(ok) << world_mode << " " << nranks << " ranks";
  }
}

TEST(CollAuto, FormulaCrossoverByMode) {
  crossover_in("threads", 2 * KiB, 4 * KiB);
}

// The same in forked worlds (a separate suite: sanitizer jobs that cannot
// follow a fork filter out CollProcs.*).
TEST(CollProcs, FormulaCrossoverByMode) {
  crossover_in("procs", 4 * KiB, 8 * KiB);
}

// Strided ops take the segment-list p2p path in every mode and at every
// size, a forced arena included: one p2p op each, no arena op. 720 B fits
// a per-destination slot chunk, so the slot geometry is no reason for it.
TEST(CollAuto, StridedOpsTakeP2pAtEverySize) {
  for (const char* mode : {"auto", "shm"}) {
    SCOPED_TRACE(mode);
    Config cfg;
    cfg.env["NEMO_COLL"] = mode;
    cfg.nranks = 4;
    run(cfg, [&](Comm& comm) {
      int n = comm.size(), me = comm.rank();
      auto nsz = static_cast<std::size_t>(n);
      for (std::size_t packed :
           {std::size_t{720}, 4 * KiB, 16 * KiB, 32 * KiB}) {
        // Blocks every twice their length: 1 KiB ones, as coll_sweep's
        // strided rows, or 48 B ones for 720 B.
        std::size_t blk = packed % KiB == 0 ? KiB : 48;
        Datatype dt = Datatype::vector(packed / blk, blk, 2 * blk);
        std::size_t ext = dt.extent();
        std::vector<std::byte> send(ext * nsz), recv(ext * nsz), pk(packed);
        for (int d = 0; d < n; ++d) {
          pattern_fill(pk, static_cast<std::uint64_t>(me * 59 + d));
          dt.unpack(pk.data(), 1,
                    send.data() + static_cast<std::size_t>(d) * ext);
        }
        std::string at = std::to_string(packed) + " B ";
        expect_path(comm, false, at + "alltoall_strided", [&] {
          comm.alltoall_strided(send.data(), dt, 1, recv.data(), dt);
        });
        for (int w = 0; w < n; ++w) {
          dt.pack(recv.data() + static_cast<std::size_t>(w) * ext, 1,
                  pk.data());
          EXPECT_EQ(pattern_check(pk, static_cast<std::uint64_t>(w * 59 + me)),
                    kPatternOk)
              << at << "alltoall_strided from " << w;
        }
        expect_path(comm, false, at + "allgather_strided", [&] {
          comm.allgather_strided(send.data(), dt, 1, recv.data(), dt);
        });
        for (int w = 0; w < n; ++w) {
          dt.pack(recv.data() + static_cast<std::size_t>(w) * ext, 1,
                  pk.data());
          EXPECT_EQ(pattern_check(pk, static_cast<std::uint64_t>(w * 59)),
                    kPatternOk)
              << at << "allgather_strided block " << w;
        }
      }
    });
  }
}

}  // namespace
}  // namespace nemo::core
