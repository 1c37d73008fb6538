// LMT replay models: the qualitative claims of the paper's figures, asserted
// as properties of the simulator (who wins where, crossovers, monotonicity).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/lmt_models.hpp"

namespace nemo::sim {
namespace {

double pp(Strategy s, int a, int b, std::size_t size) {
  LmtModels m(e5345_machine());
  return m.pingpong_mibs(s, a, b, size);
}

// --- Figure 3 ------------------------------------------------------------

TEST(Fig3, VmspliceBeatsWritevEverywhere) {
  for (std::size_t size : {64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB}) {
    EXPECT_GT(pp(Strategy::kVmsplice, 0, 1, size),
              pp(Strategy::kVmspliceWritev, 0, 1, size))
        << size;
    EXPECT_GT(pp(Strategy::kVmsplice, 0, 7, size),
              pp(Strategy::kVmspliceWritev, 0, 7, size))
        << size;
  }
}

TEST(Fig3, DefaultBeatsVmspliceUnderSharedCache) {
  for (std::size_t size : {256 * KiB, 1 * MiB})
    EXPECT_GT(pp(Strategy::kDefault, 0, 1, size),
              pp(Strategy::kVmsplice, 0, 1, size))
        << size;
}

TEST(Fig3, VmspliceAtLeastMatchesDefaultWithoutSharedCache) {
  for (std::size_t size : {256 * KiB, 1 * MiB, 4 * MiB})
    EXPECT_GE(pp(Strategy::kVmsplice, 0, 7, size),
              pp(Strategy::kDefault, 0, 7, size) * 0.95)
        << size;
}

// --- Figures 4 & 5 ---------------------------------------------------------

TEST(Fig4, SharedCacheKnemTracksDefault) {
  // "KNEM remains almost as fast as NEMESIS" under a shared cache.
  for (std::size_t size : {256 * KiB, 1 * MiB, 4 * MiB}) {
    double d = pp(Strategy::kDefault, 0, 1, size);
    double k = pp(Strategy::kKnem, 0, 1, size);
    EXPECT_GT(k, 0.8 * d) << size;
    EXPECT_LT(k, 1.4 * d) << size;
  }
}

TEST(Fig4, IoatOnlyPaysOffPastDmaMin) {
  // Shared 4 MiB L2: DMAmin = 1 MiB. Below: CPU copy wins; at 4 MiB: I/OAT.
  EXPECT_GT(pp(Strategy::kKnem, 0, 1, 256 * KiB),
            pp(Strategy::kKnemDma, 0, 1, 256 * KiB));
  EXPECT_GT(pp(Strategy::kKnemDma, 0, 1, 4 * MiB),
            pp(Strategy::kKnem, 0, 1, 4 * MiB));
}

TEST(Fig5, NoSharedCacheKnemWinsClearly) {
  for (std::size_t size : {256 * KiB, 1 * MiB, 4 * MiB}) {
    double d = pp(Strategy::kDefault, 0, 7, size);
    double v = pp(Strategy::kVmsplice, 0, 7, size);
    double k = pp(Strategy::kKnem, 0, 7, size);
    EXPECT_GT(k, v) << size;
    EXPECT_GT(k, 1.2 * d) << size;  // Paper: up to >3x; assert a clear win.
  }
}

TEST(Fig5, IoatLargeMessagesBeatEverything) {
  for (Strategy s :
       {Strategy::kDefault, Strategy::kVmsplice, Strategy::kKnem})
    EXPECT_GT(pp(Strategy::kKnemDma, 0, 7, 4 * MiB), pp(s, 0, 7, 4 * MiB));
}

TEST(Fig45, SharedCacheHelpsEveryCpuStrategy) {
  // The same strategy is faster (or equal) when the pair shares an L2,
  // except I/OAT which bypasses caches entirely.
  for (Strategy s :
       {Strategy::kDefault, Strategy::kVmsplice, Strategy::kKnem})
    EXPECT_GT(pp(s, 0, 1, 256 * KiB), pp(s, 0, 7, 256 * KiB))
        << to_string(s);
}

// --- Figure 6 -----------------------------------------------------------------

TEST(Fig6, AsyncKernelThreadCopyLosesThroughput) {
  for (std::size_t size : {256 * KiB, 1 * MiB, 4 * MiB})
    EXPECT_LT(pp(Strategy::kKnemAsyncCopy, 0, 7, size),
              0.8 * pp(Strategy::kKnem, 0, 7, size))
        << size;
}

TEST(Fig6, AsyncDmaAtLeastSyncDma) {
  for (std::size_t size : {256 * KiB, 1 * MiB, 4 * MiB})
    EXPECT_GE(pp(Strategy::kKnemAsyncDma, 0, 7, size),
              pp(Strategy::kKnemDma, 0, 7, size) * 0.98)
        << size;
}

// --- Figure 7 -----------------------------------------------------------------

TEST(Fig7, AlltoallKnemDominatesMidSizes) {
  std::vector<int> cores{0, 1, 2, 3, 4, 5, 6, 7};
  for (std::size_t size : {32 * KiB, 256 * KiB}) {
    LmtModels m1(e5345_machine()), m2(e5345_machine());
    double k = m1.alltoall_mibs(Strategy::kKnem, cores, size);
    double d = m2.alltoall_mibs(Strategy::kDefault, cores, size);
    EXPECT_GT(k, 1.5 * d) << size;  // Paper: up to 5x near 32 KiB.
  }
}

TEST(Fig7, AlltoallIoatWinsVeryLarge) {
  std::vector<int> cores{0, 1, 2, 3, 4, 5, 6, 7};
  LmtModels m1(e5345_machine()), m2(e5345_machine()), m3(e5345_machine());
  double dma = m1.alltoall_mibs(Strategy::kKnemDma, cores, 4 * MiB);
  double knem = m2.alltoall_mibs(Strategy::kKnem, cores, 4 * MiB);
  double dflt = m3.alltoall_mibs(Strategy::kDefault, cores, 4 * MiB);
  EXPECT_GT(dma, knem);
  EXPECT_GT(dma, 1.5 * dflt);  // Paper: ~2x.
}

TEST(Fig7, AlltoallVmspliceWorthwhileWithoutKnem) {
  std::vector<int> cores{0, 1, 2, 3, 4, 5, 6, 7};
  LmtModels m1(e5345_machine()), m2(e5345_machine());
  EXPECT_GT(m1.alltoall_mibs(Strategy::kVmsplice, cores, 256 * KiB),
            m2.alltoall_mibs(Strategy::kDefault, cores, 256 * KiB));
}

// --- Table 2 -------------------------------------------------------------

TEST(Table2, SingleCopyStrategiesMissLessAt4MiB) {
  LmtModels md(e5345_machine()), mv(e5345_machine()), mk(e5345_machine()),
      mi(e5345_machine());
  auto d = md.pingpong_l2_misses(Strategy::kDefault, 0, 7, 4 * MiB);
  auto v = mv.pingpong_l2_misses(Strategy::kVmsplice, 0, 7, 4 * MiB);
  auto k = mk.pingpong_l2_misses(Strategy::kKnem, 0, 7, 4 * MiB);
  auto i = mi.pingpong_l2_misses(Strategy::kKnemDma, 0, 7, 4 * MiB);
  EXPECT_GT(d, v);
  EXPECT_GE(v, k);
  EXPECT_GT(k, i);  // I/OAT touches no cache at all.
}

TEST(Table2, AlltoallMissOrdering) {
  std::vector<int> cores{0, 1, 2, 3, 4, 5, 6, 7};
  LmtModels md(e5345_machine()), mk(e5345_machine()), mi(e5345_machine());
  auto d = md.alltoall_l2_misses(Strategy::kDefault, cores, 4 * MiB, 1);
  auto k = mk.alltoall_l2_misses(Strategy::kKnem, cores, 4 * MiB, 1);
  auto i = mi.alltoall_l2_misses(Strategy::kKnemDma, cores, 4 * MiB, 1);
  EXPECT_GT(d, k);
  EXPECT_GT(k, i);
}

TEST(Table2, IsMissesAndTimeTrackEachOther) {
  // "Execution time of IS is somehow linear with the total number of cache
  // misses": fewer misses => less time, ordered default > vmsplice/knem >
  // ioat.
  std::vector<int> cores{0, 1, 2, 3, 4, 5, 6, 7};
  LmtModels md(e5345_machine()), mk(e5345_machine()), mi(e5345_machine());
  auto d = md.is_run(Strategy::kDefault, cores, 1 << 22);
  auto k = mk.is_run(Strategy::kKnem, cores, 1 << 22);
  auto i = mi.is_run(Strategy::kKnemDma, cores, 1 << 22);
  EXPECT_GT(d.l2_misses, k.l2_misses);
  EXPECT_GT(k.l2_misses, i.l2_misses);
  EXPECT_GT(d.seconds, k.seconds);
  EXPECT_GT(k.seconds, i.seconds);
}

// --- §3.5 thresholds on the other host ------------------------------------

TEST(Thresholds, SimCrossoverScalesWithCacheSize) {
  // Find the I/OAT crossover on E5345 (4 MiB L2) and X5460 (6 MiB L2):
  // the latter must be at least as large (paper: +50%).
  auto crossover = [](const SimMachine& mach) {
    for (std::size_t size = 128 * KiB; size <= 8 * MiB; size *= 2) {
      LmtModels m1(mach), m2(mach);
      if (m1.pingpong_mibs(Strategy::kKnemDma, 0, 1, size) >
          m2.pingpong_mibs(Strategy::kKnem, 0, 1, size))
        return size;
    }
    return std::size_t{0};
  };
  std::size_t e5345 = crossover(e5345_machine());
  std::size_t x5460 = crossover(x5460_machine());
  EXPECT_GT(e5345, 0u);
  EXPECT_GE(x5460, e5345);
}

TEST(Models, ThroughputPositiveAndFinite) {
  for (Strategy s :
       {Strategy::kDefault, Strategy::kVmsplice, Strategy::kVmspliceWritev,
        Strategy::kKnem, Strategy::kKnemDma, Strategy::kKnemAsyncCopy,
        Strategy::kKnemAsyncDma}) {
    double v = pp(s, 0, 7, 64 * KiB);
    EXPECT_GT(v, 0) << to_string(s);
    EXPECT_LT(v, 1e6) << to_string(s);
  }
}

TEST(Models, DeterministicAcrossRuns) {
  EXPECT_DOUBLE_EQ(pp(Strategy::kKnem, 0, 7, 1 * MiB),
                   pp(Strategy::kKnem, 0, 7, 1 * MiB));
  std::vector<int> cores{0, 1, 2, 3, 4, 5, 6, 7};
  LmtModels a(e5345_machine()), b(e5345_machine());
  EXPECT_DOUBLE_EQ(a.alltoall_mibs(Strategy::kKnem, cores, 64 * KiB),
                   b.alltoall_mibs(Strategy::kKnem, cores, 64 * KiB));
}

// Exact outputs of the models at 64 KiB for every strategy, printed with
// %.17g. Any change to the cache walk or to a strategy's access sequence
// that moves one miss or one rounding step shows here.
TEST(Models, GoldenNumbers) {
  struct Golden {
    Strategy s;
    std::uint64_t pp_miss_01, pp_miss_07, a2a_miss;
    double pp_mibs_01, pp_mibs_07, a2a_mibs;
  };
  const Golden golden[] = {
      {Strategy::kDefault, 0, 4096, 116736, 2981.870229007633,
       1645.0831754053484, 2593.3466346667187},
      {Strategy::kDefaultNt, 0, 4096, 116736, 2981.870229007633,
       1645.0831754053484, 2593.3466346667187},
      {Strategy::kVmsplice, 0, 4096, 0, 2532.414910858995,
       1807.4031231925967, 18063.583815028902},
      {Strategy::kVmspliceWritev, 0, 4096, 116736, 1966.6456891126493,
       1499.5201535508636, 2484.2075377954434},
      {Strategy::kKnem, 0, 4096, 0, 3464.5232815964523, 2557.283142389525,
       27716.186252771615},
      {Strategy::kKnemDma, 0, 0, 0, 2416.8600154679038, 2416.8600154679038,
       4694.8356807511736},
      {Strategy::kKnemAsyncCopy, 0, 4096, 0, 2293.0730848253593,
       1585.6504972599957, 18344.584678602874},
      {Strategy::kKnemAsyncDma, 0, 0, 0, 2565.6814449917897,
       2565.6814449917897, 4761.9047619047615},
      {Strategy::kVmspliceIoat, 0, 0, 0, 2389.1437308868503,
       2389.1437308868503, 4681.6479400749058},
  };
  std::vector<int> cores{0, 1, 2, 3, 4, 5, 6, 7};
  for (const Golden& g : golden) {
    LmtModels m(e5345_machine());
    EXPECT_EQ(m.pingpong_l2_misses(g.s, 0, 1, 64 * KiB), g.pp_miss_01)
        << to_string(g.s);
    EXPECT_EQ(m.pingpong_l2_misses(g.s, 0, 7, 64 * KiB), g.pp_miss_07)
        << to_string(g.s);
    EXPECT_EQ(m.alltoall_l2_misses(g.s, cores, 64 * KiB), g.a2a_miss)
        << to_string(g.s);
    EXPECT_EQ(m.pingpong_mibs(g.s, 0, 1, 64 * KiB), g.pp_mibs_01)
        << to_string(g.s);
    EXPECT_EQ(m.pingpong_mibs(g.s, 0, 7, 64 * KiB), g.pp_mibs_07)
        << to_string(g.s);
    EXPECT_EQ(m.alltoall_mibs(g.s, cores, 64 * KiB), g.a2a_mibs)
        << to_string(g.s);
  }
}

}  // namespace
}  // namespace nemo::sim
