// Selection policy (§3.5): DMAmin formula against every preset topology, the
// measured thresholds the paper reports, activation thresholds (from the
// tuning table), and backend choice per placement.
#include <gtest/gtest.h>

#include "knem/knem_device.hpp"
#include "lmt/policy.hpp"
#include "tune/tuning.hpp"

namespace nemo::lmt {
namespace {

TEST(Policy, DmaMinFormulaE5345) {
  // 4 MiB L2 shared between 2 cores -> 1 MiB (the paper's measured shared-
  // cache threshold).
  Topology t = xeon_e5345();
  for (int c = 0; c < t.num_cores; ++c)
    EXPECT_EQ(Policy::dma_min(t, c), 1 * MiB) << "core " << c;
}

TEST(Policy, DmaMinFormulaX5460FiftyPercentHigher) {
  // 6 MiB L2: threshold 1.5 MiB — "another host with 6 MiB L2 caches
  // increased the threshold by 50%".
  Topology t = xeon_x5460();
  EXPECT_EQ(Policy::dma_min(t, 0), 1 * MiB + 512 * KiB);
  EXPECT_EQ(Policy::dma_min(t, 0), Policy::dma_min(xeon_e5345(), 0) * 3 / 2);
}

TEST(Policy, DmaMinUnsharedCacheDoubles) {
  // Per-core LLC (no sharing): cache/(2*1) — the paper's 2 MiB no-shared
  // case, modeled as a flat SMP with a private 4 MiB LLC.
  Topology t = flat_smp(4, 4 * MiB);
  EXPECT_EQ(Policy::dma_min(t, 0), 2 * MiB);
}

TEST(Policy, DmaMinNehalemAllCoresShareL3) {
  Topology t = nehalem();
  // 8 MiB / (2*4) = 1 MiB.
  EXPECT_EQ(Policy::dma_min(t, 2), 1 * MiB);
}

/// A policy on the paper's machine over `t` (the formula table unless a
/// test edits it).
Policy e5345_policy(const tune::TuningTable& t, PolicyConfig cfg = {}) {
  return Policy(xeon_e5345(), cfg, t);
}

TEST(Policy, TableDmaMinOverridesTheFormula) {
  // A nonzero TuningTable::dma_min replaces the formula; 0 keeps it.
  tune::TuningTable t = tune::effective_table(xeon_e5345());
  Policy p = e5345_policy(t);
  EXPECT_EQ(p.dma_min_for(0), 1 * MiB);
  t.dma_min = 123 * KiB;
  EXPECT_EQ(p.dma_min_for(0), 123 * KiB);
}

TEST(Policy, ActivationThresholdsComeFromTheTable) {
  tune::TuningTable t = tune::effective_table(xeon_e5345());
  Policy p = e5345_policy(t);
  // The formula table: KNEM pays off past 8 KiB pingpong / 4 KiB
  // collectives (§4.2, §4.4).
  EXPECT_FALSE(p.use_lmt(8 * KiB));
  EXPECT_TRUE(p.use_lmt(8 * KiB + 1));
  EXPECT_FALSE(p.use_lmt(4 * KiB, /*collective=*/true));
  EXPECT_TRUE(p.use_lmt(4 * KiB + 1, /*collective=*/true));
  // Edits to the table (NEMO_LMT_ACTIVATION) move both switches.
  t.lmt_activation = 16 * KiB;
  t.collective_activation = 1 * KiB;
  EXPECT_FALSE(p.use_lmt(16 * KiB));
  EXPECT_TRUE(p.use_lmt(16 * KiB + 1));
  EXPECT_FALSE(p.use_lmt(1 * KiB, /*collective=*/true));
  EXPECT_TRUE(p.use_lmt(1 * KiB + 1, /*collective=*/true));
  // The table's activation holds without KNEM too.
  PolicyConfig no_knem;
  no_knem.knem_available = false;
  EXPECT_TRUE(e5345_policy(t, no_knem).use_lmt(16 * KiB + 1));
}

TEST(Policy, ChooseKindPrefersKnem) {
  tune::TuningTable t = tune::effective_table(xeon_e5345());
  Policy p = e5345_policy(t);
  EXPECT_EQ(p.choose_kind(0, 1), LmtKind::kKnem);
  EXPECT_EQ(p.choose_kind(0, 7), LmtKind::kKnem);
}

TEST(Policy, ChooseKindVmspliceOnlyWithoutSharedCache) {
  tune::TuningTable t = tune::effective_table(xeon_e5345());
  PolicyConfig cfg;
  cfg.knem_available = false;  // "loading a custom module not acceptable".
  Policy p = e5345_policy(t, cfg);
  // Shared cache: the two-copy scheme wins (§4.1) -> default.
  EXPECT_EQ(p.choose_kind(0, 1), LmtKind::kDefaultShm);
  // No shared cache: vmsplice.
  EXPECT_EQ(p.choose_kind(0, 2), LmtKind::kVmsplice);
  EXPECT_EQ(p.choose_kind(0, 7), LmtKind::kVmsplice);
}

TEST(Policy, ChooseKindFallsBackToDefault) {
  tune::TuningTable t = tune::effective_table(xeon_e5345());
  PolicyConfig cfg;
  cfg.knem_available = false;
  cfg.vmsplice_available = false;
  EXPECT_EQ(e5345_policy(t, cfg).choose_kind(0, 7), LmtKind::kDefaultShm);
}

TEST(Policy, KnemFlagsExplicitModes) {
  tune::TuningTable t = tune::effective_table(xeon_e5345());
  Policy p = e5345_policy(t);
  EXPECT_EQ(p.knem_flags(1, 0, KnemMode::kSyncCopy), 0u);
  EXPECT_EQ(p.knem_flags(1, 0, KnemMode::kAsyncCopy), knem::kFlagAsync);
  EXPECT_EQ(p.knem_flags(1, 0, KnemMode::kSyncDma), knem::kFlagDma);
  EXPECT_EQ(p.knem_flags(1, 0, KnemMode::kAsyncDma),
            knem::kFlagDma | knem::kFlagAsync);
}

TEST(Policy, KnemAutoAppliesDmaMinAndAsyncIffDma) {
  tune::TuningTable t = tune::effective_table(xeon_e5345());
  Policy p = e5345_policy(t);
  // Below 1 MiB on a shared-L2 core: CPU copy, synchronous.
  EXPECT_EQ(p.knem_flags(1 * MiB - 1, 0, KnemMode::kAuto), 0u);
  // At/above: DMA + async (KNEM enables async by default only with I/OAT).
  EXPECT_EQ(p.knem_flags(1 * MiB, 0, KnemMode::kAuto),
            knem::kFlagDma | knem::kFlagAsync);
}

TEST(Policy, KnemAutoRespectsDmaAvailability) {
  tune::TuningTable t = tune::effective_table(xeon_e5345());
  PolicyConfig cfg;
  cfg.dma_available = false;
  Policy p = e5345_policy(t, cfg);
  EXPECT_EQ(p.knem_flags(16 * MiB, 0, KnemMode::kAuto), 0u);
  EXPECT_EQ(p.knem_flags(16 * MiB, 0, KnemMode::kSyncDma), 0u);
}

TEST(Policy, ThresholdProportionalToCacheSize) {
  // DMAmin scales linearly with LLC size at fixed sharing degree.
  for (std::size_t mb : {2u, 4u, 8u, 16u}) {
    Topology t = xeon_e5345();
    for (auto& c : t.caches)
      if (c.level == 2) c.size_bytes = mb * MiB;
    EXPECT_EQ(Policy::dma_min(t, 0), mb * MiB / 4);
  }
}

}  // namespace
}  // namespace nemo::lmt
