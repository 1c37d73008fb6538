// The tune subsystem: placement-keyed tables, the monotone crossover search
// on synthetic cost models, tuning-cache round-trips + fingerprint
// invalidation, knob precedence, and counter accuracy against known
// traffic.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "core/knobs.hpp"
#include "lmt/policy.hpp"
#include "tune/calibrate.hpp"
#include "tune/counters.hpp"
#include "tune/json.hpp"
#include "tune/tuning.hpp"

namespace nemo::tune {
namespace {

/// Scoped env var setter for the process-scoped knobs (NEMO_TUNE,
/// NEMO_TUNE_CACHE), whose environment parsing these tests cover.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

std::string temp_path(const char* tag) {
  return "/tmp/nemo-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".json";
}

TEST(Json, RoundTripsScalarsArraysObjects) {
  std::string text = R"({"a": 1, "b": "x\ny", "c": [true, null, 2.5],
                         "d": {"nested": 18446744073709551615}})";
  auto j = Json::parse(text);
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ((*j)["a"].as_uint(), 1u);
  EXPECT_EQ((*j)["b"].as_string(), "x\ny");
  EXPECT_EQ((*j)["c"].items().size(), 3u);
  EXPECT_TRUE((*j)["c"].items()[0].as_bool());
  EXPECT_TRUE((*j)["c"].items()[1].is_null());
  EXPECT_DOUBLE_EQ((*j)["c"].items()[2].as_double(), 2.5);
  EXPECT_EQ((*j)["d"]["nested"].as_uint(), 18446744073709551615ULL);

  // Serialized form parses back to the same values.
  auto j2 = Json::parse(j->dump());
  ASSERT_TRUE(j2.has_value());
  EXPECT_EQ((*j2)["d"]["nested"].as_uint(), 18446744073709551615ULL);

  std::string err;
  EXPECT_FALSE(Json::parse("{\"unterminated\": ", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(Json::parse("{} trailing", &err).has_value());
}

TEST(CrossoverSearch, FindsSyntheticBreakEvenPoint) {
  // Mechanism A: no setup, 10 ns/byte. Mechanism B: 100000 ns setup,
  // 2 ns/byte. Break-even at 12500 bytes: B first wins at 12501.
  auto cost_a = [](std::size_t s) { return 10.0 * static_cast<double>(s); };
  auto cost_b = [](std::size_t s) {
    return 100000.0 + 2.0 * static_cast<double>(s);
  };
  auto x = find_crossover(cost_a, cost_b, 1024, 1 * MiB, /*refine_steps=*/30);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, 12501u);
}

TEST(CrossoverSearch, EdgeCases) {
  auto cheap = [](std::size_t) { return 1.0; };
  auto dear = [](std::size_t) { return 2.0; };
  // B never wins on the range.
  EXPECT_FALSE(find_crossover(cheap, dear, 1024, 1 * MiB).has_value());
  // B already wins at the lower bound.
  auto x = find_crossover(dear, cheap, 1024, 1 * MiB);
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, 1024u);
}

TEST(Fingerprint, DistinguishesTopologiesAndIsStable) {
  std::string a = topology_fingerprint(xeon_e5345());
  std::string b = topology_fingerprint(xeon_x5460());
  EXPECT_NE(a, b);
  EXPECT_EQ(a, topology_fingerprint(xeon_e5345()));
  // The logical layout is hashed, not the name: same layout under another
  // name shares the hash suffix but not the prefix.
  Topology renamed = xeon_e5345();
  renamed.name = "clovertown";
  EXPECT_NE(a, topology_fingerprint(renamed));
  EXPECT_EQ(a.substr(a.size() - 16),
            topology_fingerprint(renamed).substr(
                topology_fingerprint(renamed).size() - 16));
}

TEST(TuningTable, JsonRoundTripPreservesEveryField) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.source = "calibrated";
  t.for_placement(PairPlacement::kSharedCache).nt_min = 3 * MiB;
  t.for_placement(PairPlacement::kSharedCache).backend = Backend::kDefault;
  t.for_placement(PairPlacement::kDifferentSockets).nt_min = 7 * MiB;
  t.for_placement(PairPlacement::kDifferentSockets).push_nt = true;
  t.for_placement(PairPlacement::kDifferentSockets).lmt_activation = 32 * KiB;
  t.for_placement(PairPlacement::kDifferentSockets).backend =
      Backend::kVmsplice;
  t.dma_min = 2 * MiB;
  t.collective_activation = 2 * KiB;
  t.fastbox_max = 4 * KiB - 64;
  t.fastbox_slots = 8;
  t.fastbox_slot_bytes = 4 * KiB;
  t.drain_budget = 512;

  auto r = from_json(to_json(t));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->fingerprint, t.fingerprint);
  EXPECT_EQ(r->source, "calibrated");
  for (int i = 0; i < TuningTable::kPlacements; ++i) {
    const auto& want = t.place[static_cast<std::size_t>(i)];
    const auto& got = r->place[static_cast<std::size_t>(i)];
    EXPECT_EQ(got.nt_min, want.nt_min) << "placement " << i;
    EXPECT_EQ(got.push_nt, want.push_nt) << "placement " << i;
    EXPECT_EQ(got.lmt_activation, want.lmt_activation) << "placement " << i;
    EXPECT_EQ(got.backend, want.backend) << "placement " << i;
  }
  EXPECT_EQ(r->dma_min, 2 * MiB);
  EXPECT_EQ(r->collective_activation, 2 * KiB);
  EXPECT_EQ(r->fastbox_max, 4 * KiB - 64);
  EXPECT_EQ(r->fastbox_slots, 8u);
  EXPECT_EQ(r->fastbox_slot_bytes, 4 * KiB);
  EXPECT_EQ(r->drain_budget, 512u);
}

TEST(TuningTable, CollFieldsRoundTrip) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.coll_activation = 48 * KiB;
  t.coll_slot_bytes = 128 * KiB;
  t.coll_hier_nodes = 7;
  std::string body = to_json(t);
  EXPECT_NE(body.find("nemo-tune/6"), std::string::npos);
  auto r = from_json(body);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->coll_activation, 48 * KiB);
  EXPECT_EQ(r->coll_slot_bytes, 128 * KiB);
  EXPECT_EQ(r->coll_hier_nodes, 7u);
  // Schema-6 caches written while the arena barrier still had a tree
  // schedule carry its two keys; unknown keys are ignored, so they load.
  std::string legacy = body;
  auto at = legacy.find('{');
  ASSERT_NE(at, std::string::npos);
  legacy.insert(at + 1, "\"barrier_tree_ranks\": 8, \"barrier_tree_k\": 4, ");
  auto old = from_json(legacy);
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(*old, *r);
  // Out-of-range coll geometry degrades to "invalid" like the fastbox
  // fields (it feeds coll::WorldColl::create directly).
  TuningTable bad = t;
  bad.coll_slot_bytes = 100;  // Not a cacheline multiple.
  EXPECT_FALSE(from_json(to_json(bad)).has_value());
}

TEST(TuningTable, SimdAndPackFieldsRoundTripInSchema4) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.simd_kernel = simd::Choice::kAvx2;
  t.pack_nt_min = 384 * KiB;
  auto r = from_json(to_json(t));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->simd_kernel, simd::Choice::kAvx2);
  EXPECT_EQ(r->pack_nt_min, 384 * KiB);
  // An unknown kernel string is a corrupt cache, not a silent kAuto.
  std::string body = to_json(t);
  auto at = body.find("\"avx2\"");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, std::strlen("\"avx2\""), "\"mmx9\"");
  EXPECT_FALSE(from_json(body).has_value());
}

TEST(TuningCache, OlderSchemasAreStaleAndFallBackToFormulas) {
  // Only nemo-tune/6 loads: a schema 1-5 file is a stale cache, so
  // from_json rejects it and effective_table falls back to the formulas.
  Topology topo = xeon_e5345();
  TuningTable t = formula_defaults(topo);
  t.drain_budget = 333;
  std::string current = to_json(t);
  ASSERT_TRUE(from_json(current).has_value());
  std::string path = temp_path("stale");
  ScopedEnv cache_env("NEMO_TUNE_CACHE", path);
  for (int schema = 1; schema <= 5; ++schema) {
    std::string body = current;
    auto at = body.find("nemo-tune/6");
    ASSERT_NE(at, std::string::npos);
    body.replace(at, std::strlen("nemo-tune/6"),
                 "nemo-tune/" + std::to_string(schema));
    std::string err;
    EXPECT_FALSE(from_json(body, &err).has_value()) << schema;
    EXPECT_NE(err.find("schema"), std::string::npos) << err;
    {
      std::ofstream f(path);
      f << body;
    }
    TuningTable eff = effective_table(topo);
    EXPECT_EQ(eff.source, "formula") << schema;
    EXPECT_EQ(eff, formula_defaults(topo)) << schema;
  }
  std::remove(path.c_str());
}

TEST(TuningCache, RoundTripAndFingerprintMismatchInvalidation) {
  std::string path = temp_path("cache");
  TuningTable t = formula_defaults(xeon_e5345());
  t.for_placement(PairPlacement::kSharedCache).nt_min = 3 * MiB;
  ASSERT_TRUE(store_cache(path, t));

  auto ok = load_cache(path, t.fingerprint);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->for_placement(PairPlacement::kSharedCache).nt_min, 3 * MiB);
  EXPECT_EQ(ok->source, "cache");

  // A cache written on another machine must be ignored, not applied.
  auto other = load_cache(path, topology_fingerprint(xeon_x5460()));
  EXPECT_FALSE(other.has_value());

  // Malformed cache: ignored.
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("{broken", f);
  std::fclose(f);
  EXPECT_FALSE(load_cache(path, t.fingerprint).has_value());

  // Out-of-range values (e.g. hand-edited fastbox geometry that would trip
  // shm::Fastbox::create's asserts): rejected, runtime keeps the formulas.
  TuningTable bad = t;
  bad.fastbox_slots = 0;
  ASSERT_TRUE(store_cache(path, bad));
  EXPECT_FALSE(load_cache(path, t.fingerprint).has_value());
  bad.fastbox_slots = 4;
  bad.fastbox_slot_bytes = 3000;  // Not a cache-line multiple.
  ASSERT_TRUE(store_cache(path, bad));
  EXPECT_FALSE(load_cache(path, t.fingerprint).has_value());

  EXPECT_FALSE(load_cache("/nonexistent/nope.json", t.fingerprint)
                   .has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, KnobsBeatCacheBeatsFormula) {
  Topology topo = xeon_e5345();
  std::string path = temp_path("prec");
  ScopedEnv cache_env("NEMO_TUNE_CACHE", path);

  // No cache: formula defaults.
  TuningTable formula = formula_defaults(topo);
  TuningTable eff = effective_table(topo);
  EXPECT_EQ(eff.source, "formula");
  EXPECT_EQ(eff.for_placement(PairPlacement::kSharedCache).nt_min,
            formula.for_placement(PairPlacement::kSharedCache).nt_min);

  // Cache present and valid: cache wins over formula.
  TuningTable cached = formula;
  cached.for_placement(PairPlacement::kSharedCache).nt_min = 3 * MiB;
  cached.drain_budget = 64;
  ASSERT_TRUE(store_cache(path, cached));
  eff = effective_table(topo);
  EXPECT_EQ(eff.source, "cache");
  EXPECT_EQ(eff.for_placement(PairPlacement::kSharedCache).nt_min, 3 * MiB);
  EXPECT_EQ(eff.drain_budget, 64u);

  // A knob wins over the cache when the World resolves it.
  {
    core::Config cfg;
    cfg.topo = topo;
    cfg.env = {{"NEMO_NT_MIN", "1MiB"}, {"NEMO_DRAIN_BUDGET", "32"}};
    core::Config w = core::resolve_config(cfg);
    EXPECT_EQ(w.tuning->source, "cache");
    EXPECT_EQ(w.tuning->for_placement(PairPlacement::kSharedCache).nt_min,
              1 * MiB);
    EXPECT_EQ(
        w.tuning->for_placement(PairPlacement::kDifferentSockets).nt_min,
        1 * MiB);
    EXPECT_EQ(w.tuning->drain_budget, 32u);
  }

  // NEMO_TUNE=0 (process-wide) disables the cache entirely.
  {
    ScopedEnv off("NEMO_TUNE", "0");
    eff = effective_table(topo);
    EXPECT_EQ(eff.source, "formula");
  }
  std::remove(path.c_str());
}

TEST(Policy, ConsultsPlacementRowsAndFallsBackOnAvailability) {
  Topology topo = xeon_e5345();
  TuningTable t = formula_defaults(topo);
  t.for_placement(PairPlacement::kSharedCache).lmt_activation = 16 * KiB;
  t.for_placement(PairPlacement::kSharedCache).backend = Backend::kDefault;
  t.for_placement(PairPlacement::kSameSocketNoShare).lmt_activation = 8 * KiB;
  t.for_placement(PairPlacement::kSameSocketNoShare).backend =
      Backend::kVmsplice;
  t.for_placement(PairPlacement::kDifferentSockets).lmt_activation = 4 * KiB;
  t.for_placement(PairPlacement::kDifferentSockets).backend = Backend::kKnem;
  t.collective_activation = 1 * KiB;
  t.dma_min = 2 * MiB;

  lmt::PolicyConfig pc;
  pc.tuning = &t;
  lmt::Policy p(topo, pc);

  // e5345: cores 0,1 share an L2; 0,2 same socket, no shared cache; 0,7
  // different sockets.
  EXPECT_FALSE(p.use_lmt(16 * KiB, false, 0, 1));
  EXPECT_TRUE(p.use_lmt(16 * KiB + 1, false, 0, 1));
  EXPECT_TRUE(p.use_lmt(8 * KiB + 1, false, 0, 2));
  EXPECT_FALSE(p.use_lmt(4 * KiB, false, 0, 7));
  EXPECT_TRUE(p.use_lmt(4 * KiB + 1, false, 0, 7));
  // Unknown cores read the cross-socket row.
  EXPECT_TRUE(p.use_lmt(4 * KiB + 1));
  // Collectives use the global collective activation.
  EXPECT_TRUE(p.use_lmt(1 * KiB + 1, /*collective=*/true, 0, 1));

  EXPECT_EQ(p.choose_kind(1 * MiB, 0, 1), lmt::LmtKind::kDefaultShm);
  EXPECT_EQ(p.choose_kind(1 * MiB, 0, 2), lmt::LmtKind::kVmsplice);
  EXPECT_EQ(p.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kKnem);
  // Measured DMAmin replaces the formula.
  EXPECT_EQ(p.dma_min_for(0), 2 * MiB);

  // Availability still gates the table's preference: no KNEM -> the
  // cross-socket row falls back down the chain, first to CMA (the same
  // single-copy shape without the driver)...
  lmt::PolicyConfig no_knem = pc;
  no_knem.knem_available = false;
  lmt::Policy p_cma(topo, no_knem);
  EXPECT_EQ(p_cma.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kCma);
  // ...but not below the tuned CMA activation...
  TuningTable t_act = t;
  t_act.cma_activation = 2 * MiB;
  lmt::PolicyConfig pc_act = no_knem;
  pc_act.tuning = &t_act;
  lmt::Policy p_act(topo, pc_act);
  EXPECT_EQ(p_act.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kVmsplice);
  // ...then to vmsplice, then the default ring.
  no_knem.cma_available = false;
  lmt::Policy p2(topo, no_knem);
  EXPECT_EQ(p2.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kVmsplice);
  no_knem.vmsplice_available = false;
  lmt::Policy p3(topo, no_knem);
  EXPECT_EQ(p3.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kDefaultShm);
  // A tuned row naming CMA outright is honoured when available.
  TuningTable t_cma = t;
  t_cma.for_placement(PairPlacement::kDifferentSockets).backend = Backend::kCma;
  lmt::PolicyConfig pc_cma = pc;
  pc_cma.tuning = &t_cma;
  lmt::Policy p4(topo, pc_cma);
  EXPECT_EQ(p4.choose_kind(1 * MiB, 0, 7), lmt::LmtKind::kCma);
}

TEST(TuningTable, CmaRowRoundTripsInSchema5) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.cma_available = false;
  t.cma_activation = 96 * KiB;
  t.for_placement(PairPlacement::kDifferentSockets).backend = Backend::kCma;
  std::string body = to_json(t);
  EXPECT_NE(body.find("\"lmt_cma\""), std::string::npos);
  EXPECT_NE(body.find("\"cma\""), std::string::npos);
  auto r = from_json(body);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->cma_available);
  EXPECT_EQ(r->cma_activation, 96 * KiB);
  EXPECT_EQ(r->for_placement(PairPlacement::kDifferentSockets).backend,
            Backend::kCma);
}

TEST(Calibrate, ProducesAPlausibleTableOnThisHost) {
  CalibrationOptions opt;
  opt.repeats = 1;
  opt.max_size = 4 * MiB;  // Keep the test fast.
  opt.pin = false;
  opt.feedback = false;  // The feedback pass is unit-tested separately.
  Topology topo = detect_host();
  TuningTable t = calibrate(topo, opt);
  EXPECT_EQ(t.source, "calibrated");
  EXPECT_EQ(t.fingerprint, topology_fingerprint(topo));
  for (const auto& pt : t.place) {
    EXPECT_GE(pt.lmt_activation, 256u);
    EXPECT_GT(pt.nt_min, 0u);
  }
  EXPECT_GE(t.fastbox_slot_bytes, 2 * KiB);
  EXPECT_LE(t.fastbox_slot_bytes, 16 * KiB);
  EXPECT_LE(t.fastbox_max,
            t.fastbox_slot_bytes - shm::FastboxSlot::kHeaderBytes);
}

// --- Feedback pass on synthetic counter streams -----------------------------

TEST(Feedback, CalmCountersLeaveTheTableUnchanged) {
  TuningTable t = formula_defaults(xeon_e5345());
  Counters c;
  c.progress_passes = 10000;
  c.ring_stalls = 10;        // 0.1%: below every threshold.
  c.drain_exhausted = 10;
  c.fastbox_hits = 1000;
  c.fastbox_fallbacks = 10;
  c.path_hist[0] = 5000;  // Rendezvous-dominated traffic.
  c.path_hist[Counters::kPathFastbox] = 1000;

  TuningTable out = apply_counter_feedback(t, c);
  EXPECT_EQ(out.drain_budget, t.drain_budget);
  EXPECT_EQ(out.fastbox_slots, t.fastbox_slots);
  EXPECT_FALSE(out.poll_hot);
  for (const auto& pt : out.place) EXPECT_EQ(pt.ring_bufs, 0u);
}

TEST(Feedback, DrainExhaustionDoublesTheDrainBudget) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.drain_budget = 256;
  Counters c;
  c.progress_passes = 1000;
  c.drain_exhausted = 200;  // 20% of passes hit the budget.
  TuningTable out = apply_counter_feedback(t, c);
  EXPECT_EQ(out.drain_budget, 512u);
  // Applying again keeps doubling, up to the cap.
  for (int i = 0; i < 10; ++i) out = apply_counter_feedback(out, c);
  EXPECT_EQ(out.drain_budget, 4096u);
}

TEST(Feedback, RingStallsDeepenTheRingPerPlacement) {
  TuningTable t = formula_defaults(xeon_e5345());
  Counters c;
  c.progress_passes = 1000;
  c.ring_stalls = 100;  // 10% of passes stalled a push.
  TuningTable out = apply_counter_feedback(t, c);
  // Rows inheriting the Config default (4) materialise it doubled.
  for (const auto& pt : out.place) EXPECT_EQ(pt.ring_bufs, 8u);
  // A row that already names a depth doubles from there, capped at 32.
  out.for_placement(PairPlacement::kDifferentSockets).ring_bufs = 20;
  out = apply_counter_feedback(out, c);
  EXPECT_EQ(out.for_placement(PairPlacement::kDifferentSockets).ring_bufs,
            32u);
  EXPECT_EQ(out.for_placement(PairPlacement::kSharedCache).ring_bufs, 16u);
}

TEST(Feedback, CollEpochStallsRaiseTheCollActivation) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.coll_activation = 16 * KiB;
  Counters c;
  c.progress_passes = 1000;
  c.coll_shm_ops = 100;
  c.coll_epoch_stalls = 800;  // 8 stalls/op: sync-dominated arena ops.
  TuningTable out = apply_counter_feedback(t, c);
  EXPECT_EQ(out.coll_activation, 32 * KiB);
  // Doubling is capped at 1 MiB.
  for (int i = 0; i < 10; ++i) out = apply_counter_feedback(out, c);
  EXPECT_EQ(out.coll_activation, 1 * MiB);

  // A healthy stall rate (or no shm collective traffic at all) leaves the
  // crossover alone.
  Counters calm;
  calm.progress_passes = 1000;
  calm.coll_shm_ops = 100;
  calm.coll_epoch_stalls = 100;  // 1 stall/op.
  EXPECT_EQ(apply_counter_feedback(t, calm).coll_activation, 16 * KiB);
  Counters none;
  none.progress_passes = 1000;
  EXPECT_EQ(apply_counter_feedback(t, none).coll_activation, 16 * KiB);
}

TEST(Feedback, NearThresholdPacksLowerThePackNtCutoff) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.pack_nt_min = 2 * MiB;
  Counters c;
  c.progress_passes = 1000;
  c.pack_direct_ops = 100;
  c.pack_direct_bytes = 100 * (1536 * KiB);  // Avg 1.5 MiB: above half the
  c.pack_nt_ops = 0;                         // cutoff, never streamed.
  TuningTable out = apply_counter_feedback(t, c);
  EXPECT_EQ(out.pack_nt_min, 1536 * KiB);

  // Small packs (below half the cutoff) are healthy cached traffic.
  Counters small;
  small.progress_passes = 1000;
  small.pack_direct_ops = 100;
  small.pack_direct_bytes = 100 * (4 * KiB);
  EXPECT_EQ(apply_counter_feedback(t, small).pack_nt_min, 2 * MiB);

  // Packs that already stream need no reaction.
  Counters streaming = c;
  streaming.pack_nt_ops = 100;
  EXPECT_EQ(apply_counter_feedback(t, streaming).pack_nt_min, 2 * MiB);

  // The formula sentinel (0) and the "never" sentinel are user intent the
  // feedback pass must not overwrite.
  TuningTable never = t;
  never.pack_nt_min = SIZE_MAX;
  EXPECT_EQ(apply_counter_feedback(never, c).pack_nt_min, SIZE_MAX);

  // The reaction floors at 64 KiB even when the average sits below it.
  TuningTable low = t;
  low.pack_nt_min = 32 * KiB;
  Counters tiny;
  tiny.progress_passes = 1000;
  tiny.pack_direct_ops = 100;
  tiny.pack_direct_bytes = 100 * (20 * KiB);  // >= half of 32 KiB.
  EXPECT_EQ(apply_counter_feedback(low, tiny).pack_nt_min, 64 * KiB);
}

TEST(Feedback, FastboxPressureGrowsSlotsAndEnablesHotPolling) {
  TuningTable t = formula_defaults(xeon_e5345());
  Counters c;
  c.progress_passes = 1000;
  c.fastbox_hits = 600;
  c.fastbox_fallbacks = 400;  // 40% fallback rate.
  TuningTable out = apply_counter_feedback(t, c);
  EXPECT_EQ(out.fastbox_slots, t.fastbox_slots * 2);
  EXPECT_TRUE(out.poll_hot);

  // Fastbox-dominant traffic alone also flips polling order.
  Counters d;
  d.progress_passes = 1000;
  d.path_hist[Counters::kPathFastbox] = 900;
  d.path_hist[Counters::kPathEager] = 100;
  out = apply_counter_feedback(t, d);
  EXPECT_EQ(out.fastbox_slots, t.fastbox_slots);  // No fallbacks: keep size.
  EXPECT_TRUE(out.poll_hot);
}

TEST(Feedback, NewFieldsSurviveTheJsonCache) {
  TuningTable t = formula_defaults(xeon_e5345());
  t.for_placement(PairPlacement::kDifferentSockets).ring_bufs = 16;
  t.for_placement(PairPlacement::kDifferentSockets).ring_buf_bytes = 64 * KiB;
  t.poll_hot = true;
  auto r = from_json(to_json(t));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->for_placement(PairPlacement::kDifferentSockets).ring_bufs,
            16u);
  EXPECT_EQ(
      r->for_placement(PairPlacement::kDifferentSockets).ring_buf_bytes,
      64 * KiB);
  EXPECT_TRUE(r->poll_hot);
  EXPECT_EQ(r->for_placement(PairPlacement::kSharedCache).ring_bufs, 0u);

  // Out-of-range ring geometry degrades to the formulas like every other
  // hand-edited cache field.
  TuningTable bad = t;
  bad.for_placement(PairPlacement::kSharedCache).ring_buf_bytes = 3000;
  EXPECT_FALSE(from_json(to_json(bad)).has_value());
}

TEST(Feedback, ProbeProducesCountersAndAppliesFeedback) {
  // A real (tiny) probe world: deterministic assertions only on structure,
  // not on timing-dependent counter magnitudes.
  Topology topo = detect_host();
  TuningTable t = formula_defaults(topo);
  FeedbackOptions fopt;
  fopt.iters = 2;
  fopt.rndv_bytes = 32 * KiB;
  auto c = run_feedback_probe(topo, t, 2, fopt);
  ASSERT_TRUE(c.has_value());
  EXPECT_GT(c->progress_passes, 0u);
  std::uint64_t sends = 0;
  for (int i = 0; i < Counters::kPaths; ++i)
    sends += c->path_hist[static_cast<std::size_t>(i)];
  // 2 ranks x 2 iters x (1 rendezvous + 1 eager) sends each.
  EXPECT_EQ(sends, 8u);
}

TEST(Counters, SizeClassesAndAccumulation) {
  EXPECT_EQ(Counters::size_class(0), 0);
  EXPECT_EQ(Counters::size_class(1), 0);
  EXPECT_EQ(Counters::size_class(2), 1);
  EXPECT_EQ(Counters::size_class(128), 7);
  EXPECT_EQ(Counters::size_class(129), 7);
  EXPECT_EQ(Counters::size_class(64 * KiB), 16);

  Counters a, b;
  a.record_send(128, Counters::kPathFastbox);
  a.fastbox_hits = 1;
  b.record_send(64 * KiB, 0);
  b.ring_stalls = 3;
  a += b;
  EXPECT_EQ(a.sent_by_class[7], 1u);
  EXPECT_EQ(a.sent_by_class[16], 1u);
  EXPECT_EQ(a.ring_stalls, 3u);

  // The JSON dump carries the populated buckets and the hit rate.
  auto j = Json::parse(telemetry_json("t", &a, 1));
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ((*j)["total"]["sent_by_class"]["128B"].as_uint(), 1u);
  EXPECT_EQ((*j)["total"]["sent_by_class"]["64KiB"].as_uint(), 1u);
  EXPECT_EQ((*j)["total"]["ring_stalls"].as_uint(), 3u);
  EXPECT_DOUBLE_EQ((*j)["total"]["fastbox_hit_rate"].as_double(), 1.0);
}

}  // namespace
}  // namespace nemo::tune

namespace nemo::core {
namespace {

using tune::Counters;

TEST(EngineCounters, MatchKnownTraffic) {
  // Hermetic: no cache pickup from the host.
  Config cfg;
  cfg.tuning = tune::formula_defaults(detect_host());
  cfg.nranks = 2;
  cfg.lmt = lmt::LmtKind::kDefaultShm;  // Pin the rendezvous backend.
  constexpr int kSmall = 6, kBig = 2;
  bool ok = run(cfg, [&](Comm& comm) {
    std::vector<std::byte> small(128), big(256 * KiB);
    if (comm.rank() == 0) {
      for (int i = 0; i < kSmall; ++i) {
        pattern_fill(small, static_cast<std::uint64_t>(i));
        comm.send(small.data(), small.size(), 1, 1);
      }
      for (int i = 0; i < kBig; ++i) {
        pattern_fill(big, static_cast<std::uint64_t>(100 + i));
        comm.send(big.data(), big.size(), 1, 2);
      }
      comm.hard_barrier();
      const Counters& c = comm.engine().counters();
      // Every small message took either the fastbox or the eager queue.
      EXPECT_EQ(c.path_hist[Counters::kPathFastbox] +
                    c.path_hist[Counters::kPathEager],
                static_cast<std::uint64_t>(kSmall));
      EXPECT_EQ(c.fastbox_hits, c.path_hist[Counters::kPathFastbox]);
      // Both big messages went through the default rendezvous backend.
      EXPECT_EQ(c.path_hist[0],
                static_cast<std::uint64_t>(kBig));
      EXPECT_EQ(c.sent_by_class[Counters::size_class(128)],
                static_cast<std::uint64_t>(kSmall));
      EXPECT_EQ(c.sent_by_class[Counters::size_class(256 * KiB)],
                static_cast<std::uint64_t>(kBig));
    } else {
      for (int i = 0; i < kSmall; ++i) {
        comm.recv(small.data(), small.size(), 0, 1);
        EXPECT_EQ(pattern_check(small, static_cast<std::uint64_t>(i)),
                  kPatternOk);
      }
      for (int i = 0; i < kBig; ++i) {
        comm.recv(big.data(), big.size(), 0, 2);
        EXPECT_EQ(pattern_check(big, static_cast<std::uint64_t>(100 + i)),
                  kPatternOk);
      }
      comm.hard_barrier();
      EXPECT_GT(comm.engine().counters().progress_passes, 0u);
    }
  });
  EXPECT_TRUE(ok);
}

TEST(EngineCounters, DrainBudgetExhaustionIsRecorded) {
  Config cfg;
  cfg.tuning = tune::formula_defaults(detect_host());
  cfg.env["NEMO_DRAIN_BUDGET"] = "1";
  cfg.nranks = 2;
  cfg.use_fastbox = false;  // Force every message through the queue.
  bool ok = run(cfg, [&](Comm& comm) {
    EXPECT_EQ(comm.world().tuning().drain_budget, 1u);
    constexpr int kMsgs = 16;
    std::vector<std::byte> buf(128);
    if (comm.rank() == 0) {
      std::vector<Request> reqs;
      std::vector<std::vector<std::byte>> bufs(
          kMsgs, std::vector<std::byte>(128));
      for (int i = 0; i < kMsgs; ++i)
        reqs.push_back(comm.isend(bufs[static_cast<std::size_t>(i)].data(),
                                  128, 1, 5));
      comm.hard_barrier();  // Receiver starts draining only now.
      comm.waitall(reqs);
    } else {
      comm.hard_barrier();
      for (int i = 0; i < kMsgs; ++i) comm.recv(buf.data(), 128, 0, 5);
      // With a 1-cell budget and 16 queued messages, progress passes must
      // have hit the budget repeatedly.
      EXPECT_GT(comm.engine().counters().drain_exhausted, 0u);
    }
  });
  EXPECT_TRUE(ok);
}

TEST(EngineCounters, TunedFastboxCutoffRoutesBiggerMessages) {
  // 4 KiB slots with a raised cutoff: a 3000-byte message (too big for the
  // old 2 KiB slot) now rides the fastbox.
  Config cfg;
  cfg.tuning = tune::formula_defaults(detect_host());
  cfg.env = {{"NEMO_FASTBOX_SLOT_BYTES", "4KiB"}, {"NEMO_FASTBOX_MAX", "4KiB"}};
  cfg.nranks = 2;
  bool ok = run(cfg, [&](Comm& comm) {
    EXPECT_EQ(comm.world().tuning().fastbox_slot_bytes, 4 * KiB);
    std::vector<std::byte> buf(3000);
    if (comm.rank() == 0) {
      pattern_fill(buf, 7);
      comm.send(buf.data(), buf.size(), 1, 9);
      comm.hard_barrier();
      EXPECT_EQ(comm.engine().stats().fastbox_sent, 1u);
    } else {
      comm.recv(buf.data(), buf.size(), 0, 9);
      EXPECT_EQ(pattern_check(buf, 7), kPatternOk);
      comm.hard_barrier();
    }
  });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace nemo::core
