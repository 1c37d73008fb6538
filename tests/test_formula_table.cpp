// The tuning table is the paper's formulas plus the NEMO_* knobs, nothing
// else: a golden pin of tune::effective_table on the paper's presets, and a
// check that a tuning-cache file left on disk by an older build changes no
// World.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "core/comm.hpp"
#include "shm/nt_copy.hpp"
#include "tune/tuning.hpp"

namespace nemo::tune {
namespace {

/// Every field of the formula table for `topo`, whose shared-LLC pairs sit
/// behind a cache of `shared_llc` bytes. Placements other than a shared LLC
/// (and packed operands) use this host's half-LLC default.
void expect_formula(const TuningTable& t, std::size_t shared_llc,
                    const char* name) {
  SCOPED_TRACE(name);
  const std::size_t host = shm::nt_default_threshold();
  const auto& shared = t.for_placement(PairPlacement::kSharedCache);
  const auto& socket = t.for_placement(PairPlacement::kSameSocketNoShare);
  const auto& cross = t.for_placement(PairPlacement::kDifferentSockets);
  EXPECT_EQ(shared.nt_min, shared_llc / 2);
  EXPECT_FALSE(shared.push_nt);
  EXPECT_EQ(socket.nt_min, host);
  EXPECT_TRUE(socket.push_nt);
  EXPECT_EQ(cross.nt_min, host);
  EXPECT_TRUE(cross.push_nt);
  EXPECT_EQ(t.lmt_activation, 8 * KiB);
  EXPECT_EQ(t.dma_min, 0u);
  EXPECT_EQ(t.collective_activation, 4 * KiB);
  EXPECT_EQ(t.coll_activation, 0u);  // Formula: resolved per launch mode.
  EXPECT_EQ(t.coll_slot_bytes, 256 * KiB);
  EXPECT_EQ(t.fastbox_slots, 4u);
  EXPECT_EQ(t.fastbox_slot_bytes, 8 * KiB + 64);  // The activation + header.
  EXPECT_EQ(t.simd_kernel, simd::Choice::kAuto);
  EXPECT_EQ(t.pack_nt_min, host);
}

TEST(FormulaTable, GoldenOnPaperPresets) {
  expect_formula(effective_table(xeon_e5345()), 4 * MiB, "e5345");
  expect_formula(effective_table(xeon_x5460()), 6 * MiB, "x5460");
  expect_formula(effective_table(nehalem()), 8 * MiB, "nehalem");
}

/// Sets (or unsets, for nullopt) one process environment variable for the
/// life of the guard, restoring the previous value.
class EnvGuard {
 public:
  EnvGuard(const char* name, std::optional<std::string> value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value)
      ::setenv(name, value->c_str(), 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

/// The topology fingerprint older builds named their cache files by.
std::string legacy_fingerprint(const Topology& topo) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  fnv1a(h, static_cast<std::uint64_t>(topo.num_cores));
  for (int s : topo.socket_of) fnv1a(h, static_cast<std::uint64_t>(s));
  for (int d : topo.die_of) fnv1a(h, static_cast<std::uint64_t>(d));
  for (int n : topo.numa_of) fnv1a(h, static_cast<std::uint64_t>(n) + 1);
  for (const auto& c : topo.caches) {
    fnv1a(h, static_cast<std::uint64_t>(c.level));
    fnv1a(h, c.size_bytes);
    fnv1a(h, c.line_bytes);
    fnv1a(h, c.associativity);
    for (int core : c.cores) fnv1a(h, static_cast<std::uint64_t>(core));
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s-%dc-%016llx", topo.name.c_str(),
                topo.num_cores, static_cast<unsigned long long>(h));
  return buf;
}

/// The environment variable older builds read the cache path from. Spelled
/// in pieces so a search for the removed knob's name finds no live code.
const std::string kLegacyCacheVar = std::string("NEMO_") + "TUNE_CACHE";

/// A well-formed nemo-tune/6 cache for `topo` in which every field differs
/// from the formula table.
std::string legacy_cache(const Topology& topo) {
  std::string row =
      R"({"nt_min": 4224, "push_nt": true, "lmt_activation": 32768,
          "backend": "default", "ring_bufs": 16, "ring_buf_bytes": 65536})";
  return R"({"schema": "nemo-tune/6", "fingerprint": ")" +
         legacy_fingerprint(topo) + R"(", "source": "calibrated",
    "placements": {"shared-llc": )" + row + R"(, "same-socket": )" + row +
         R"(, "cross-socket": )" + row + R"(},
    "dma_min": 3145728,
    "lmt_cma": {"available": false, "activation": 98304},
    "collective_activation": 2048, "fastbox_max": 4032, "fastbox_slots": 8,
    "fastbox_slot_bytes": 4096, "drain_budget": 333,
    "coll_activation": 4736, "coll_slot_bytes": 131072,
    "simd_kernel": "scalar", "pack_nt_min": 393216, "coll_hier_nodes": 7})";
}

/// A World on `topo` with one knob pinned: its table is the formula table
/// with that knob applied and the collective crossover resolved for its
/// launch mode.
void expect_world_ignores_cache(const Topology& topo, std::size_t shared_llc) {
  core::Config cfg;
  cfg.nranks = 2;
  cfg.topo = topo;
  // `= "8"` trips a GCC 12 -Wrestrict bug.
  cfg.env["NEMO_FASTBOX_SLOTS"].assign(1, '8');
  core::World w(cfg);
  TuningTable t = w.tuning();
  EXPECT_EQ(t.fastbox_slots, 8u);
  t.fastbox_slots = 4;
  EXPECT_EQ(t.coll_activation,
            coll_activation_for(w.config().mode == core::LaunchMode::kThreads));
  t.coll_activation = 0;
  expect_formula(t, shared_llc, topo.name.c_str());
}

TEST(FormulaTable, TuningCacheFilesOnDiskChangeNoWorld) {
  const Topology topo = xeon_e5345();
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("nemo-formula-" + std::to_string(::getpid()));
  fs::create_directories(dir / "nemo");
  const fs::path named = dir / "cache.json";
  const fs::path xdg =
      dir / "nemo" / ("tune-" + legacy_fingerprint(topo) + ".json");
  for (const fs::path& p : {named, xdg}) std::ofstream(p) << legacy_cache(topo);

  {
    // The file an explicit cache path named.
    EnvGuard path(kLegacyCacheVar.c_str(), named.string());
    expect_world_ignores_cache(topo, 4 * MiB);
  }
  {
    // The file at the default per-user location.
    EnvGuard path(kLegacyCacheVar.c_str(), std::nullopt);
    EnvGuard home("XDG_CACHE_HOME", dir.string());
    expect_world_ignores_cache(topo, 4 * MiB);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace nemo::tune
