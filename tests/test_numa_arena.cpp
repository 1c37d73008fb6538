// NUMA-aware arena placement: mode parsing, the pure placement decision on
// synthetic topologies (cross-socket vs shared-cache classification), the
// graceful fallback path on hosts where mbind cannot apply, and the World
// integration that records a decision per ordered pair.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/checksum.hpp"
#include "common/topology.hpp"
#include "core/comm.hpp"
#include "core/knobs.hpp"
#include "shm/arena.hpp"
#include "shm/numa.hpp"

namespace nemo {
namespace {

/// A World config on a synthetic topology with the formula tuning table
/// and the placement mode pinned.
core::Config numa_config(const Topology& topo, const char* mode) {
  core::Config cfg;
  cfg.topo = topo;
  cfg.tuning = tune::effective_table(topo);
  cfg.env["NEMO_NUMA_PLACEMENT"] = mode;
  return cfg;
}

TEST(NumaPlacement, ParsingRoundTripsAndRejectsTypos) {
  using shm::NumaPlacement;
  for (NumaPlacement p :
       {NumaPlacement::kAuto, NumaPlacement::kReceiver,
        NumaPlacement::kSender, NumaPlacement::kInterleave,
        NumaPlacement::kFirstTouch}) {
    auto back = shm::numa_placement_from_string(shm::to_string(p));
    ASSERT_TRUE(back.has_value()) << shm::to_string(p);
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(shm::numa_placement_from_string("bogus").has_value());
  EXPECT_EQ(shm::numa_placement_from_string("off"),
            NumaPlacement::kFirstTouch);

  core::Config cfg = numa_config(xeon_e5345(), "receiver");
  EXPECT_EQ(core::resolve_config(cfg).numa_placement,
            NumaPlacement::kReceiver);
  cfg.env["NEMO_NUMA_PLACEMENT"] = "bogus";
  EXPECT_THROW(core::resolve_config(cfg), std::invalid_argument);
}

TEST(NumaPlacement, SyntheticTopologyExposesTwoNodes) {
  Topology t = xeon_e5345();  // One synthetic node per socket.
  EXPECT_TRUE(t.multi_numa());
  EXPECT_EQ(t.num_numa_nodes(), 2);
  EXPECT_EQ(t.numa_node_of(0), 0);
  EXPECT_EQ(t.numa_node_of(7), 1);
  // Single-socket presets stay single-node.
  EXPECT_FALSE(xeon_x5460().multi_numa());
  EXPECT_FALSE(flat_smp(4, 8 * MiB).multi_numa());
}

TEST(NumaPlacement, AutoPlacesCrossNodePairsReceiverSide) {
  using shm::NumaPlacement;
  Topology t = xeon_e5345();

  // Cores 0 and 7 sit on different sockets (= different synthetic nodes):
  // auto binds receiver-side.
  auto r = shm::choose_region_placement(NumaPlacement::kAuto, t, 0, 7);
  EXPECT_EQ(r.node, 1);
  EXPECT_FALSE(r.interleave);
  r = shm::choose_region_placement(NumaPlacement::kAuto, t, 7, 0);
  EXPECT_EQ(r.node, 0);

  // Shared-cache and same-socket pairs are already node-local: first-touch.
  EXPECT_EQ(t.classify(0, 1), PairPlacement::kSharedCache);
  r = shm::choose_region_placement(NumaPlacement::kAuto, t, 0, 1);
  EXPECT_EQ(r.node, -1);
  EXPECT_EQ(t.classify(0, 2), PairPlacement::kSameSocketNoShare);
  r = shm::choose_region_placement(NumaPlacement::kAuto, t, 0, 2);
  EXPECT_EQ(r.node, -1);

  // Forced modes ignore the classification.
  r = shm::choose_region_placement(NumaPlacement::kReceiver, t, 0, 1);
  EXPECT_EQ(r.node, 0);
  r = shm::choose_region_placement(NumaPlacement::kSender, t, 7, 1);
  EXPECT_EQ(r.node, 1);
  r = shm::choose_region_placement(NumaPlacement::kInterleave, t, 0, 7);
  EXPECT_TRUE(r.interleave);
  r = shm::choose_region_placement(NumaPlacement::kFirstTouch, t, 0, 7);
  EXPECT_EQ(r.node, -1);
  EXPECT_FALSE(r.interleave);

  // Unknown cores (no binding) always degrade to first-touch.
  r = shm::choose_region_placement(NumaPlacement::kAuto, t, -1, -1);
  EXPECT_EQ(r.node, -1);
  r = shm::choose_region_placement(NumaPlacement::kReceiver, t, 0, -1);
  EXPECT_EQ(r.node, -1);
}

TEST(NumaPlacement, SingleNodeTopologyNeverBinds) {
  Topology t = flat_smp(4, 8 * MiB);
  for (int s = 0; s < 4; ++s)
    for (int d = 0; d < 4; ++d) {
      if (s == d) continue;
      auto r = shm::choose_region_placement(shm::NumaPlacement::kAuto, t, s,
                                            d);
      EXPECT_EQ(r.node, -1) << s << "," << d;
    }
}

TEST(NumaBind, DegradesGracefullyWhereUnavailable) {
  shm::Arena arena = shm::Arena::create_anonymous(1 * MiB);
  std::uint64_t off = arena.alloc_pages(64 * KiB);
  EXPECT_EQ(off % shm::Arena::kPageBytes, 0u);

  // Whatever the host: the calls must not throw and must agree with the
  // advertised availability (single-node hosts and sandboxes return false,
  // real multi-node hosts true).
  bool avail = shm::numa_bind_available();
  bool bound = shm::bind_to_node(arena.at(off), 64 * KiB, 0);
  if (!avail) {
    EXPECT_FALSE(bound);
  }
  bool il = shm::interleave(arena.at(off), 64 * KiB);
  if (!avail) {
    EXPECT_FALSE(il);
  }

  // Out-of-range node: refused, not applied.
  EXPECT_FALSE(shm::bind_to_node(arena.at(off), 64 * KiB, 4096));
  EXPECT_FALSE(shm::bind_to_node(arena.at(off), 64 * KiB, -1));

  // Sub-page range shrinks to nothing: successful no-op when binding is
  // available at all.
  if (avail) {
    EXPECT_TRUE(shm::bind_to_node(arena.at(off) + 100, 1000, 0));
  }
}

TEST(WorldNuma, PlacementOffDisablesEveryBind) {
  // NEMO_NUMA_PLACEMENT=off: no pair gets a node or interleaving, so no
  // mbind runs, even for cross-socket pairs on capable hosts.
  core::Config cfg = numa_config(xeon_e5345(), "off");
  cfg.nranks = 3;
  cfg.core_binding = {0, 1, 7};
  core::World world(cfg);
  EXPECT_EQ(world.numa_mode(), shm::NumaPlacement::kFirstTouch);
  for (int s = 0; s < 3; ++s)
    for (int d = 0; d < 3; ++d) {
      if (s == d) continue;
      const core::RingPlacement& rp = world.ring_placement(s, d);
      EXPECT_EQ(rp.node, -1) << s << "->" << d;
      EXPECT_FALSE(rp.interleaved) << s << "->" << d;
      EXPECT_FALSE(rp.bound) << s << "->" << d;
    }
}

TEST(WorldNuma, RecordsReceiverSideDecisionForCrossSocketPairs) {
  core::Config cfg = numa_config(xeon_e5345(), "auto");
  cfg.nranks = 3;
  cfg.core_binding = {0, 1, 7};  // 0-1 share a cache; 0-7 cross sockets.
  core::World world(cfg);

  EXPECT_EQ(world.numa_mode(), shm::NumaPlacement::kAuto);

  const core::RingPlacement& cross = world.ring_placement(0, 2);
  EXPECT_EQ(cross.pair, PairPlacement::kDifferentSockets);
  EXPECT_EQ(cross.node, 1);  // Receiver rank 2 is pinned to core 7, node 1.
  const core::RingPlacement& back = world.ring_placement(2, 0);
  EXPECT_EQ(back.node, 0);

  const core::RingPlacement& shared = world.ring_placement(0, 1);
  EXPECT_EQ(shared.pair, PairPlacement::kSharedCache);
  EXPECT_EQ(shared.node, -1);  // Node-local already: first-touch.

  // `bound` reports what mbind did; it may only be true when the host can
  // actually bind.
  if (!shm::numa_bind_available()) {
    EXPECT_FALSE(cross.bound);
  }
}

TEST(WorldNuma, FirstTouchAndUnboundRanksFallBackCleanly) {
  {
    core::Config cfg = numa_config(xeon_e5345(), "first-touch");
    cfg.nranks = 2;
    cfg.core_binding = {0, 7};
    core::World world(cfg);
    EXPECT_EQ(world.ring_placement(0, 1).node, -1);
    EXPECT_FALSE(world.ring_placement(0, 1).bound);
  }
  {
    // No core binding: auto has nothing to bind to.
    core::Config cfg = numa_config(xeon_e5345(), "auto");
    cfg.nranks = 2;
    core::World world(cfg);
    EXPECT_EQ(world.ring_placement(0, 1).node, -1);
  }
}

TEST(WorldNuma, CoresBeyondTheSyntheticTopologyCountAsUnknown) {
  // A real host core id that exceeds a synthetic topology must degrade to
  // "unknown cores" (cross-socket defaults, first-touch), not index past
  // the topology's arrays.
  core::Config cfg = numa_config(xeon_x5460(), "auto");  // 4 cores.
  cfg.nranks = 2;
  cfg.core_binding = {0, 12};  // Core 12 does not exist in the preset.
  core::World world(cfg);
  EXPECT_EQ(world.ring_placement(0, 1).node, -1);
  EXPECT_EQ(world.ring_placement(0, 1).pair,
            PairPlacement::kDifferentSockets);
  bool ok = core::run(cfg, [&](core::Comm& comm) {
    std::vector<std::byte> buf(64 * KiB);
    if (comm.rank() == 0) {
      pattern_fill(buf, 9);
      comm.send(buf.data(), buf.size(), 1, 4);
    } else {
      comm.recv(buf.data(), buf.size(), 0, 4);
      EXPECT_EQ(pattern_check(buf, 9), kPatternOk);
    }
  });
  EXPECT_TRUE(ok);
}

TEST(WorldNuma, TrafficFlowsUnderEveryPlacementMode) {
  // End-to-end smoke under each mode: placement must never break delivery,
  // whether or not this host can bind.
  for (const char* mode :
       {"auto", "receiver", "sender", "interleave", "first-touch", "off"}) {
    core::Config cfg = numa_config(xeon_e5345(), mode);
    cfg.nranks = 2;
    cfg.core_binding = {0, 7};
    bool ok = core::run(cfg, [&](core::Comm& comm) {
      std::vector<std::byte> buf(256 * KiB);
      if (comm.rank() == 0) {
        pattern_fill(buf, 42);
        comm.send(buf.data(), buf.size(), 1, 3);
      } else {
        comm.recv(buf.data(), buf.size(), 0, 3);
        EXPECT_EQ(pattern_check(buf, 42), kPatternOk) << mode;
      }
    });
    EXPECT_TRUE(ok) << mode;
  }
}

}  // namespace
}  // namespace nemo
