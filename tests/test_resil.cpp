// Resilience layer unit tests: liveness cells, bounded-wait guard verdicts,
// fault-spec parsing, and the env knobs' failure modes. Whole-world death
// scenarios live in test_fault_injection.cpp; these cover the primitives.
#include <gtest/gtest.h>
#include <unistd.h>

#include <stdexcept>
#include <vector>

#include "core/comm.hpp"
#include "resil/resil.hpp"
#include "tune/counters.hpp"

namespace nemo::resil {
namespace {

TEST(Resil, SiteNamesRoundTripForCrashSites) {
  for (Site s : {Site::kCollDeposit, Site::kCollFold, Site::kBarrierArrive,
                 Site::kRendezvous, Site::kFastboxPut,
                 Site::kKnemShare}) {
    auto back = crash_site_from_string(site_name(s));
    ASSERT_TRUE(back.has_value()) << site_name(s);
    EXPECT_EQ(*back, s);
  }
  // Wait sites are detection-only: named, but not injectable.
  EXPECT_NE(site_name(Site::kCollDoorbell), std::string("?"));
  EXPECT_FALSE(crash_site_from_string("coll_doorbell").has_value());
  EXPECT_FALSE(crash_site_from_string("no_such_site").has_value());
}

TEST(Resil, ParseFaultSpec) {
  FaultSpec f = parse_fault_spec("2:coll_deposit:kill");
  EXPECT_EQ(f.rank, 2);
  EXPECT_EQ(f.site, Site::kCollDeposit);
  EXPECT_THROW(parse_fault_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("2"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("2:coll_deposit"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("x:coll_deposit:kill"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("2:nope:kill"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("2:coll_deposit:explode"),
               std::invalid_argument);
  // Wait sites cannot be injected.
  EXPECT_THROW(parse_fault_spec("2:coll_doorbell:kill"),
               std::invalid_argument);
}

TEST(Resil, PeerDeadErrorCarriesVerdict) {
  PeerDeadError eager(3, Site::kCollDoorbell, false);
  EXPECT_EQ(eager.rank, 3);
  EXPECT_EQ(eager.site, Site::kCollDoorbell);
  EXPECT_FALSE(eager.from_timeout);
  EXPECT_NE(std::string(eager.what()).find("rank 3"), std::string::npos);
  PeerDeadError late(1, Site::kEngineWait, true);
  EXPECT_TRUE(late.from_timeout);
  EXPECT_NE(std::string(late.what()).find("timeout"), std::string::npos);
}

TEST(Resil, LivenessCellsInArena) {
  shm::Arena arena = shm::Arena::create_anonymous(1 * MiB);
  std::uint64_t off = Liveness::create(arena, 4);
  Liveness live(arena, off, 4);
  ASSERT_TRUE(live.valid());
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(live.beats(r), 0u);
    EXPECT_EQ(live.stamp_ns(r), 0u);
    EXPECT_FALSE(live.is_dead(r));
  }
  live.beat(1);
  live.beat(1);
  EXPECT_EQ(live.beats(1), 2u);
  EXPECT_GT(live.stamp_ns(1), 0u);
  EXPECT_EQ(live.find_dead(0), -1);
  live.mark_dead(2);
  EXPECT_TRUE(live.is_dead(2));
  EXPECT_EQ(live.find_dead(0), 2);
  EXPECT_EQ(live.find_dead(2), -1) << "self is not a peer death";
  // Fence words start zeroed and move monotonically.
  EXPECT_EQ(live.fence_generation(), 0u);
  live.propose_resync(7);
  live.propose_resync(5);  // max() semantics
  EXPECT_EQ(live.resync_floor(), 7u);
  live.set_fence_flag(3, 1);
  EXPECT_EQ(live.fence_flag(3), 1u);
  live.publish_fence_generation(0, 1);
  EXPECT_EQ(live.fence_generation(), 1u);
}

TEST(Resil, WaitGuardEagerVerdict) {
  shm::Arena arena = shm::Arena::create_anonymous(1 * MiB);
  Liveness live(arena, Liveness::create(arena, 4), 4);
  tune::Counters c;
  WaitGuard g(&live, 0, 1, Site::kCollDoorbell, 30000, &c, nullptr);
  ASSERT_TRUE(g.armed());
  g.check();  // Everyone alive: no verdict.
  live.mark_dead(2);
  // Watch is rank 1, but the eager scan still surfaces rank 2.
  try {
    g.check();
    FAIL() << "expected PeerDeadError";
  } catch (const PeerDeadError& e) {
    EXPECT_EQ(e.rank, 2);
    EXPECT_FALSE(e.from_timeout);
    EXPECT_EQ(e.site, Site::kCollDoorbell);
  }
  EXPECT_EQ(c.timeout_aborts, 0u);
}

TEST(Resil, WaitGuardSkipsFencedButNotWatched) {
  shm::Arena arena = shm::Arena::create_anonymous(1 * MiB);
  Liveness live(arena, Liveness::create(arena, 4), 4);
  live.mark_dead(2);
  std::vector<unsigned char> fenced(4, 0);
  fenced[2] = 1;
  // Degrade mode: rank 2's death is already fenced, survivors keep going.
  WaitGuard g(&live, 0, 1, Site::kCollAck, 30000, nullptr, fenced.data());
  g.check();
  // But a wait that depends on the fenced rank itself can never finish.
  WaitGuard g2(&live, 0, 2, Site::kCollAck, 30000, nullptr, fenced.data());
  EXPECT_THROW(g2.check(), PeerDeadError);
}

TEST(Resil, WaitGuardTimeoutVerdictOnStaleHeartbeat) {
  shm::Arena arena = shm::Arena::create_anonymous(1 * MiB);
  Liveness live(arena, Liveness::create(arena, 2), 2);
  tune::Counters c;
  live.beat(1);  // Nonzero stamp, then silence: the stale shape.
  WaitGuard g(&live, 0, 1, Site::kEngineWait, 20, &c, nullptr);
  bool threw = false;
  for (int i = 0; i < 200 && !threw; ++i) {
    ::usleep(5 * 1000);
    try {
      g.check();
    } catch (const PeerDeadError& e) {
      threw = true;
      EXPECT_EQ(e.rank, 1);
      EXPECT_TRUE(e.from_timeout);
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(c.timeout_aborts, 1u);
  EXPECT_TRUE(live.is_dead(1)) << "timeout verdict must be published";
}

TEST(Resil, WaitGuardFreshHeartbeatExtendsDeadline) {
  shm::Arena arena = shm::Arena::create_anonymous(1 * MiB);
  Liveness live(arena, Liveness::create(arena, 2), 2);
  live.beat(1);
  WaitGuard g(&live, 0, 1, Site::kEngineWait, 20, nullptr, nullptr);
  for (int i = 0; i < 10; ++i) {
    ::usleep(10 * 1000);
    live.beat(1);  // Keeps beating: never stale, never thrown.
    g.check();
  }
}

TEST(Resil, WaitGuardNeverBeatenRankIsExemptFromStaleness) {
  shm::Arena arena = shm::Arena::create_anonymous(1 * MiB);
  Liveness live(arena, Liveness::create(arena, 2), 2);
  // Rank 1 never beat (stamp 0): it may still be forking/attaching, so the
  // timeout path must not declare it dead...
  WaitGuard g(&live, 0, 1, Site::kEngineWait, 20, nullptr, nullptr);
  for (int i = 0; i < 6; ++i) {
    ::usleep(10 * 1000);
    g.check();
  }
  // ...but an explicit dead flag still lands.
  live.mark_dead(1);
  EXPECT_THROW(g.check(), PeerDeadError);
}

TEST(Resil, WaitGuardDisarmedWhenTimeoutOff) {
  shm::Arena arena = shm::Arena::create_anonymous(1 * MiB);
  Liveness live(arena, Liveness::create(arena, 2), 2);
  live.mark_dead(1);
  WaitGuard g(&live, 0, 1, Site::kEngineWait, kTimeoutOff, nullptr, nullptr);
  EXPECT_FALSE(g.armed());
  g.check();  // off = the pre-resilience behaviour: no verdicts at all.
  WaitGuard g2(nullptr, 0, 1, Site::kEngineWait, 100, nullptr, nullptr);
  EXPECT_FALSE(g2.armed());
  g2.check();
}

TEST(Resil, WaitUntilIdlesEvery64thProbe) {
  int probes = 0, idles = 0;
  wait_until({}, [&] { return ++probes == 200; }, [&] { idles++; });
  EXPECT_EQ(probes, 200);
  EXPECT_EQ(idles, 3);  // After misses 64, 128 and 192.
}

TEST(Resil, WaitUntilChecksItsGuard) {
  shm::Arena arena = shm::Arena::create_anonymous(1 * MiB);
  Liveness live(arena, Liveness::create(arena, 2), 2);
  live.mark_dead(1);
  int probes = 0;
  EXPECT_THROW(wait_until({&live, 0, 1, Site::kEngineWait, 30000, nullptr,
                           nullptr},
                          [&] { return ++probes > 1000; }),
               PeerDeadError);
  EXPECT_EQ(probes, 64);
}

/// A 3-rank threads world with armed guards (whatever the environment
/// says) that degrades on a death. Only rank 0's Comm exists, so nothing
/// but the test touches the liveness table.
core::Config degrade_world() {
  core::Config cfg;
  cfg.nranks = 3;
  cfg.env["NEMO_WORLD_MODE"] = "threads";
  cfg.env["NEMO_ON_PEER_DEATH"] = "degrade";
  cfg.env["NEMO_PEER_TIMEOUT_MS"] = "30000";
  return cfg;
}

TEST(Resil, EngineWaitUntilFencesTheDeadPeer) {
  // One contract for every engine-side wait, pt2pt, collective and fence
  // sync alike: the verdict names the peer and the site, and the local
  // epoch fence has run before it propagates.
  for (Site site : {Site::kEngineWait, Site::kCollDoorbell,
                    Site::kBarrierRelease, Site::kFenceSync}) {
    core::World world(degrade_world());
    core::Comm comm(world, 0);
    world.liveness().mark_dead(2);
    try {
      comm.engine().wait_until(site, 2, [] { return false; });
      FAIL() << "expected PeerDeadError at " << site_name(site);
    } catch (const PeerDeadError& e) {
      EXPECT_EQ(e.rank, 2);
      EXPECT_EQ(e.site, site);
      EXPECT_FALSE(e.from_timeout);
    }
    EXPECT_TRUE(comm.engine().rank_fenced(2)) << site_name(site);
    EXPECT_FALSE(comm.engine().rank_fenced(1)) << site_name(site);
  }
}

TEST(Resil, HardBarrierThrowsOnADeadPeer) {
  core::World world(degrade_world());
  world.liveness().mark_dead(1);
  try {
    world.hard_barrier(0);
    FAIL() << "expected PeerDeadError";
  } catch (const PeerDeadError& e) {
    EXPECT_EQ(e.rank, 1);
    EXPECT_EQ(e.site, Site::kHardBarrier);
  }
}

TEST(Resil, KnobTyposFailLoudly) {
  for (auto [knob, bad] : {std::pair{"NEMO_ON_PEER_DEATH", "banana"},
                           std::pair{"NEMO_PEER_TIMEOUT_MS", "0"},
                           // Missing the op field.
                           std::pair{"NEMO_FAULT", "2:coll_deposit"}}) {
    core::Config cfg;
    cfg.nranks = 2;
    cfg.env[knob] = bad;
    EXPECT_THROW(core::World world(cfg), std::invalid_argument) << knob;
  }
}

TEST(Resil, WorldsWorkAcrossTimeoutSettings) {
  // Liveness on (tight), on (default) and off must all produce identical
  // collective results — the guard only rides the spin slow path.
  for (std::size_t timeout : {std::size_t{100}, kDefaultTimeoutMs,
                              kTimeoutOff}) {
    core::Config cfg;
    cfg.nranks = 4;
    cfg.peer_timeout_ms = timeout;
    bool ok = core::run(cfg, [&](core::Comm& comm) {
      std::vector<double> in(512, 1.0), out(512, 0.0);
      comm.allreduce_f64(in.data(), out.data(), in.size(),
                         core::Comm::ReduceOp::kSum);
      for (double v : out) ASSERT_EQ(v, 4.0);
      comm.barrier();
    });
    EXPECT_TRUE(ok);
  }
}

}  // namespace
}  // namespace nemo::resil
