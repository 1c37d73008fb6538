// Per-pair fastbox: SPSC ordering, fallback to the recv queue when the box
// is occupied, stream merge with queue-routed messages, the slot sized from
// the eager activation, and the environment knobs that tune the copy
// pipeline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "shm/fastbox.hpp"

namespace nemo::shm {
namespace {

TEST(Fastbox, PutPeekReleaseRoundtrip) {
  Arena arena = Arena::create_anonymous(1 * MiB);
  Fastbox fb(arena, Fastbox::create(arena));
  std::vector<std::byte> msg(777);
  pattern_fill(msg, 42);

  EXPECT_EQ(fb.peek(), nullptr);  // Starts empty.
  ASSERT_TRUE(fb.try_put(3, 17, 1, 0, msg.data(), msg.size()));
  const FastboxSlot* st = fb.peek();
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->src, 3u);
  EXPECT_EQ(st->tag, 17);
  EXPECT_EQ(st->msg_seq, 1u);
  EXPECT_EQ(st->payload_len, 777u);
  EXPECT_EQ(pattern_check({st->payload(), st->payload_len}, 42), kPatternOk);
  fb.release();
  EXPECT_EQ(fb.peek(), nullptr);
}

TEST(Fastbox, FullRingRefusesPutUntilReleased) {
  Arena arena = Arena::create_anonymous(1 * MiB);
  Fastbox fb(arena, Fastbox::create(arena, /*nslots=*/1));
  std::byte b{0x5a};
  ASSERT_TRUE(fb.try_put(0, 1, 1, 0, &b, 1));
  EXPECT_FALSE(fb.try_put(0, 1, 2, 0, &b, 1));  // Caller falls back to queue.
  fb.release();
  EXPECT_TRUE(fb.try_put(0, 1, 2, 0, &b, 1));
}

TEST(Fastbox, MultiSlotRingBuffersABurstInOrder) {
  Arena arena = Arena::create_anonymous(1 * MiB);
  Fastbox fb(arena, Fastbox::create(arena, /*nslots=*/4));
  std::byte b{0x11};
  // A burst of nslots messages parks entirely in the ring...
  for (std::uint32_t i = 1; i <= 4; ++i)
    ASSERT_TRUE(fb.try_put(0, static_cast<std::int32_t>(i), i, 0, &b, 1));
  // ...the next one spills to the queue path...
  EXPECT_FALSE(fb.try_put(0, 5, 5, 0, &b, 1));
  // ...and the receiver drains in publication order, freeing slots as it
  // goes (lap 2 reuses slot 0).
  for (std::uint32_t i = 1; i <= 4; ++i) {
    const FastboxSlot* st = fb.peek();
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->msg_seq, i);
    fb.release();
  }
  EXPECT_EQ(fb.peek(), nullptr);
  EXPECT_TRUE(fb.try_put(0, 5, 5, 0, &b, 1));
}

TEST(Fastbox, TunableSlotBytesRaisesPayloadCapacity) {
  Arena arena = Arena::create_anonymous(2 * MiB);
  Fastbox fb(arena, Fastbox::create(arena, 2, 8 * KiB));
  EXPECT_EQ(fb.payload_capacity(), 8 * KiB - FastboxSlot::kHeaderBytes);
  std::vector<std::byte> msg(fb.payload_capacity());
  pattern_fill(msg, 9);
  ASSERT_TRUE(fb.try_put(1, 2, 1, 0, msg.data(), msg.size()));
  const FastboxSlot* st = fb.peek();
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->payload_len, msg.size());
  EXPECT_EQ(pattern_check({st->payload(), st->payload_len}, 9), kPatternOk);
  fb.release();
}

TEST(Fastbox, CreateZeroesOnlyTheHeaders) {
  // Dirty every free arena byte first: the box must start empty from its
  // zeroed state block and header lines alone, and leave payloads as found.
  Arena arena = Arena::create_anonymous(1 * MiB);
  std::uint64_t free_from = arena.alloc(8);
  std::memset(arena.at(free_from), 0xab, arena.size() - free_from);
  Fastbox fb(arena, Fastbox::create(arena, 4, 8 * KiB + 64));
  EXPECT_EQ(fb.peek(), nullptr);
  std::vector<std::byte> msg(100);
  pattern_fill(msg, 5);
  for (std::uint32_t i = 1; i <= 4; ++i)
    ASSERT_TRUE(fb.try_put(0, 1, i, 0, msg.data(), msg.size()));
  EXPECT_FALSE(fb.try_put(0, 1, 5, 0, msg.data(), msg.size()));
  const FastboxSlot* st = fb.peek();
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->msg_seq, 1u);
  EXPECT_EQ(pattern_check({st->payload(), st->payload_len}, 5), kPatternOk);
  EXPECT_EQ(st->payload()[msg.size()], std::byte{0xab});
  fb.release();
}

TEST(Fastbox, ZeroLengthMessage) {
  Arena arena = Arena::create_anonymous(1 * MiB);
  Fastbox fb(arena, Fastbox::create(arena));
  ASSERT_TRUE(fb.try_put(1, 9, 1, 0, nullptr, 0));
  const FastboxSlot* st = fb.peek();
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->payload_len, 0u);
  fb.release();
}

TEST(Fastbox, TwoThreadSpscStreamStaysOrdered) {
  Arena arena = Arena::create_anonymous(1 * MiB);
  std::uint64_t off = Fastbox::create(arena);
  constexpr int kMsgs = 1000;

  std::thread producer([&] {
    Fastbox fb(arena, off);
    std::vector<std::byte> msg(256);
    for (int i = 0; i < kMsgs; ++i) {
      pattern_fill(msg, static_cast<std::uint64_t>(i));
      while (!fb.try_put(0, i, static_cast<std::uint32_t>(i + 1), 0,
                         msg.data(), msg.size()))
        std::this_thread::yield();  // Oversubscribed hosts: let the peer run.
    }
  });

  Fastbox fb(arena, off);
  for (int i = 0; i < kMsgs; ++i) {
    const FastboxSlot* st;
    while ((st = fb.peek()) == nullptr) std::this_thread::yield();
    ASSERT_EQ(st->msg_seq, static_cast<std::uint32_t>(i + 1));
    ASSERT_EQ(st->tag, i);
    ASSERT_EQ(pattern_check({st->payload(), st->payload_len},
                            static_cast<std::uint64_t>(i)),
              kPatternOk);
    fb.release();
  }
  producer.join();
}

}  // namespace
}  // namespace nemo::shm

namespace nemo::core {
namespace {

TEST(FastboxEngine, SmallMessagesTakeTheFastboxPath) {
  Config cfg;
  cfg.nranks = 2;
  bool ok = run(cfg, [&](Comm& comm) {
    constexpr std::size_t kSmall = 512;  // Fits the fastbox payload.
    std::vector<std::byte> buf(kSmall);
    for (int i = 0; i < 10; ++i) {
      if (comm.rank() == 0) {
        pattern_fill(buf, static_cast<std::uint64_t>(i));
        comm.send(buf.data(), kSmall, 1, 3);
      } else {
        comm.recv(buf.data(), kSmall, 0, 3);
        EXPECT_EQ(pattern_check(buf, static_cast<std::uint64_t>(i)),
                  kPatternOk);
      }
    }
    comm.hard_barrier();
    if (comm.rank() == 0) {
      EXPECT_GT(comm.engine().stats().fastbox_sent, 0u);
    }
    if (comm.rank() == 1) {
      EXPECT_GT(comm.engine().stats().fastbox_recv, 0u);
    }
  });
  EXPECT_TRUE(ok);
}

/// Message size of an occupied-box burst: a small message and one that
/// fills the formula slot.
class OccupiedBox : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OccupiedBox, FallsBackToQueueInOrder) {
  Config cfg;
  cfg.nranks = 2;
  const std::size_t size = GetParam();
  bool ok = run(cfg, [&](Comm& comm) {
    constexpr int kBurst = 8;
    if (comm.rank() == 0) {
      // Post a burst before the receiver makes any progress: the first
      // sends fill the ring's slots, the rest must fall back to the queue.
      std::vector<std::vector<std::byte>> bufs(kBurst,
                                               std::vector<std::byte>(size));
      std::vector<Request> reqs;
      for (int i = 0; i < kBurst; ++i) {
        pattern_fill(bufs[static_cast<std::size_t>(i)],
                     static_cast<std::uint64_t>(200 + i));
        reqs.push_back(comm.isend(bufs[static_cast<std::size_t>(i)].data(),
                                  size, 1, 6));
      }
      comm.hard_barrier();
      comm.waitall(reqs);
      const std::uint32_t slots = comm.world().tuning().fastbox_slots;
      EXPECT_EQ(comm.engine().stats().fastbox_sent, slots);
      EXPECT_EQ(comm.engine().counters().fastbox_fallbacks, kBurst - slots);
      EXPECT_EQ(comm.engine().stats().rndv_sent, 0u);
    } else {
      comm.hard_barrier();  // All sends initiated; now drain in order.
      std::vector<std::byte> buf(size);
      for (int i = 0; i < kBurst; ++i) {
        comm.recv(buf.data(), size, 0, 6);
        EXPECT_EQ(pattern_check(buf, static_cast<std::uint64_t>(200 + i)),
                  kPatternOk)
            << "msg " << i;
      }
    }
  });
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(FastboxEngine, OccupiedBox,
                         ::testing::Values(std::size_t{256}, 8 * KiB));

/// Sends each size from rank 0 to rank 1 in turn and checks the path rank
/// 0's engine took: the fastbox, or else the rendezvous.
void expect_routes(Config cfg,
                   const std::vector<std::pair<std::size_t, bool>>& routes) {
  cfg.nranks = 2;
  bool ok = run(cfg, [&](Comm& comm) {
    for (std::size_t i = 0; i < routes.size(); ++i) {
      const auto [size, via_fastbox] = routes[i];
      std::vector<std::byte> buf(size);
      if (comm.rank() == 0) {
        const EngineStats before = comm.engine().stats();
        pattern_fill(buf, 50 + i);
        comm.send(buf.data(), size, 1, 8);
        const EngineStats& after = comm.engine().stats();
        EXPECT_EQ(after.fastbox_sent - before.fastbox_sent, via_fastbox ? 1u : 0u)
            << size << " B";
        EXPECT_EQ(after.rndv_sent - before.rndv_sent, via_fastbox ? 0u : 1u)
            << size << " B";
      } else {
        comm.recv(buf.data(), size, 0, 8);
        EXPECT_EQ(pattern_check(buf, 50 + i), kPatternOk) << size << " B";
      }
    }
  });
  EXPECT_TRUE(ok);
}

TEST(FastboxEngine, EveryEagerSizeRidesTheFastbox) {
  // The formula slot carries the whole 8 KiB activation; one byte more is a
  // rendezvous.
  expect_routes(Config{}, {{1985, true},
                           {4 * KiB, true},
                           {8 * KiB, true},
                           {8 * KiB + 1, false}});
}

TEST(FastboxEngine, SlotFollowsThePinnedActivation) {
  Config cfg;
  cfg.nranks = 2;
  cfg.env = {{"NEMO_LMT_ACTIVATION", "4KiB"}};
  EXPECT_EQ(World(cfg).tuning().fastbox_slot_bytes, 4 * KiB + 64);
  expect_routes(cfg, {{4 * KiB, true}, {4 * KiB + 1, false}});
}

TEST(FastboxEngine, MultiSegmentSendGathersIntoTheSlot) {
  // An 8 KiB message in three separate pieces: gathered straight into the
  // slot, delivered byte-exact.
  Config cfg;
  cfg.nranks = 2;
  bool ok = run(cfg, [&](Comm& comm) {
    std::vector<std::byte> whole(8 * KiB);
    pattern_fill(whole, 77);
    if (comm.rank() == 0) {
      const std::size_t cuts[] = {0, 1000, 6000, whole.size()};
      std::vector<std::vector<std::byte>> pieces;
      ConstSegmentList segs;
      for (int i = 0; i < 3; ++i)
        pieces.emplace_back(whole.begin() + static_cast<std::ptrdiff_t>(cuts[i]),
                            whole.begin() + static_cast<std::ptrdiff_t>(cuts[i + 1]));
      for (const auto& p : pieces) segs.push_back({p.data(), p.size()});
      Request r = comm.isendv(std::move(segs), 1, 12);
      comm.wait(r);
      EXPECT_EQ(comm.engine().stats().fastbox_sent, 1u);
      EXPECT_EQ(comm.engine().stats().cells_sent, 0u);
    } else {
      std::vector<std::byte> buf(whole.size());
      comm.recv(buf.data(), buf.size(), 0, 12);
      EXPECT_EQ(buf, whole);
    }
  });
  EXPECT_TRUE(ok);
}

TEST(FastboxEngine, MixedFastboxAndQueueSizesStayOrdered) {
  Config cfg;
  cfg.nranks = 2;
  bool ok = run(cfg, [&](Comm& comm) {
    // Same tag, alternating sizes: tiny (fastbox), cell-sized eager, and
    // rendezvous — the per-source sequence must merge the streams back
    // into sender order.
    const std::vector<std::size_t> sizes = {64,        100 * KiB, 128,
                                            1 * MiB,   512,       32 * KiB,
                                            96,        300 * KiB};
    if (comm.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        bufs.emplace_back(sizes[i]);
        pattern_fill(bufs.back(), i);
        reqs.push_back(comm.isend(bufs.back().data(), sizes[i], 1, 11));
      }
      comm.hard_barrier();
      comm.waitall(reqs);
    } else {
      comm.hard_barrier();
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        std::vector<std::byte> buf(sizes[i]);
        comm.recv(buf.data(), sizes[i], 0, 11);
        EXPECT_EQ(pattern_check(buf, i), kPatternOk) << "msg " << i;
      }
    }
  });
  EXPECT_TRUE(ok);
}

TEST(FastboxEngine, EagerNeverOvertakesParkedRts) {
  // Starve the cell pool so RTS cells park in the pending-ctrl queue, then
  // interleave rendezvous and cell-path eager sends on one tag: the eager
  // cells must not overtake a deferred RTS (the receiver's stream merge
  // would see an unfillable sequence gap).
  Config cfg;
  cfg.nranks = 2;
  cfg.cells_per_rank = 2;
  cfg.use_fastbox = false;  // Force every eager message onto the cell path.
  bool ok = run(cfg, [&](Comm& comm) {
    constexpr int kRounds = 6;
    constexpr std::size_t kBig = 100 * KiB, kTiny = 128;
    if (comm.rank() == 0) {
      // No barrier: the receiver must progress concurrently for cells to
      // recirculate through the 2-cell pool at all.
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (int i = 0; i < kRounds; ++i) {
        bufs.emplace_back(kBig);
        pattern_fill(bufs.back(), static_cast<std::uint64_t>(2 * i));
        reqs.push_back(comm.isend(bufs.back().data(), kBig, 1, 4));
        bufs.emplace_back(kTiny);
        pattern_fill(bufs.back(), static_cast<std::uint64_t>(2 * i + 1));
        reqs.push_back(comm.isend(bufs.back().data(), kTiny, 1, 4));
      }
      comm.waitall(reqs);
    } else {
      for (int i = 0; i < 2 * kRounds; ++i) {
        std::size_t n = (i % 2 == 0) ? kBig : kTiny;
        std::vector<std::byte> buf(n);
        comm.recv(buf.data(), n, 0, 4);
        EXPECT_EQ(pattern_check(buf, static_cast<std::uint64_t>(i)),
                  kPatternOk)
            << "msg " << i;
      }
    }
  });
  EXPECT_TRUE(ok);
}

TEST(FastboxEngine, DisabledFastboxStillDelivers) {
  Config cfg;
  cfg.nranks = 2;
  cfg.use_fastbox = false;
  bool ok = run(cfg, [&](Comm& comm) {
    std::vector<std::byte> buf(128);
    if (comm.rank() == 0) {
      pattern_fill(buf, 1);
      comm.send(buf.data(), buf.size(), 1, 2);
    } else {
      comm.recv(buf.data(), buf.size(), 0, 2);
      EXPECT_EQ(pattern_check(buf, 1), kPatternOk);
      EXPECT_EQ(comm.engine().stats().fastbox_recv, 0u);
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Knobs, OverrideRingGeometryAndFastbox) {
  Config cfg;
  cfg.nranks = 2;
  cfg.env = {{"NEMO_RING_BUFS", "8"},
             {"NEMO_RING_BUF_BYTES", "64KiB"},
             {"NEMO_FASTBOX", "0"},
             {"NEMO_NT_MIN", "1MiB"}};
  {
    World w(cfg);
    EXPECT_EQ(w.config().ring_bufs, 8u);
    EXPECT_EQ(w.config().ring_buf_bytes, 64 * KiB);
    EXPECT_FALSE(w.config().use_fastbox);
    EXPECT_EQ(w.config().nt_min, 1 * MiB);
  }
  cfg.env["NEMO_NT_MIN"] = "off";
  {
    World w(cfg);
    EXPECT_EQ(w.config().nt_min, static_cast<std::size_t>(-1));
  }
}

}  // namespace
}  // namespace nemo::core
