// Per-pair fastbox record ring: SPSC ordering, the full ring, the wrap's
// skip record, the guard-line clear that keeps stale payload from reading
// as a record; and in the engine, deferral on the sender when the ring is
// full, records spanning a large forced-eager message, rendezvous control
// in ring order, the record sized from the eager activation, and the
// environment knobs that tune the copy pipeline.
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

constexpr std::size_t kHeader = FastboxRecord::kHeaderBytes;

/// Payload bytes that make a record exactly `lines` cache lines long.
constexpr std::size_t payload_for_lines(std::size_t lines) {
  return lines * kCacheLine - kHeader;
}

TEST(Fastbox, PutPeekReleaseRoundtrip) {
  Arena arena = Arena::create_anonymous(1 * MiB);
  Fastbox fb(arena, Fastbox::create(arena));
  std::vector<std::byte> msg(777);
  pattern_fill(msg, 42);

  EXPECT_EQ(fb.peek(), nullptr);  // Starts empty.
  ASSERT_TRUE(fb.try_put(3, 17, 1, 0, msg.data(), msg.size()));
  const FastboxRecord* r = fb.peek();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->src, 3u);
  EXPECT_EQ(r->tag, 17);
  EXPECT_EQ(r->msg_seq, 1u);
  EXPECT_EQ(r->type, static_cast<std::uint16_t>(RecordType::kEager));
  EXPECT_EQ(fb.payload_len(*r), 777u);
  EXPECT_EQ(pattern_check({r->payload(), fb.payload_len(*r)}, 42), kPatternOk);
  fb.release();
  EXPECT_EQ(fb.peek(), nullptr);
}

TEST(Fastbox, SmallRecordIsOneLine) {
  // An 8 B message and its 24 B header share one cache line: a ring of
  // 2 KiB records holds 32 lines plus the guard, so 32 of them fit.
  Arena arena = Arena::create_anonymous(1 * MiB);
  Fastbox fb(arena, Fastbox::create(arena, 1, 2 * KiB));
  EXPECT_EQ(fb.nlines(), 33u);
  std::uint64_t v = 7;
  int put = 0;
  while (fb.try_put(0, 1, static_cast<std::uint32_t>(put), 0,
                    reinterpret_cast<const std::byte*>(&v), sizeof v))
    ++put;
  EXPECT_EQ(put, 32);
}

TEST(Fastbox, FullRingRefusesPutUntilReleased) {
  // Two 16-line records fill a 33-line ring (32 lines + the guard line).
  Arena arena = Arena::create_anonymous(1 * MiB);
  Fastbox fb(arena, Fastbox::create(arena, 1, 2 * KiB));
  std::vector<std::byte> msg(payload_for_lines(16));
  std::byte one{0x5a};
  ASSERT_TRUE(fb.try_put(0, 1, 1, 0, msg.data(), msg.size()));
  ASSERT_TRUE(fb.try_put(0, 1, 2, 0, msg.data(), msg.size()));
  // Even a one-line record would take the guard line: refused, again and
  // again, while the receiver holds both records.
  EXPECT_FALSE(fb.try_put(0, 1, 3, 0, &one, 1));
  EXPECT_FALSE(fb.try_put(0, 1, 3, 0, &one, 1));
  const FastboxRecord* r = fb.peek();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->msg_seq, 1u);
  EXPECT_FALSE(fb.try_put(0, 1, 3, 0, &one, 1));  // Peeked is not released.
  fb.release();
  EXPECT_TRUE(fb.try_put(0, 1, 3, 0, &one, 1));
  for (std::uint32_t seq : {2u, 3u}) {
    r = fb.peek();
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->msg_seq, seq);
    fb.release();
  }
  EXPECT_EQ(fb.peek(), nullptr);
}

TEST(Fastbox, WrapWritesASkipRecord) {
  // 10-line records in a 33-line ring: three fill lines 0-29, and the
  // fourth cannot start in the 3-line tail, so the sender marks the tail
  // with a skip record and writes the fourth at line 0 of the next lap.
  Arena arena = Arena::create_anonymous(1 * MiB);
  Fastbox fb(arena, Fastbox::create(arena, 1, 2 * KiB));
  const std::size_t len = payload_for_lines(10);
  std::vector<std::byte> msg(len);
  auto put = [&](std::uint32_t seq) {
    pattern_fill(msg, seq);
    return fb.try_put(0, 1, seq, 0, msg.data(), msg.size());
  };
  auto take = [&](std::uint32_t seq) {
    const FastboxRecord* r = fb.peek();
    ASSERT_NE(r, nullptr) << seq;
    EXPECT_EQ(r->type, static_cast<std::uint16_t>(RecordType::kEager)) << seq;
    EXPECT_EQ(r->msg_seq, seq);
    EXPECT_EQ(pattern_check({r->payload(), fb.payload_len(*r)}, seq),
              kPatternOk)
        << seq;
    fb.release();
  };
  for (std::uint32_t seq = 1; seq <= 3; ++seq) ASSERT_TRUE(put(seq));
  EXPECT_FALSE(put(4));  // Skip + record + guard do not fit yet.
  take(1);
  // The skip (3 lines) now fits, the record behind it not yet: 23 lines
  // are held and a 10-line record needs 11 with its guard.
  EXPECT_FALSE(put(4));
  take(2);
  ASSERT_TRUE(put(4));
  take(3);
  take(4);  // Read past the skip record, from line 0.
  EXPECT_EQ(fb.peek(), nullptr);
  // Laps keep going in order.
  for (std::uint32_t seq = 5; seq <= 40; ++seq) {
    ASSERT_TRUE(put(seq));
    take(seq);
  }
}

TEST(Fastbox, StalePayloadNeverReadsAsARecord) {
  // A payload byte pattern forged to equal the flag the receiver expects
  // at line 2 of the second lap. The sender clears the flag of the line
  // after every record before releasing it, so the forged bytes are gone
  // by the time the receiver looks there.
  Arena arena = Arena::create_anonymous(1 * MiB);
  Fastbox fb(arena, Fastbox::create(arena, 1, 2 * KiB));
  const std::uint32_t nlines = fb.nlines();  // 33

  // Lap 1, record A at lines 0-3: line 2 starts at payload byte 128 - 24.
  std::vector<std::byte> a(payload_for_lines(4));
  FastboxRecord forged{};
  forged.flag = nlines + 2 + 1;  // Absolute line 35 (lap 2, line 2) + 1.
  forged.src = 9;
  forged.tag = 666;
  forged.type = static_cast<std::uint16_t>(RecordType::kEager);
  forged.len = 8;
  std::memcpy(a.data() + (2 * kCacheLine - kHeader), &forged, sizeof forged);
  ASSERT_TRUE(fb.try_put(0, 1, 1, 0, a.data(), a.size()));
  fb.release();
  // A filler record takes lines 4-32, so lap 2 starts at line 0.
  std::vector<std::byte> filler(payload_for_lines(nlines - 4));
  ASSERT_TRUE(fb.try_put(0, 1, 2, 0, filler.data(), filler.size()));
  ASSERT_NE(fb.peek(), nullptr);
  fb.release();
  // Lap 2, the two-line record B at lines 0-1. Line 2 still holds A's
  // forged bytes until B's release clears them.
  std::vector<std::byte> b(payload_for_lines(2));
  ASSERT_TRUE(fb.try_put(0, 1, 3, 0, b.data(), b.size()));
  const FastboxRecord* r = fb.peek();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->msg_seq, 3u);
  fb.release();
  EXPECT_EQ(fb.peek(), nullptr) << "stale payload read as a record";
}

TEST(Fastbox, TunableSlotBytesRaisesPayloadCapacity) {
  Arena arena = Arena::create_anonymous(2 * MiB);
  Fastbox fb(arena, Fastbox::create(arena, 2, 8 * KiB));
  EXPECT_EQ(fb.payload_capacity(), 8 * KiB - kHeader);
  std::vector<std::byte> msg(fb.payload_capacity());
  pattern_fill(msg, 9);
  ASSERT_TRUE(fb.try_put(1, 2, 1, 0, msg.data(), msg.size()));
  const FastboxRecord* r = fb.peek();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(fb.payload_len(*r), msg.size());
  EXPECT_EQ(pattern_check({r->payload(), fb.payload_len(*r)}, 9), kPatternOk);
  fb.release();
}

TEST(Fastbox, OneSlotRingHoldsAnActivationSizedRecord) {
  // NEMO_FASTBOX_SLOTS=1 at the formula activation: the guard line is
  // extra, so the largest record still fits, lap after lap.
  Arena arena = Arena::create_anonymous(1 * MiB);
  Fastbox fb(arena, Fastbox::create(arena, 1, 8 * KiB + 64));
  std::vector<std::byte> msg(8 * KiB), two_lines(100);
  for (std::uint32_t seq = 1; seq <= 6; ++seq) {
    if (seq % 2 == 0) {  // Shift the next big record off line 0.
      ASSERT_TRUE(
          fb.try_put(0, 1, seq, 0, two_lines.data(), two_lines.size()));
    } else {
      pattern_fill(msg, seq);
      if (!fb.try_put(0, 1, seq, 0, msg.data(), msg.size())) {
        // Only the skip record ahead of it held the room: once the
        // receiver reads past the skip, the record fits.
        EXPECT_EQ(fb.peek(), nullptr);
        ASSERT_TRUE(fb.try_put(0, 1, seq, 0, msg.data(), msg.size())) << seq;
      }
    }
    const FastboxRecord* r = fb.peek();
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->msg_seq, seq);
    fb.release();
  }
}

TEST(Fastbox, CreateZeroesOnlyTheFirstLine) {
  // Dirty every free arena byte first: the ring must start empty from its
  // zeroed state block and first line alone, and leave payloads as found.
  Arena arena = Arena::create_anonymous(1 * MiB);
  std::uint64_t free_from = arena.alloc(8);
  std::memset(arena.at(free_from), 0xab, arena.size() - free_from);
  Fastbox fb(arena, Fastbox::create(arena, 4, 8 * KiB + 64));
  EXPECT_EQ(fb.peek(), nullptr);
  std::vector<std::byte> msg(100);
  pattern_fill(msg, 5);
  for (std::uint32_t i = 1; i <= 4; ++i)
    ASSERT_TRUE(fb.try_put(0, 1, i, 0, msg.data(), msg.size()));
  for (std::uint32_t i = 1; i <= 4; ++i) {
    const FastboxRecord* r = fb.peek();
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->msg_seq, i);
    EXPECT_EQ(pattern_check({r->payload(), fb.payload_len(*r)}, 5),
              kPatternOk);
    // The rest of the record's last line is never written.
    EXPECT_EQ(r->payload()[msg.size()], std::byte{0xab});
    fb.release();
  }
  EXPECT_EQ(fb.peek(), nullptr);
}

TEST(Fastbox, ZeroLengthMessage) {
  Arena arena = Arena::create_anonymous(1 * MiB);
  Fastbox fb(arena, Fastbox::create(arena));
  ASSERT_TRUE(fb.try_put(1, 9, 1, 0, nullptr, 0));
  const FastboxRecord* r = fb.peek();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(fb.payload_len(*r), 0u);
  fb.release();
}

TEST(Fastbox, TwoThreadSpscStreamStaysOrdered) {
  // Random record sizes, so the stream wraps at every possible tail.
  Arena arena = Arena::create_anonymous(1 * MiB);
  std::uint64_t off = Fastbox::create(arena);
  constexpr int kMsgs = 3000;
  auto size_of = [](int i) {
    return static_cast<std::size_t>((i * 2654435761u) % 2000);
  };

  std::thread producer([&] {
    Fastbox fb(arena, off);
    std::vector<std::byte> msg(2000);
    for (int i = 0; i < kMsgs; ++i) {
      std::span<std::byte> m(msg.data(), size_of(i));
      pattern_fill(m, static_cast<std::uint64_t>(i));
      while (!fb.try_put(0, i, static_cast<std::uint32_t>(i + 1), 0,
                         m.data(), m.size()))
        std::this_thread::yield();  // Oversubscribed hosts: let the peer run.
    }
  });

  Fastbox fb(arena, off);
  for (int i = 0; i < kMsgs; ++i) {
    const FastboxRecord* r;
    while ((r = fb.peek()) == nullptr) std::this_thread::yield();
    ASSERT_EQ(r->msg_seq, static_cast<std::uint32_t>(i + 1));
    ASSERT_EQ(r->tag, i);
    ASSERT_EQ(fb.payload_len(*r), size_of(i));
    ASSERT_EQ(pattern_check({r->payload(), fb.payload_len(*r)},
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
    constexpr std::size_t kSmall = 512;  // Fits one record.
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

/// Message size of a full-ring burst: a small message and one that fills
/// the formula record.
class FullRing : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FullRing, DefersOnTheSenderInOrder) {
  Config cfg;
  cfg.nranks = 2;
  const std::size_t size = GetParam();
  bool ok = run(cfg, [&](Comm& comm) {
    // Records a ring of the formula geometry holds before its guard line.
    const std::size_t record_lines =
        (shm::FastboxRecord::kHeaderBytes + size + kCacheLine - 1) /
        kCacheLine;
    const tune::TuningTable& t = comm.world().tuning();
    const std::size_t fits =
        std::size_t{t.fastbox_slots} * t.fastbox_slot_bytes / kCacheLine /
        record_lines;
    const std::size_t burst = fits + 4;
    if (comm.rank() == 0) {
      // Post a burst before the receiver makes any progress: the first
      // sends fill the ring, the rest wait on the sender, and every send
      // completes at once.
      std::vector<std::vector<std::byte>> bufs(burst,
                                               std::vector<std::byte>(size));
      std::vector<Request> reqs;
      for (std::size_t i = 0; i < burst; ++i) {
        pattern_fill(bufs[i], 200 + i);
        reqs.push_back(comm.isend(bufs[i].data(), size, 1, 6));
        EXPECT_TRUE(reqs.back()->complete);
      }
      EXPECT_EQ(comm.engine().stats().fastbox_sent, fits);
      EXPECT_EQ(comm.engine().counters().fastbox_fallbacks, burst - fits);
      EXPECT_EQ(comm.engine().stats().rndv_sent, 0u);
      comm.hard_barrier();
      comm.waitall(reqs);
    } else {
      comm.hard_barrier();  // All sends initiated; now drain in order.
      std::vector<std::byte> buf(size);
      for (std::size_t i = 0; i < burst; ++i) {
        comm.recv(buf.data(), size, 0, 6);
        EXPECT_EQ(pattern_check(buf, 200 + i), kPatternOk) << "msg " << i;
      }
    }
  });
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(FastboxEngine, FullRing,
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
  // The formula record carries the whole 8 KiB activation; one byte more
  // is a rendezvous.
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
  // An 8 KiB message in three separate pieces: gathered straight into one
  // record, delivered byte-exact.
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
    } else {
      std::vector<std::byte> buf(whole.size());
      comm.recv(buf.data(), buf.size(), 0, 12);
      EXPECT_EQ(buf, whole);
    }
  });
  EXPECT_TRUE(ok);
}

TEST(FastboxEngine, MixedEagerAndRendezvousSizesStayOrdered) {
  Config cfg;
  cfg.nranks = 2;
  bool ok = run(cfg, [&](Comm& comm) {
    // Same tag, alternating eager and rendezvous sizes: RTS, CTS and FIN
    // share the ring with the eager records, so ring order is send order.
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

TEST(FastboxEngine, RtsBehindDeferredEagerArrivesInSendOrder) {
  // A one-record ring: the second 4 KiB message no longer fits and waits on
  // the sender. The RTS after it would fit the ring's free half, but it
  // must queue behind the deferred message, and so must the eager message
  // after it. The receiver posts one large buffer per message and checks
  // each arrives in send order (size and payload).
  Config cfg;
  cfg.nranks = 2;
  cfg.env = {{"NEMO_FASTBOX_SLOTS", "1"}};
  const std::vector<std::size_t> sizes = {4 * KiB, 4 * KiB, 100 * KiB, 64,
                                          4 * KiB};
  bool ok = run(cfg, [&](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::vector<std::byte>> bufs;
      std::vector<Request> reqs;
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        bufs.emplace_back(sizes[i]);
        pattern_fill(bufs.back(), 300 + i);
        reqs.push_back(comm.isend(bufs.back().data(), sizes[i], 1, 4));
      }
      EXPECT_EQ(comm.engine().stats().fastbox_sent, 1u);
      EXPECT_EQ(comm.engine().counters().fastbox_fallbacks, 3u);
      EXPECT_EQ(comm.engine().stats().rndv_sent, 1u);
      comm.hard_barrier();
      comm.waitall(reqs);
    } else {
      comm.hard_barrier();
      std::vector<std::byte> buf(100 * KiB);
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        RecvInfo info;
        comm.recv(buf.data(), buf.size(), 0, 4, &info);
        ASSERT_EQ(info.bytes, sizes[i]) << "msg " << i;
        EXPECT_EQ(pattern_check({buf.data(), sizes[i]}, 300 + i), kPatternOk)
            << "msg " << i;
      }
    }
  });
  EXPECT_TRUE(ok);
}

/// Whether the receiver posts before the sender sends (the records land in
/// the bound user buffer) or after (they reassemble as unexpected).
class SpanningRecords : public ::testing::TestWithParam<bool> {};

TEST_P(SpanningRecords, ForcedEager64KiBSpansRecords) {
  // A forced backend keeps messages up to 64 KiB eager: larger than one
  // record, so the message spans consecutive records; through a one-record
  // ring, most of them wait on the sender first.
  const bool posted_first = GetParam();
  for (const char* slots : {"4", "1"}) {
    SCOPED_TRACE(std::string("NEMO_FASTBOX_SLOTS=") + slots);
    Config cfg;
    cfg.nranks = 2;
    cfg.lmt = lmt::LmtKind::kDefaultShm;
    cfg.env = {{"NEMO_FASTBOX_SLOTS", slots}};
    bool ok = run(cfg, [&](Comm& comm) {
      std::vector<std::byte> buf(64 * KiB);
      for (std::uint64_t round = 0; round < 3; ++round) {
        if (comm.rank() == 0) {
          pattern_fill(buf, round);
          if (posted_first) comm.hard_barrier();
          comm.send(buf.data(), buf.size(), 1, 5);
          if (!posted_first) comm.hard_barrier();
        } else {
          Request r = comm.irecv(buf.data(), buf.size(), 0, 5);
          comm.hard_barrier();
          comm.wait(r);
          EXPECT_EQ(r->info.bytes, buf.size());
          EXPECT_EQ(pattern_check(buf, round), kPatternOk) << round;
        }
      }
      if (comm.rank() == 0) {
        EXPECT_EQ(comm.engine().stats().eager_msgs_sent, 3u);
        EXPECT_EQ(comm.engine().stats().rndv_sent, 0u);
      }
    });
    EXPECT_TRUE(ok);
  }
}

INSTANTIATE_TEST_SUITE_P(FastboxEngine, SpanningRecords, ::testing::Bool());

TEST(FastboxEngine, SelfSendIsDeliveredLocally) {
  Config cfg;
  cfg.nranks = 2;
  bool ok = run(cfg, [&](Comm& comm) {
    std::vector<std::byte> out(3000), in(3000);
    pattern_fill(out, 11);
    Request s = comm.isend(out.data(), out.size(), comm.rank(), 2);
    EXPECT_TRUE(s->complete);
    comm.recv(in.data(), in.size(), comm.rank(), 2);
    EXPECT_EQ(in, out);
    EXPECT_EQ(comm.engine().stats().fastbox_sent, 0u);
  });
  EXPECT_TRUE(ok);
}

TEST(Knobs, OverrideRingGeometryAndFastbox) {
  Config cfg;
  cfg.nranks = 2;
  cfg.env = {{"NEMO_RING_BUFS", "8"},
             {"NEMO_RING_BUF_BYTES", "64KiB"},
             {"NEMO_FASTBOX_SLOTS", "2"},
             {"NEMO_NT_MIN", "1MiB"}};
  // NEMO_NT_MIN writes every placement row, 0 included (every rendezvous
  // streams).
  auto expect_nt_min = [](const World& w, std::size_t want) {
    for (const tune::PlacementTuning& row : w.tuning().place)
      EXPECT_EQ(row.nt_min, want);
  };
  {
    World w(cfg);
    EXPECT_EQ(w.config().ring_bufs, 8u);
    EXPECT_EQ(w.config().ring_buf_bytes, 64 * KiB);
    EXPECT_EQ(w.tuning().fastbox_slots, 2u);
    expect_nt_min(w, 1 * MiB);
  }
  cfg.env["NEMO_NT_MIN"] = "off";
  expect_nt_min(World(cfg), SIZE_MAX);
  cfg.env["NEMO_NT_MIN"] = "0";
  expect_nt_min(World(cfg), 0);
}

}  // namespace
}  // namespace nemo::core
