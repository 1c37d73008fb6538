// Unit tests for the collective-arena primitives (src/coll/): layout and
// footprint, the epoch/doorbell publication protocol, epoch-tagged acks,
// the flat-barrier words, chunk-capacity geometry, direct-read locations,
// and NEMO_COLL parsing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "coll/coll.hpp"
#include "coll/coll_arena.hpp"
#include "core/comm.hpp"
#include "core/knobs.hpp"
#include "shm/arena.hpp"

namespace nemo::coll {
namespace {

class CollArena : public ::testing::Test {
 protected:
  void SetUp() override {
    arena_ = shm::Arena::create_anonymous(8 * MiB);
  }
  shm::Arena arena_;
};

TEST_F(CollArena, CreateGeometryAndFootprint) {
  const int n = 5;
  const std::uint32_t slot = 8 * KiB;
  std::size_t before = arena_.remaining();
  std::uint64_t off = WorldColl::create(arena_, n, slot);
  std::size_t used = before - arena_.remaining();
  EXPECT_LE(used, WorldColl::footprint(n, slot));
  EXPECT_GE(used, WorldColl::region_bytes(n, slot));
  EXPECT_EQ(off % shm::Arena::kPageBytes, 0u);

  WorldColl cw(arena_, off);
  EXPECT_TRUE(cw.valid());
  EXPECT_EQ(cw.nranks(), n);
  EXPECT_EQ(cw.slot_bytes(), slot);
  // Slots, tables and payloads are distinct, writable, in-arena regions.
  for (int r = 0; r < n; ++r) {
    EXPECT_TRUE(arena_.contains(cw.header(r), sizeof(SlotHeader)));
    EXPECT_TRUE(arena_.contains(cw.payload(r), slot));
    EXPECT_EQ(reinterpret_cast<std::byte*>(cw.table(r)),
              reinterpret_cast<std::byte*>(cw.header(r)) +
                  sizeof(SlotHeader));
    cw.payload(r)[0] = std::byte{0xAB};
    cw.payload(r)[slot - 1] = std::byte{0xCD};
  }
  for (int r = 0; r + 1 < n; ++r)
    EXPECT_GE(cw.payload(r + 1) - cw.payload(r),
              static_cast<std::ptrdiff_t>(slot));
}

TEST_F(CollArena, DirectReadLocations) {
  std::uint64_t off = WorldColl::create(arena_, 2, 4 * KiB);
  WorldColl procs(arena_, off);
  WorldColl threads(arena_, off, /*shared_space=*/true);
  std::byte* shared = arena_.at(arena_.alloc(256));
  std::vector<std::byte> heap(256);
  // Arena-resident buffers are offsets in either world, readable by all.
  for (const WorldColl* cw : {&procs, &threads}) {
    std::uint64_t loc = cw->locate(shared, 256);
    EXPECT_EQ(loc, arena_.offset_of(shared));
    EXPECT_EQ(cw->resolve(loc), shared);
    EXPECT_EQ(cw->locate(shared, 0), shm::kNil);  // Nothing to read.
  }
  // A private heap buffer must be staged across address spaces, but a
  // threads world reads it in place through its tagged address.
  EXPECT_EQ(procs.locate(heap.data(), heap.size()), shm::kNil);
  std::uint64_t loc = threads.locate(heap.data(), heap.size());
  EXPECT_NE(loc, shm::kNil);
  EXPECT_EQ(threads.resolve(loc), heap.data());
  // A buffer straddling the arena's end is not arena-resident.
  std::byte* tail = arena_.base() + arena_.size() - 16;
  EXPECT_EQ(procs.locate(tail, 32), shm::kNil);
}

TEST_F(CollArena, EpochPublicationProtocol) {
  std::uint64_t off = WorldColl::create(arena_, 3, 4 * KiB);
  WorldColl cw(arena_, off);
  // Freshly created slots are at epoch 0 — unpublished for any real epoch.
  EXPECT_FALSE(cw.ready(1, 8, 0));

  cw.begin_epoch(1, 8, shm::kNil, 1234);
  EXPECT_TRUE(cw.ready(1, 8, 0));
  EXPECT_FALSE(cw.ready(1, 16, 0));      // Different epoch.
  EXPECT_FALSE(cw.ready(1, 8, 1));       // Doorbell not rung yet.
  EXPECT_EQ(cw.header(1)->bytes, 1234u);
  EXPECT_EQ(cw.header(1)->src_off, shm::kNil);

  cw.publish_chunks(1, 3);
  EXPECT_TRUE(cw.ready(1, 8, 3));
  EXPECT_FALSE(cw.ready(1, 8, 4));

  // Re-opening the slot for a later epoch resets the doorbell.
  cw.begin_epoch(1, 16, 4096, 77);
  EXPECT_FALSE(cw.ready(1, 8, 0));
  EXPECT_TRUE(cw.ready(1, 16, 0));
  EXPECT_FALSE(cw.ready(1, 16, 1));
  EXPECT_EQ(cw.header(1)->src_off, 4096u);
}

TEST_F(CollArena, AckTagsAreMonotonicAcrossEpochs) {
  std::uint64_t off = WorldColl::create(arena_, 2, 4 * KiB);
  WorldColl cw(arena_, off);
  cw.set_ack(0, 8, 5);
  EXPECT_TRUE(cw.acked(0, 8, 5));
  EXPECT_FALSE(cw.acked(0, 8, 6));
  // A stale ack from epoch 8 can never satisfy epoch 16, even with a huge
  // chunk count — the epoch dominates the tag.
  EXPECT_FALSE(cw.acked(0, 16, 1));
  cw.set_ack(0, 16, 1);
  EXPECT_TRUE(cw.acked(0, 16, 1));
  EXPECT_TRUE(cw.acked(0, 8, 5));  // Monotonic: older waits stay satisfied.
}

TEST_F(CollArena, CountProbeCellsAreParityDoubleBuffered) {
  std::uint64_t off = WorldColl::create(arena_, 3, 4 * KiB);
  WorldColl cw(arena_, off);
  // Unpublished cells never match a real sequence.
  EXPECT_FALSE(cw.probe_ready(1, 1));

  cw.probe_publish(1, 1, 4096);
  EXPECT_TRUE(cw.probe_ready(1, 1));
  EXPECT_EQ(cw.probe_value(1, 1), 4096u);
  EXPECT_FALSE(cw.probe_ready(1, 2));

  // The next instance lands in the other parity buffer: instance 1 stays
  // readable (a straggler may still be consuming it).
  cw.probe_publish(1, 2, 77);
  EXPECT_TRUE(cw.probe_ready(1, 1));
  EXPECT_EQ(cw.probe_value(1, 1), 4096u);
  EXPECT_TRUE(cw.probe_ready(1, 2));
  EXPECT_EQ(cw.probe_value(1, 2), 77u);

  // Instance 3 overwrites instance 1's buffer (same parity) — exact-match
  // ready() correctly rejects the stale sequence.
  cw.probe_publish(1, 3, 9);
  EXPECT_FALSE(cw.probe_ready(1, 1));
  EXPECT_TRUE(cw.probe_ready(1, 3));
  // Cells are per rank: rank 2 is untouched.
  EXPECT_FALSE(cw.probe_ready(2, 1));
}

TEST_F(CollArena, FlatBarrierWords) {
  std::uint64_t off = WorldColl::create(arena_, 4, 4 * KiB);
  WorldColl cw(arena_, off);
  for (int r = 0; r < 4; ++r) EXPECT_FALSE(cw.barrier_arrived(r, 1));
  cw.barrier_arrive(2, 1);
  EXPECT_TRUE(cw.barrier_arrived(2, 1));
  EXPECT_FALSE(cw.barrier_arrived(2, 2));
  EXPECT_FALSE(cw.barrier_released(1));
  cw.barrier_release(1);
  EXPECT_TRUE(cw.barrier_released(1));
  // Monotonic sequences: a later arrival satisfies earlier waits.
  cw.barrier_arrive(2, 7);
  EXPECT_TRUE(cw.barrier_arrived(2, 3));
}

TEST(CollGeometry, AlltoallChunkCapacity) {
  // 16 KiB slot, 8 ranks: 7 destinations, 2340 -> 2304 line-rounded.
  EXPECT_EQ(alltoall_chunk_capacity(16 * KiB, 8), 2304u);
  EXPECT_EQ(alltoall_chunk_capacity(16 * KiB, 2), 16 * KiB);
  // Degenerate: slot cannot host one line per destination.
  EXPECT_EQ(alltoall_chunk_capacity(64, 4), 0u);
  EXPECT_EQ(alltoall_chunk_capacity(16 * KiB, 1), 0u);
}

TEST(CollGeometry, UseShmDecision) {
  // Forced modes ignore the size; auto compares against the activation.
  EXPECT_FALSE(use_shm(Mode::kP2p, 1 * MiB, 16 * KiB, 4, 4 * KiB));
  EXPECT_TRUE(use_shm(Mode::kShm, 1, 16 * KiB, 4, 4 * KiB));
  EXPECT_FALSE(use_shm(Mode::kAuto, 8 * KiB, 16 * KiB, 4, 4 * KiB));
  EXPECT_TRUE(use_shm(Mode::kAuto, 16 * KiB, 16 * KiB, 4, 4 * KiB));
  // Impossible geometry or a 1-rank world always falls back.
  EXPECT_FALSE(use_shm(Mode::kShm, 1 * MiB, 16 * KiB, 4, 0));
  EXPECT_FALSE(use_shm(Mode::kShm, 1 * MiB, 16 * KiB, 1, 4 * KiB));
}

TEST(CollMode, KnobParsing) {
  // NEMO_COLL resolves per World; a pin beats the ambient environment.
  auto resolved = [](const char* v) {
    core::Config cfg;
    cfg.tuning = tune::TuningTable{};
    cfg.env["NEMO_COLL"] = v;
    return core::resolve_config(cfg).coll;
  };
  EXPECT_EQ(resolved("shm"), Mode::kShm);
  EXPECT_EQ(resolved("p2p"), Mode::kP2p);
  EXPECT_EQ(resolved("auto"), Mode::kAuto);
  // A typo must fail loudly, not silently fall back.
  EXPECT_THROW(resolved("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace nemo::coll
