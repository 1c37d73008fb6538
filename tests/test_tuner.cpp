// The tune subsystem's measurement side: the JSON document model the
// telemetry and trace dumps use, and counter accuracy against known traffic.
#include <gtest/gtest.h>

#include <vector>

#include "common/checksum.hpp"
#include "core/comm.hpp"
#include "tune/counters.hpp"
#include "tune/json.hpp"

namespace nemo::tune {
namespace {

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
  Config cfg;
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

TEST(EngineCounters, TunedFastboxCutoffRoutesBiggerMessages) {
  // The fastbox slot follows the eager activation: raised to 12 KiB, the
  // slot grows to 12 KiB + 64 B, and a 10,000-byte message (eager now, too
  // big for the formula's 8 KiB slot) rides the fastbox.
  Config cfg;
  cfg.env = {{"NEMO_LMT_ACTIVATION", "12KiB"}};
  cfg.nranks = 2;
  bool ok = run(cfg, [&](Comm& comm) {
    EXPECT_EQ(comm.world().tuning().fastbox_slot_bytes, 12 * KiB + 64);
    std::vector<std::byte> buf(10000);
    if (comm.rank() == 0) {
      pattern_fill(buf, 7);
      comm.send(buf.data(), buf.size(), 1, 9);
      comm.hard_barrier();
      EXPECT_EQ(comm.engine().stats().fastbox_sent, 1u);
      EXPECT_EQ(comm.engine().stats().rndv_sent, 0u);
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
