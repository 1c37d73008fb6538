// Tracer primitives: ring wrap/overwrite semantics, drop counter accuracy,
// tsc→ns calibration round-trip, histogram bucket boundaries and quantile
// extraction, and the disabled-mode zero-allocation guarantee.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "trace/perfetto.hpp"
#include "trace/registry.hpp"
#include "trace/trace.hpp"

namespace nemo::trace {
namespace {

/// Pin the mode for a test scope and restore the previous one after (other
/// tests must not see our setting).
class ScopedMode {
 public:
  ScopedMode(const char* value) : prev_(mode()) {
    set_mode(mode_from_string(value));
  }
  ~ScopedMode() { set_mode(prev_); }

 private:
  Mode prev_;
};

// ---------------------------------------------------------------------------
// Mode gate
// ---------------------------------------------------------------------------

TEST(TraceMode, ParsesAllSpellings) {
  EXPECT_EQ(mode_from_string("off"), Mode::kOff);
  EXPECT_EQ(mode_from_string("rings"), Mode::kRings);
  EXPECT_EQ(mode_from_string("full"), Mode::kFull);
  EXPECT_THROW(mode_from_string("garbage"), std::invalid_argument);
  EXPECT_THROW(mode_from_string(""), std::invalid_argument);
}

TEST(TraceMode, GateOrdersModes) {
  ScopedMode pin("rings");
  EXPECT_TRUE(on(Mode::kRings));
  EXPECT_FALSE(on(Mode::kFull));
  {
    ScopedMode full("full");
    EXPECT_TRUE(on(Mode::kFull));
  }
  {
    ScopedMode off("off");
    EXPECT_FALSE(on(Mode::kRings));
  }
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Ring(8).capacity(), 8u);
  EXPECT_EQ(Ring(9).capacity(), 16u);
  EXPECT_EQ(Ring(1000).capacity(), 1024u);
}

TEST(TraceRing, KeepsEverythingBeforeWrap) {
  Ring r(8);
  for (std::uint64_t i = 0; i < 8; ++i)
    r.record(kProgress, kInstant, i, 100 + i);
  EXPECT_EQ(r.size(), 8u);
  EXPECT_EQ(r.dropped(), 0u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(r.at(i).a0, i);
    EXPECT_EQ(r.at(i).a1, 100 + i);
  }
}

TEST(TraceRing, WrapOverwritesOldestFirst) {
  Ring r(8);
  for (std::uint64_t i = 0; i < 13; ++i)
    r.record(kProgress, kInstant, i, 0);
  // 13 writes into 8 slots: records 0..4 overwritten, 5..12 survive.
  EXPECT_EQ(r.size(), 8u);
  EXPECT_EQ(r.head(), 13u);
  EXPECT_EQ(r.dropped(), 5u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(r.at(i).a0, 5 + i);
}

TEST(TraceRing, DropCounterExactUnderHeavyOverflow) {
  Ring r(16);
  constexpr std::uint64_t kWrites = 10'000;
  for (std::uint64_t i = 0; i < kWrites; ++i) r.record(kRingPush, kBegin, i, i);
  EXPECT_EQ(r.dropped(), kWrites - r.capacity());
  // Survivors are exactly the most recent capacity() records, in order.
  EXPECT_EQ(r.at(0).a0, kWrites - r.capacity());
  EXPECT_EQ(r.at(r.size() - 1).a0, kWrites - 1);
}

TEST(TraceRing, TimestampsMonotonic) {
  Ring r(64);
  for (int i = 0; i < 64; ++i) r.record(kProgress, kInstant, 0, 0);
  for (std::size_t i = 1; i < r.size(); ++i)
    EXPECT_GE(r.at(i).tsc, r.at(i - 1).tsc);
}

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

TEST(TraceCalibration, RoundTripsWithinABucket) {
  TscCalibration c = calibrate_tsc();
  ASSERT_GT(c.ns_per_tick, 0.0);
  for (std::uint64_t off : {0ull, 1000ull, 123456789ull}) {
    std::uint64_t tsc = c.tsc0 + ns_to_tsc(c, c.ns0 + off) - ns_to_tsc(c, c.ns0);
    std::uint64_t ns = tsc_to_ns(c, tsc);
    // Round-trip error is bounded by one tick's worth of rounding.
    std::uint64_t want = c.ns0 + off;
    std::uint64_t got_err = ns > want ? ns - want : want - ns;
    EXPECT_LE(got_err, static_cast<std::uint64_t>(c.ns_per_tick) + 2)
        << "offset " << off;
  }
}

TEST(TraceCalibration, TscAdvances) {
  std::uint64_t a = tsc_now();
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  std::uint64_t b = tsc_now();
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_GT(b, a);
#else
  EXPECT_GE(b, a);
#endif
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(TraceHistogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 0);
  EXPECT_EQ(Histogram::bucket_of(2), 1);
  EXPECT_EQ(Histogram::bucket_of(3), 1);
  EXPECT_EQ(Histogram::bucket_of(4), 2);
  EXPECT_EQ(Histogram::bucket_of(7), 2);
  EXPECT_EQ(Histogram::bucket_of(8), 3);
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), 63);
  for (int b = 0; b < 63; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b);
    EXPECT_EQ(Histogram::bucket_hi(b) + 1, Histogram::bucket_lo(b + 1));
  }
}

TEST(TraceHistogram, CountSumMinMax) {
  Histogram h;
  for (std::uint64_t v : {5ull, 10ull, 100ull, 1000ull}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1115u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(TraceHistogram, QuantilesAgainstUniformReference) {
  // Uniform 1..1000: exact p50 = 500, p99 = 990, p999 = 999. Log bucketing
  // bounds the extraction error to the landing bucket's width (factor 2).
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  double p50 = h.quantile(0.5);
  double p99 = h.quantile(0.99);
  double p999 = h.quantile(0.999);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);
  EXPECT_GE(p999, 512.0);
  EXPECT_LE(p999, 1000.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
}

TEST(TraceHistogram, QuantileClampedToObservedRange) {
  Histogram h;
  h.record(700);  // Lands in [512, 1023]; interpolation must not exceed max.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 700.0);
  EXPECT_GE(h.quantile(0.5), 512.0);
  EXPECT_EQ(h.quantile(0.5), 700.0);  // min == max == 700 clamps both ways.
}

TEST(TraceHistogram, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(TraceRegistry, HistReferencesAreStable) {
  Registry reg;
  Histogram& a = reg.hist("x");
  a.record(1);
  Histogram& b = reg.hist("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.count(), 1u);
  reg.reset();
  EXPECT_EQ(a.count(), 0u);  // Reference survives reset.
}

TEST(TraceRegistry, JsonCarriesQuantiles) {
  Registry reg;
  for (std::uint64_t v = 1; v <= 100; ++v) reg.hist("lat_ns").record(v);
  reg.set_gauge("ranks", 8);
  tune::Json doc = reg.to_json();
  EXPECT_EQ(doc["schema"].as_string(), "nemo-registry/1");
  const tune::Json& h = doc["histograms"]["lat_ns"];
  EXPECT_EQ(h["count"].as_uint(), 100u);
  EXPECT_GT(h["p50"].as_double(), 0.0);
  EXPECT_GT(h["p99"].as_double(), 0.0);
  EXPECT_GT(h["p999"].as_double(), 0.0);
  EXPECT_EQ(doc["gauges"]["ranks"].as_double(), 8.0);
}

// ---------------------------------------------------------------------------
// Tracer modes
// ---------------------------------------------------------------------------

TEST(TraceTracer, DisabledModeAllocatesNothing) {
  ScopedMode off("off");
  Tracer t(7);
  EXPECT_FALSE(t.active());
  EXPECT_EQ(t.ring(), nullptr);
  // Emits through an inactive tracer are no-ops, not crashes.
  t.emit(kProgress, kBegin);
  t.emit(kProgress, kEnd);
  { Span sp(t, kCollOp, Mode::kRings, 1, 2); }
  EXPECT_EQ(t.ring(), nullptr);
}

TEST(TraceTracer, RingSlotsHonoured) {
  ScopedMode rings("rings");
  Tracer t(0, 8);
  ASSERT_TRUE(t.active());
  EXPECT_EQ(t.ring()->capacity(), 8u);
}

TEST(TraceTracer, SpanEmitsMatchedBeginEnd) {
  ScopedMode full("full");
  Tracer t(0);
  ASSERT_TRUE(t.active());
  {
    Span outer(t, kCollOp, Mode::kRings, kOpAllreduce, 4096);
    Span inner(t, kProgress, Mode::kFull);
  }
  Ring* r = t.ring();
  ASSERT_EQ(r->size(), 4u);
  EXPECT_EQ(r->at(0).id, kCollOp);
  EXPECT_EQ(r->at(0).ph, kBegin);
  EXPECT_EQ(r->at(0).a0, kOpAllreduce);
  EXPECT_EQ(r->at(1).id, kProgress);
  EXPECT_EQ(r->at(1).ph, kBegin);
  EXPECT_EQ(r->at(2).id, kProgress);
  EXPECT_EQ(r->at(2).ph, kEnd);
  EXPECT_EQ(r->at(3).id, kCollOp);
  EXPECT_EQ(r->at(3).ph, kEnd);
}

TEST(TraceTracer, RingsModeSuppressesFullSpans) {
  ScopedMode rings("rings");
  Tracer t(0);
  ASSERT_TRUE(t.active());
  { Span sp(t, kProgress, Mode::kFull); }   // Needs full: suppressed.
  { Span sp(t, kCollOp, Mode::kRings); }    // Rings: recorded.
  EXPECT_EQ(t.ring()->size(), 2u);
  EXPECT_EQ(t.ring()->at(0).id, kCollOp);
}

// ---------------------------------------------------------------------------
// Collector → Perfetto export
// ---------------------------------------------------------------------------

TEST(TracePerfetto, SyntheticDumpExports) {
  clear_dumps();
  RankDump sd;
  sd.rank = -2;
  sd.ns_timestamps = true;
  sd.events.push_back({1000, kCollOp, kBegin, 0, kOpAllreduce, 4096});
  sd.events.push_back({5000, kCollOp, kEnd, 0, 0, 0});
  sd.events.push_back({6000, kSnapshot, kCounter, 0, kGaugeProgressPasses, 42});
  append_synthetic_rank(std::move(sd));

  std::string dump_path = testing::TempDir() + "trace_unit_dump.json";
  std::string perfetto_path = testing::TempDir() + "trace_unit_perfetto.json";
  std::string err;
  ASSERT_TRUE(write_dump(dump_path, &err)) << err;
  ASSERT_TRUE(export_perfetto(dump_path, perfetto_path, &err)) << err;

  auto doc = load_dump(dump_path, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ((*doc)["schema"].as_string(), "nemo-trace/2");

  tune::Json trace = perfetto_from_dump(*doc);
  bool saw_span = false, saw_counter = false;
  for (const tune::Json& ev : trace["traceEvents"].items()) {
    if (ev["ph"].as_string() == "X") {
      saw_span = true;
      EXPECT_EQ(ev["name"].as_string(), "coll.op");
      EXPECT_DOUBLE_EQ(ev["dur"].as_double(), 4.0);  // 4000 ns = 4 us.
    }
    if (ev["ph"].as_string() == "C") saw_counter = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  clear_dumps();
  std::remove(dump_path.c_str());
  std::remove(perfetto_path.c_str());
}

}  // namespace
}  // namespace nemo::trace
