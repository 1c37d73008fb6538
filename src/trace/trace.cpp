#include "trace/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include "core/knobs.hpp"
#include "common/timing.hpp"
#include "trace/registry.hpp"
#include "tune/json.hpp"

namespace nemo::trace {

namespace detail {
std::atomic<int> g_mode{0};
}  // namespace detail

namespace {

std::once_flag g_atexit_once;

void register_exit_dump() {
  std::call_once(g_atexit_once, [] { std::atexit(maybe_write_env_dump); });
}

std::size_t round_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

struct Collector {
  std::mutex mu;
  std::vector<RankDump> dumps;
};

Collector& collector() {
  // Deliberately leaked: the NEMO_TRACE_OUT dump runs from atexit, after
  // static destructors would have torn a function-local static down.
  static Collector* c = new Collector;
  return *c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Mode
// ---------------------------------------------------------------------------

Mode mode() {
  return static_cast<Mode>(detail::g_mode.load(std::memory_order_relaxed));
}

Mode mode_from_string(const std::string& s) {
  if (s == "off" || s == "0" || s == "false" || s == "no") return Mode::kOff;
  if (s == "rings") return Mode::kRings;
  if (s == "full" || s == "on" || s == "1" || s == "true") return Mode::kFull;
  throw std::invalid_argument("NEMO_TRACE: bad value '" + s +
                              "' (want off|rings|full)");
}

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kOff: return "off";
    case Mode::kRings: return "rings";
    case Mode::kFull: return "full";
  }
  return "off";
}

void set_mode(Mode m) {
  detail::g_mode.store(static_cast<int>(m), std::memory_order_relaxed);
  if (m != Mode::kOff) register_exit_dump();
}

// ---------------------------------------------------------------------------
// tsc calibration
// ---------------------------------------------------------------------------

TscCalibration calibrate_tsc() {
  TscCalibration c;
  c.ns0 = now_ns();
  c.tsc0 = tsc_now();
  if (c.tsc0 == 0) {
    // No tsc on this architecture: tsc_now() would always return 0, so the
    // identity mapping keeps tsc_to_ns well defined (callers then record
    // now_ns() themselves if they need real timelines).
    c.ns_per_tick = 1.0;
    return c;
  }
  // Spin for ~2ms measuring both clocks; long enough that steady_clock
  // granularity is noise, short enough to run from a test.
  const std::uint64_t window_ns = 2'000'000;
  std::uint64_t ns1 = c.ns0, tsc1 = c.tsc0;
  while (ns1 - c.ns0 < window_ns) {
    ns1 = now_ns();
    tsc1 = tsc_now();
  }
  std::uint64_t dtick = tsc1 - c.tsc0;
  c.ns_per_tick = dtick == 0 ? 1.0
                             : static_cast<double>(ns1 - c.ns0) /
                                   static_cast<double>(dtick);
  return c;
}

const TscCalibration& calibration() {
  static const TscCalibration c = calibrate_tsc();
  return c;
}

std::uint64_t tsc_to_ns(const TscCalibration& c, std::uint64_t tsc) {
  double dt = (static_cast<double>(tsc) - static_cast<double>(c.tsc0)) *
              c.ns_per_tick;
  double ns = static_cast<double>(c.ns0) + dt;
  return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns);
}

std::uint64_t ns_to_tsc(const TscCalibration& c, std::uint64_t ns) {
  double dticks = (static_cast<double>(ns) - static_cast<double>(c.ns0)) /
                  (c.ns_per_tick == 0 ? 1.0 : c.ns_per_tick);
  double tsc = static_cast<double>(c.tsc0) + dticks;
  return tsc <= 0 ? 0 : static_cast<std::uint64_t>(tsc);
}

// ---------------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------------

const char* event_name(std::uint16_t id) {
  switch (id) {
    case kProgress: return "progress";
    case kFastboxPut: return "fastbox.put";
    case kFastboxPop: return "fastbox.pop";
    case kRingPush: return "ring.push";
    case kRingPop: return "ring.pop";
    case kCollOp: return "coll.op";
    case kCollDeposit: return "coll.deposit";
    case kCollFold: return "coll.fold";
    case kCollRelease: return "coll.release";
    case kCollBarrier: return "coll.barrier";
    case kFence: return "resil.fence";
    case kLmtActivate: return "lmt.activate";
    case kLmtComplete: return "lmt.complete";
    case kFastboxFallback: return "fastbox.fallback";
    case kRingStall: return "ring.stall";
    case kEpochStall: return "coll.epoch_stall";
    case kPeerDeath: return "resil.peer_death";
    case kSnapshot: return "snapshot";
    default: return "unknown";
  }
}

const char* gauge_name(std::uint64_t id) {
  switch (id) {
    case kGaugeFastboxHits: return "fastbox_hits";
    case kGaugeRingStalls: return "ring_stalls";
    case kGaugeProgressPasses: return "progress_passes";
    case kGaugeCollShmOps: return "coll_shm_ops";
    default: return "gauge";
  }
}

const char* coll_op_name(std::uint64_t id) {
  switch (id) {
    case kOpBcast: return "bcast";
    case kOpReduce: return "reduce";
    case kOpAllreduce: return "allreduce";
    case kOpAllgather: return "allgather";
    case kOpAlltoall: return "alltoall";
    case kOpAlltoallv: return "alltoallv";
    case kOpBarrier: return "barrier";
    default: return "coll";
  }
}

// ---------------------------------------------------------------------------
// Ring / Tracer
// ---------------------------------------------------------------------------

Ring::Ring(std::size_t slots)
    : slots_(round_pow2(slots < 2 ? 2 : slots)),
      mask_(slots_.size() - 1) {}

Tracer::Tracer(int rank, std::size_t ring_slots) : rank_(rank) {
  if (on(Mode::kRings)) {
    ring_ = std::make_unique<Ring>(ring_slots);
    (void)calibration();  // calibrate outside the measured region
  }
}

Tracer::~Tracer() { flush(); }

void Tracer::flush() {
  if (!ring_ || ring_->head() == flushed_head_) return;
  flush_to_collector(rank_, *ring_, flushed_head_, ring_->head());
  flushed_head_ = ring_->head();
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

void flush_to_collector(int rank, const Ring& ring, std::uint64_t from,
                        std::uint64_t to) {
  RankDump d;
  d.rank = rank;
  d.dropped = ring.dropped();
  // Only records still resident and not flushed before.
  std::uint64_t first = to - ring.size();
  if (from > first) first = from;
  d.events.reserve(static_cast<std::size_t>(to - first));
  std::uint64_t base = ring.head() - ring.size();
  for (std::uint64_t i = first; i < to; ++i)
    d.events.push_back(ring.at(static_cast<std::size_t>(i - base)));
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  c.dumps.push_back(std::move(d));
}

std::vector<RankDump> snapshot_dumps() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  return c.dumps;
}

void clear_dumps() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  c.dumps.clear();
}

bool write_dump(const std::string& path, std::string* err) {
  const TscCalibration& cal = calibration();
  tune::Json doc = tune::Json::object();
  doc.set("schema", std::string("nemo-trace/2"));
  doc.set("mode", std::string(to_string(mode())));
  tune::Json tsc = tune::Json::object();
  tsc.set("tsc0", cal.tsc0);
  tsc.set("ns0", cal.ns0);
  tsc.set("ns_per_tick", cal.ns_per_tick);
  doc.set("tsc", std::move(tsc));

  tune::Json names = tune::Json::object();
  for (std::uint16_t id = 1; id < kEventCount; ++id)
    names.set(std::to_string(id), std::string(event_name(id)));
  doc.set("names", std::move(names));

  tune::Json ranks = tune::Json::array();
  for (const RankDump& d : snapshot_dumps()) {
    tune::Json r = tune::Json::object();
    r.set("rank", static_cast<std::int64_t>(d.rank));
    r.set("dropped", d.dropped);
    tune::Json evs = tune::Json::array();
    for (const Record& rec : d.events) {
      tune::Json e = tune::Json::array();
      e.push_back(tsc_to_ns(cal, rec.tsc));
      e.push_back(static_cast<std::uint64_t>(rec.id));
      e.push_back(static_cast<std::uint64_t>(rec.ph));
      e.push_back(rec.a0);
      e.push_back(rec.a1);
      evs.push_back(std::move(e));
    }
    r.set("events", std::move(evs));
    ranks.push_back(std::move(r));
  }
  doc.set("ranks", std::move(ranks));
  doc.set("registry", registry().to_json());

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::string text = doc.dump(1);
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok && err) *err = "short write to " + path;
  return ok;
}

void maybe_write_env_dump() {
  auto out = process_env("NEMO_TRACE_OUT");
  if (!out) return;
  std::string err;
  if (!write_dump(*out, &err))
    std::fprintf(stderr, "nemo: trace dump failed: %s\n", err.c_str());
}

}  // namespace nemo::trace
