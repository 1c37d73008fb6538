// Always-on tracing: per-rank lock-free event rings, runtime-gated.
//
// The tracer is compiled in unconditionally but gated by NEMO_TRACE
// (off | rings | full) so the disabled fast path is one relaxed load and a
// branch — cheap enough to leave in every hot path. Each Engine owns one
// Ring (engine-private, SPSC: the rank thread produces, the post-run dump
// consumes), mirroring the tune::Counters philosophy of plain stores on
// private memory. Records are fixed 32-byte slots: tsc timestamp, event id,
// phase, and two u64 arguments. A full ring overwrites the oldest records
// flight-recorder style and counts the overwritten slots as drops.
//
// Knobs (see docs/OBSERVABILITY.md):
//   NEMO_TRACE            off (default) | rings | full
//   NEMO_TRACE_RING_SLOTS slots per rank ring (default 8192, rounded to 2^n)
//   NEMO_TRACE_OUT        dump file written at process exit
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace nemo::trace {

// ---------------------------------------------------------------------------
// Mode gate
// ---------------------------------------------------------------------------

enum class Mode : int {
  kOff = 0,    // record nothing; the gate is the only cost
  kRings = 1,  // coarse events: LMT activation, coll phases, stalls
  kFull = 2,   // + per-pass / per-chunk spans and counter snapshots
};

namespace detail {
extern std::atomic<int> g_mode;
}  // namespace detail

/// The disabled fast path: one relaxed load + branch.
inline bool on(Mode need = Mode::kRings) {
  return detail::g_mode.load(std::memory_order_relaxed) >=
         static_cast<int>(need);
}

[[nodiscard]] Mode mode();
/// Process-wide: every World installs its resolved NEMO_TRACE here at
/// construction (pin it per World with Config::env; tools without a World
/// call set_mode directly).
void set_mode(Mode m);
const char* to_string(Mode m);
/// NEMO_TRACE vocabulary: off|rings|full (plus 0/1/on/true/false/no);
/// throws std::invalid_argument naming NEMO_TRACE on anything else.
Mode mode_from_string(const std::string& s);

// ---------------------------------------------------------------------------
// Timestamps: raw tsc on x86 (one instruction on the record path), steady
// clock elsewhere. A once-per-process calibration maps ticks to the same
// ns timeline as now_ns() so dumps line up with wall-clock measurements.
// ---------------------------------------------------------------------------

inline std::uint64_t tsc_now() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return 0;  // replaced by now_ns() via the calibration identity mapping
#endif
}

struct TscCalibration {
  std::uint64_t tsc0 = 0;      // tsc sample ...
  std::uint64_t ns0 = 0;       // ... taken at this now_ns()
  double ns_per_tick = 1.0;    // measured over the calibration window
};

/// Measure tsc vs steady_clock over a short spin window.
TscCalibration calibrate_tsc();
/// Process-wide calibration, computed once on first use.
const TscCalibration& calibration();

std::uint64_t tsc_to_ns(const TscCalibration& c, std::uint64_t tsc);
std::uint64_t ns_to_tsc(const TscCalibration& c, std::uint64_t ns);

// ---------------------------------------------------------------------------
// Event taxonomy
// ---------------------------------------------------------------------------

enum Event : std::uint16_t {
  kNone = 0,
  // Scoped spans (begin/end pairs, properly nested per rank).
  kProgress,      // one Engine::progress() pass            (full)
  kFastboxPut,    // eager send to a ring, a0=peer a1=bytes (full)
  kFastboxPop,    // eager record read, a0=peer a1=bytes    (full)
  kRingPush,      // CopyRing chunk copy-in, a0=peer a1=b   (full)
  kRingPop,       // CopyRing chunk copy-out, a0=peer a1=b  (full)
  kCollOp,        // one collective, a0=Op a1=bytes         (rings)
  kCollDeposit,   // reduce operand staging, a0=round a1=b  (rings)
  kCollFold,      // share chunk fold, a0=round a1=b        (rings)
  kCollRelease,   // folded-share read-back, a0=round a1=b  (rings)
  kCollBarrier,   // arena barrier                          (rings)
  kFence,         // post-death epoch fence, a0=dead rank   (rings)
  // Instants.
  kLmtActivate,      // rendezvous chosen, a0=peer a1=bytes (rings)
  kLmtComplete,      // rendezvous done, a0=peer a1=bytes   (rings)
  kFastboxFallback,  // ring full -> record deferred, a0=peer (rings)
  kRingStall,        // CopyRing full, a0=peer              (rings)
  kEpochStall,       // arena spin missed, a0=waited rank   (rings)
  kPeerDeath,        // death verdict, a0=rank a1=site      (rings)
  // Counter track samples.
  kSnapshot,  // a0=Gauge a1=value                          (full)
  kEventCount
};

const char* event_name(std::uint16_t id);

enum Ph : std::uint16_t { kInstant = 0, kBegin = 1, kEnd = 2, kCounter = 3 };

/// Counter-track ids carried in kSnapshot.a0.
enum Gauge : std::uint64_t {
  kGaugeFastboxHits = 0,
  kGaugeRingStalls,
  kGaugeProgressPasses,
  kGaugeCollShmOps,
  kGaugeCount
};
const char* gauge_name(std::uint64_t id);

/// Collective-op ids carried in kCollOp.a0 (payload bytes in a1).
enum CollOp : std::uint64_t {
  kOpBcast = 0,
  kOpReduce,
  kOpAllreduce,
  kOpAllgather,
  kOpAlltoall,
  kOpAlltoallv,
  kOpBarrier,
  kOpCount
};
const char* coll_op_name(std::uint64_t id);

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

struct Record {
  std::uint64_t tsc;
  std::uint16_t id;   // Event
  std::uint16_t ph;   // Ph
  std::uint32_t pad;
  std::uint64_t a0;
  std::uint64_t a1;
};
static_assert(sizeof(Record) == 32, "fixed-slot trace record");

/// Fixed-capacity overwrite ring. Engine-private: the owning rank thread is
/// the only writer; readers run after the rank is done (flush/dump). No
/// atomics on the record path.
class Ring {
 public:
  explicit Ring(std::size_t slots);  // rounded up to a power of two

  void record(std::uint16_t id, std::uint16_t ph, std::uint64_t a0,
              std::uint64_t a1) {
    Record& r = slots_[head_ & mask_];
    r.tsc = tsc_now();
    r.id = id;
    r.ph = ph;
    r.pad = 0;
    r.a0 = a0;
    r.a1 = a1;
    ++head_;
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Records ever written (monotonic).
  [[nodiscard]] std::uint64_t head() const { return head_; }
  /// Records overwritten because the ring wrapped.
  [[nodiscard]] std::uint64_t dropped() const {
    return head_ > slots_.size() ? head_ - slots_.size() : 0;
  }
  /// Records currently held.
  [[nodiscard]] std::size_t size() const {
    return head_ < slots_.size() ? static_cast<std::size_t>(head_)
                                 : slots_.size();
  }
  /// i-th surviving record, oldest first (i in [0, size())).
  [[nodiscard]] const Record& at(std::size_t i) const {
    std::uint64_t first = head_ - size();
    return slots_[(first + i) & mask_];
  }

 private:
  std::vector<Record> slots_;
  std::uint64_t mask_;
  std::uint64_t head_ = 0;
};

/// Ring capacity when NEMO_TRACE_RING_SLOTS is unset.
inline constexpr std::size_t kDefaultRingSlots = 8192;

// ---------------------------------------------------------------------------
// Per-rank tracer
// ---------------------------------------------------------------------------

/// One per Engine. Allocates its ring only when tracing is enabled at
/// construction — disabled mode allocates nothing.
class Tracer {
 public:
  explicit Tracer(int rank, std::size_t ring_slots = kDefaultRingSlots);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void emit(Event e, Ph ph, std::uint64_t a0 = 0, std::uint64_t a1 = 0) {
    if (ring_) ring_->record(static_cast<std::uint16_t>(e),
                             static_cast<std::uint16_t>(ph), a0, a1);
  }

  [[nodiscard]] bool active() const { return ring_ != nullptr; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] Ring* ring() { return ring_.get(); }

  /// Copy the ring contents into the process collector (also runs from the
  /// destructor; safe to call early, later records flush again on top).
  void flush();

 private:
  int rank_;
  std::unique_ptr<Ring> ring_;
  std::uint64_t flushed_head_ = 0;
};

/// Scoped span: emits kBegin on construction and kEnd on destruction when
/// the tracer is active and the mode reaches `need`; otherwise free.
class Span {
 public:
  Span(Tracer& t, Event e, Mode need, std::uint64_t a0 = 0,
       std::uint64_t a1 = 0)
      : t_(on(need) && t.active() ? &t : nullptr), e_(e) {
    if (t_) t_->emit(e_, kBegin, a0, a1);
  }
  ~Span() {
    if (t_) t_->emit(e_, kEnd, 0, 0);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  Event e_;
};

// ---------------------------------------------------------------------------
// Collector: rings flushed by finished Tracers, aggregated per process and
// written as a "nemo-trace/2" JSON dump (NEMO_TRACE_OUT or write_dump()).
// ---------------------------------------------------------------------------

struct RankDump {
  int rank = 0;
  std::uint64_t dropped = 0;
  bool ns_timestamps = false;  // true for synthetic (sim-generated) ranks
  std::vector<Record> events;
};

void flush_to_collector(int rank, const Ring& ring, std::uint64_t from,
                        std::uint64_t to);
/// Inject a pre-built timeline (timestamps already in ns) — used by sim
/// replays to emit modeled traces through the same exporter.
void append_synthetic_rank(RankDump dump);
std::vector<RankDump> snapshot_dumps();
void clear_dumps();

/// Serialize the collector + registry as a nemo-trace/2 dump file.
bool write_dump(const std::string& path, std::string* err = nullptr);
/// Honour NEMO_TRACE_OUT if set (registered atexit once tracing enables).
void maybe_write_env_dump();

}  // namespace nemo::trace
