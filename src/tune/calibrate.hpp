// In-process calibration: measure the crossover points the paper derives
// from architecture formulas, on the machine actually running. The search
// core is deliberately generic (two cost functions of size) so it is
// testable against synthetic cost models; the measurement probes feed it
// wall-clock costs of the real copy primitives.
//
// Calibration is placement-aware: each probe pins its two threads to a core
// pair of the requested placement class (skipping classes this machine does
// not have — a 1-core container calibrates nothing and keeps the formulas).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/topology.hpp"
#include "simd/simd.hpp"
#include "tune/tuning.hpp"

namespace nemo::tune {

/// Cost of performing the operation on a message of `bytes` (any unit, as
/// long as both sides of a comparison use the same one).
using CostFn = std::function<double(std::size_t)>;

/// Find the smallest size in [lo, hi] at which `cost_b` becomes cheaper
/// than `cost_a`, assuming the sign of (cost_a - cost_b) changes at most
/// once over the range (monotone crossover — true of every tradeoff we
/// tune: a constant-overhead-but-cheaper-per-byte mechanism against a
/// cheap-setup-but-costlier-per-byte one).
///
/// Scans geometrically (×2) to bracket the crossover, then bisects
/// `refine_steps` times. Returns nullopt when `cost_b` never wins on the
/// range; returns `lo` when it already wins there.
std::optional<std::size_t> find_crossover(const CostFn& cost_a,
                                          const CostFn& cost_b,
                                          std::size_t lo, std::size_t hi,
                                          int refine_steps = 5);

/// Knobs bounding how long calibration may take.
struct CalibrationOptions {
  std::size_t min_size = 4 * KiB;
  std::size_t max_size = 32 * MiB;
  int repeats = 3;          ///< Median-of-N per probe point.
  bool verbose = false;     ///< Narrate each measured crossover to stdout.
  /// Pin probe threads to the placement's core pair (disable for tests on
  /// restricted hosts where sched_setaffinity may fail).
  bool pin = true;
  /// Run the telemetry feedback pass after the crossover probes (short
  /// alltoall worlds at feedback.rank_counts; see FeedbackOptions). Also
  /// gated by NEMO_FEEDBACK (default on).
  bool feedback = true;
  /// Measure the shm-vs-pt2pt collective crossover (short bcast worlds;
  /// skipped, keeping the formula default, when the host cannot run ranks
  /// in parallel).
  bool coll = true;
  /// Race the reduction fold kernels (scalar vs each compiled+supported
  /// vector ISA, per element type) and pin the winner in the table.
  bool simd = true;
};

/// Measure this machine and return a table with source == "calibrated".
/// Placement classes the topology does not expose keep their formula rows;
/// measured rows replace them. Never throws on measurement trouble — a probe
/// that cannot run leaves its formula value in place. With opt.feedback the
/// crossover pass is followed by the counter-driven feedback pass below.
TuningTable calibrate(const Topology& topo, const CalibrationOptions& opt = {});

// --- Telemetry feedback pass ------------------------------------------------
//
// PR2 built the telemetry (ring stalls, drain exhaustion, fastbox hit rate)
// but only recorded it. This pass closes the loop: run a short alltoall
// probe, read the aggregated tune::Counters back, and adjust the parts of
// the table the crossover probes cannot see — drain budget, fastbox
// geometry/polling order, and per-placement ring depth.

struct Counters;  // tune/counters.hpp

/// Thresholds and probe shape for the feedback pass.
struct FeedbackOptions {
  /// Rank counts to probe (alltoall stresses every pair at once; 4 and 8
  /// cover the "few hot pairs" and "many pairs contending" regimes).
  int rank_counts[2] = {4, 8};
  int iters = 24;  ///< Alltoall rounds per probe world.
  /// Per-pair rendezvous payload. Several ring laps (default ring capacity
  /// is 4 x 32 KiB), so sender/receiver pipelining — and its failure mode,
  /// ring stalls — actually shows up in the counters.
  std::size_t rndv_bytes = 512 * KiB;
  std::size_t eager_bytes = 512;     ///< Per-pair eager payload (same round).
  bool verbose = false;

  /// Ring depth a zero (inherit) placement row actually ran with during the
  /// probe: the Config default, or NEMO_RING_BUFS when set. The stall
  /// reaction doubles from here so the recorded depth can never be lower
  /// than the one observed stalling. calibrate_feedback() resolves it the
  /// way the probe Worlds do (NEMO_RING_BUFS); override only in tests.
  std::uint32_t inherited_ring_bufs = 4;

  // Reaction thresholds, as rates over progress passes / attempts.
  double stall_hi = 0.02;     ///< ring_stalls per progress pass.
  double drain_hi = 0.05;     ///< drain_exhausted per progress pass.
  double fallback_hi = 0.25;  ///< fastbox_fallbacks per fastbox attempt.
  double fastbox_dominant = 0.5;  ///< Fastbox share of sends -> poll_hot.
  /// coll_epoch_stalls per shm collective op. A high rate means the arena
  /// ops spend their time parked on unpublished doorbells/acks — the
  /// per-op synchronisation dominates the payload, so the crossover was
  /// set too low; the reaction doubles coll_activation (cap 1 MiB).
  double coll_stall_hi = 4.0;
};

/// The pure policy step: derive a new table from a counter aggregate.
/// Deterministic and side-effect free so it is unit-testable on synthetic
/// counter streams. Adjustments:
///  - drain_exhausted rate high  -> double drain_budget (cap 4096);
///  - ring_stalls rate high      -> double each placement row's ring depth
///    (materialising the Config default 4 when the row inherits; cap 32);
///  - fastbox fallback rate high -> double fastbox_slots (cap 64) and turn
///    on hot-peer-first polling;
///  - fastbox-dominant traffic   -> hot-peer-first polling;
///  - coll epoch stalls per shm op high -> double coll_activation (cap
///    1 MiB): sync-dominated arena collectives should have gone pt2pt.
TuningTable apply_counter_feedback(TuningTable t, const Counters& total,
                                   const FeedbackOptions& opt = {});

/// Run one probe world (`nranks` ranks, thread mode, alltoall of
/// opt.rndv_bytes + a small eager storm per round) against table `t` and
/// return the cross-rank counter aggregate. nullopt when the world cannot
/// run (e.g. fork-bomb-guarded CI with nranks > some hard limit) — the
/// caller then keeps `t` unchanged.
std::optional<Counters> run_feedback_probe(const Topology& topo,
                                           const TuningTable& t, int nranks,
                                           const FeedbackOptions& opt = {});

/// probe -> apply, once per rank count in opt.rank_counts (the second probe
/// runs against the already-adjusted table, so a first-round fix that holds
/// at 8 ranks is not doubled again). Returns the adjusted table.
TuningTable calibrate_feedback(const Topology& topo, TuningTable t,
                               const FeedbackOptions& opt = {});

// --- Individual probes (exposed for nemo-tune's narration) -----------------

/// Crossover where streaming (non-temporal) copies start beating cached
/// copies once the cost of refilling the evicted working set is charged.
/// nullopt when NT stores are unavailable or never win.
std::optional<std::size_t> measure_nt_crossover(std::size_t working_set,
                                                const CalibrationOptions& opt);

/// Crossover where a handshaked, pipelined rendezvous beats the eager
/// two-copy-through-cells path. `handshake_ns` is the measured (or assumed)
/// RTS/CTS round-trip.
std::optional<std::size_t> measure_activation_crossover(
    double handshake_ns, const CalibrationOptions& opt);

/// One-way notification latency between two cores (acquire/release flag
/// pingpong); the handshake cost feeding the activation probe. nullopt when
/// the pair cannot be pinned or timed.
std::optional<double> measure_pair_latency_ns(int core_a, int core_b,
                                              const CalibrationOptions& opt);

/// Crossover where the shm collective arena starts beating the pt2pt
/// algorithms, measured as wall-clock bcast cost in short real worlds
/// (NEMO_COLL forced each way; src/tune/coll_probe.cpp). nullopt when the
/// host exposes <2 cores — time-sliced ranks would measure the scheduler —
/// or when the arena path never wins on the probed range.
std::optional<std::size_t> measure_coll_crossover(
    const Topology& topo, const TuningTable& t,
    const CalibrationOptions& opt);

/// Race the reduction fold through every compiled+supported kernel (scalar
/// always runs; AVX2/AVX-512 when the host has them) over f64/f32/i32
/// operands at a reduction-typical size, and return the fastest as a
/// CONCRETE table choice (never kAuto — a cached table must replay the same
/// selection without re-probing CPUID). nullopt only if no kernel can run
/// (never on hosts this code compiles for — scalar is always supported).
std::optional<simd::Choice> measure_simd_kernel(
    const CalibrationOptions& opt);

}  // namespace nemo::tune
