// Shared declarations of the benchmark binary: host description and core
// binding, the rank-thread spin barrier, the three workload phases
// (phases.cpp) and the per-layer probes (layers.cpp).
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/comm.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace nemobench {

// --- host ------------------------------------------------------------------

struct Host {
  std::vector<int> cpus;  ///< CPUs this process may run on, ascending.
  std::string cpu_model;
  std::size_t l2_bytes = 0;
  std::size_t llc_bytes = 0;
};
const Host& host();

/// One distinct allowed CPU per rank, as an MPI launcher binds them (wraps,
/// i.e. oversubscribes, only when ranks exceed CPUs).
std::vector<int> binding(int nranks);

/// Threads-mode world of `nranks` bound ranks; every other knob at its
/// shipped default.
nemo::core::Config world_config(int nranks);

/// Pin the calling worker thread to binding(n)[idx].
void pin_worker(int nranks, int idx);

// --- synchronisation ---------------------------------------------------------

/// Sense-counting spin barrier for the rank threads of one world. Keeps the
/// caller's engine progressing now and then while it spins, so a rank parked
/// here can never starve a peer of a control message it still owes.
class SpinBarrier {
 public:
  explicit SpinBarrier(int n) : n_(static_cast<std::uint32_t>(n)) {}
  void wait(nemo::core::Engine* eng = nullptr) {
    std::uint32_t gen = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      count_.store(0, std::memory_order_relaxed);
      gen_.fetch_add(1, std::memory_order_release);
      return;
    }
    std::uint32_t spins = 0;
    while (gen_.load(std::memory_order_acquire) == gen) {
      if (eng != nullptr && (++spins & 0xFF) == 0) eng->progress();
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
  }

 private:
  std::uint32_t n_;
  alignas(64) std::atomic<std::uint32_t> count_{0};
  alignas(64) std::atomic<std::uint32_t> gen_{0};
};

// --- metrics -------------------------------------------------------------------

struct Metric {
  std::string unit;
  double value = std::nan("");
  std::size_t n = 0;              ///< Samples behind a median (0 = derived).
  double p99 = std::nan("");      ///< Slow-tail value beside a median.
};
using Metrics = std::map<std::string, Metric>;

// --- failure accounting -------------------------------------------------------

/// Ops attempted and failed, with the first few failures described.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(std::uint64_t n_attempted, std::uint64_t n_failed,
           const std::string& what) {
    attempted += n_attempted;
    failed += n_failed;
    if (n_failed != 0 && errors.size() < 8) errors.push_back(what);
  }
  void add(const Outcome& o) {
    add(o.attempted, o.failed, o.errors.empty() ? "" : o.errors.front());
  }
};

/// Outcome accounting shared by the threads of a phase or probe. A wrong
/// result or a throwing op counts as one failed op; the run goes on.
class Failures {
 public:
  explicit Failures(Outcome& out) : out_(out) {}
  void add(std::uint64_t attempted, std::uint64_t failed,
           const std::string& what) {
    std::lock_guard<std::mutex> lk(mu_);
    out_.add(attempted, failed, what);
  }
  void add(const Outcome& o) {
    std::lock_guard<std::mutex> lk(mu_);
    out_.add(o);
  }
  void note(const std::string& what) { add(0, 1, what); }
  void attempted(std::uint64_t n) { add(n, 0, ""); }

  /// Run `op`, counting an exception as a failure instead of letting it
  /// escape (core::run aborts the world on an escaping rank exception).
  template <typename F>
  void guard(const std::string& what, F&& op) {
    try {
      op();
    } catch (const std::exception& e) {
      note(what + ": " + e.what());
    } catch (...) {
      note(what + ": unknown exception");
    }
  }

 private:
  Outcome& out_;
  std::mutex mu_;  // Guards out_.
};

// --- phases ----------------------------------------------------------------------

/// The engine counters the per-layer metrics read, taken through the
/// public tune::Counters / EngineStats accessors.
struct Tally {
  std::uint64_t fastbox_hits = 0;
  std::uint64_t fastbox_fallbacks = 0;
  std::uint64_t ring_stalls = 0;
  std::uint64_t progress_passes = 0;
  std::uint64_t coll_shm_ops = 0;
  std::uint64_t coll_p2p_ops = 0;
  std::uint64_t coll_fallbacks = 0;
  std::uint64_t coll_epoch_stalls = 0;
  std::uint64_t um_pool_hits = 0;
  std::uint64_t um_pool_misses = 0;
  std::uint64_t msgs_delivered = 0;  ///< Eager + rendezvous receives.
  std::array<std::uint64_t, nemo::tune::Counters::kPaths> path{};

  static Tally of(const nemo::core::Engine& eng);
  Tally& operator+=(const Tally& o);
  Tally operator-(const Tally& o) const;
};

/// What one workload phase measured. Samples are nanoseconds per op, keyed
/// by message size (pingpong), "window" (fanin) or op name (collectives).
/// The tally is the delta over the timed window, summed over ranks.
struct PhaseResult {
  std::map<std::string, std::vector<double>> samples_ns;
  Tally tally;
  Outcome outcome;
  /// Collectives: per op, rank 0's calls that took the arena / pt2pt.
  std::array<std::array<std::uint64_t, 2>, kCollOps> coll_path{};
  /// Pingpong: the path (tune::Counters::path_hist index) rank 0's warm-up
  /// send of each size took.
  std::map<std::size_t, int> path_by_size;
  std::uint32_t ring_buf_bytes = 0;  ///< Pair (0,1) copy-ring chunk size.
  std::vector<std::unique_ptr<SpanLog>> spans;  ///< One per rank if traced.
};

/// 2-rank closed-loop pingpong over `sizes` (empty = all five) for
/// `seconds`. `cfg` replaces the default 2-rank world (backend-forcing
/// probes build it from world_config(2)).
PhaseResult run_pingpong(std::uint64_t seed, double seconds, bool traced,
                         const std::vector<std::size_t>& sizes = {},
                         std::optional<nemo::core::Config> cfg = {});
/// 4-rank fan-in: ranks 1-3 stream windows of small isends to rank 0.
PhaseResult run_fanin(std::uint64_t seed, double seconds, bool traced);
/// 4-rank seeded interleave of the six collective ops.
PhaseResult run_collectives(std::uint64_t seed, double seconds, bool traced);

/// Fold one slice's result into the phase's running total.
void merge(PhaseResult& into, PhaseResult&& from);

/// Seconds from World construction to the first op, `reps` bring-ups of an
/// `nranks` world through core::run.
std::vector<double> bringup_seconds(int nranks, int reps);

// --- per-layer probes ---------------------------------------------------------------

/// A timing metric from nanosecond samples: median (and p99) times `scale`.
Metric time_metric(const std::vector<double>& ns, double scale,
                   const char* unit);
/// A MiB/s metric from per-transfer nanosecond samples of `bytes` each; the
/// p99 beside it is the rate of the slow tail.
Metric rate_metric(const std::vector<double>& ns, std::size_t bytes);

struct ProbeResult {
  Metrics metrics;
  std::vector<std::unique_ptr<SpanLog>> logs;
  Outcome outcome;
};

/// Run every single-layer probe (layers.cpp) within about `seconds`.
/// `world_ranks` sizes the worlds the bring-up probes construct.
ProbeResult run_layer_probes(std::uint64_t seed, double seconds,
                             int world_ranks);

}  // namespace nemobench
