// The collective-crossover probe: run the same bcast in short real worlds
// with the path pinned each way (a NEMO_COLL pin beats the ambient one) and
// hand the two wall-clock cost functions to the generic crossover search.
//
// Layering note: like tune/feedback.cpp, this file sits in tune/ but drives
// core::run to generate measurement traffic — tooling, not a runtime
// dependency.
#include <algorithm>
#include <vector>

#include "common/timing.hpp"
#include "core/comm.hpp"
#include "shm/process_runner.hpp"
#include "tune/calibrate.hpp"

namespace nemo::tune {

namespace {

/// Median wall-clock nanoseconds of one bcast at `bytes` under `mode`.
/// Returns a huge cost when the world cannot run so the search degrades
/// instead of throwing mid-calibration.
double bcast_cost_ns(const Topology& topo, const TuningTable& t,
                     coll::Mode mode, std::size_t bytes, int nranks,
                     int repeats) {
  constexpr double kUnrunnable = 1e15;
  core::Config cfg;
  cfg.env["NEMO_COLL"] = coll::to_string(mode);
  cfg.nranks = nranks;
  cfg.mode = core::LaunchMode::kThreads;
  cfg.topo = topo;
  cfg.tuning = t;
  cfg.shared_pool_bytes = 4 * bytes + 8 * MiB;
  std::vector<double> samples;
  try {
    core::run(cfg, [&](core::Comm& comm) {
      std::vector<std::byte> buf(bytes, std::byte{0x5A});
      const int kIters = 8;
      comm.bcast(buf.data(), bytes, 0);  // Warm-up.
      for (int s = 0; s < repeats; ++s) {
        comm.hard_barrier();
        Timer timer;
        for (int i = 0; i < kIters; ++i) comm.bcast(buf.data(), bytes, 0);
        std::uint64_t ns = timer.elapsed_ns();
        if (comm.rank() == 0)
          samples.push_back(static_cast<double>(ns) / kIters);
      }
    });
  } catch (const std::exception&) {
    return kUnrunnable;
  }
  if (samples.empty()) return kUnrunnable;
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

std::optional<std::size_t> measure_coll_crossover(
    const Topology& topo, const TuningTable& t,
    const CalibrationOptions& opt) {
  // Time-sliced ranks measure the scheduler, not the algorithms.
  if (shm::available_cores() < 2) return std::nullopt;
  int nranks = std::min(4, std::max(2, shm::available_cores()));
  CostFn p2p = [&](std::size_t bytes) {
    return bcast_cost_ns(topo, t, coll::Mode::kP2p, bytes, nranks,
                         opt.repeats);
  };
  CostFn shm_path = [&](std::size_t bytes) {
    return bcast_cost_ns(topo, t, coll::Mode::kShm, bytes, nranks,
                         opt.repeats);
  };
  std::size_t lo = std::max<std::size_t>(512, kCacheLine);
  std::size_t hi = std::min<std::size_t>(opt.max_size, 1 * MiB);
  return find_crossover(p2p, shm_path, lo, hi, /*refine_steps=*/3);
}

}  // namespace nemo::tune
