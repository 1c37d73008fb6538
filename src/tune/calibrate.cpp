#include "tune/calibrate.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/options.hpp"
#include "common/timing.hpp"
#include "core/knobs.hpp"
#include "shm/nt_copy.hpp"
#include "shm/process_runner.hpp"

namespace nemo::tune {

std::optional<std::size_t> find_crossover(const CostFn& cost_a,
                                          const CostFn& cost_b,
                                          std::size_t lo, std::size_t hi,
                                          int refine_steps) {
  NEMO_ASSERT(lo >= 1 && lo <= hi);
  auto b_wins = [&](std::size_t s) { return cost_b(s) < cost_a(s); };
  if (b_wins(lo)) return lo;

  // Geometric scan to bracket the sign change.
  std::size_t prev = lo;
  std::size_t cur = lo;
  bool found = false;
  while (cur < hi) {
    cur = cur > hi / 2 ? hi : cur * 2;
    if (b_wins(cur)) {
      found = true;
      break;
    }
    prev = cur;
  }
  if (!found) return std::nullopt;

  // Bisect (prev: a wins, cur: b wins).
  std::size_t a_side = prev, b_side = cur;
  for (int i = 0; i < refine_steps && b_side - a_side > 1; ++i) {
    std::size_t mid = a_side + (b_side - a_side) / 2;
    if (b_wins(mid))
      b_side = mid;
    else
      a_side = mid;
  }
  return b_side;
}

namespace {

/// Median-of-N wall-clock cost of `fn` in ns.
template <typename Fn>
double median_ns(int repeats, Fn&& fn) {
  Stats st;
  for (int i = 0; i < std::max(1, repeats); ++i) {
    Timer t;
    fn();
    st.add(static_cast<double>(t.elapsed_ns()));
  }
  return st.median();
}

/// Read every cache line of `buf` (keeps/refills the working set).
std::uint64_t touch(const std::byte* buf, std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; i += kCacheLine)
    sum += static_cast<std::uint64_t>(buf[i]);
  return sum;
}

std::atomic<std::uint64_t> g_sink{0};

}  // namespace

std::optional<std::size_t> measure_nt_crossover(
    std::size_t working_set, const CalibrationOptions& opt) {
  if (!shm::nt_copy_available()) return std::nullopt;
  if (working_set < 64 * KiB) working_set = 64 * KiB;

  std::vector<std::byte> src(opt.max_size, std::byte{0x5a});
  std::vector<std::byte> dst(opt.max_size);
  std::vector<std::byte> ws(working_set, std::byte{1});

  // Cost of copying `s` bytes and then re-using the working set: the cached
  // copy evicts it (cost grows with s past the cache size), the streaming
  // copy leaves it resident at the price of uncached stores.
  auto cost = [&](bool nt) {
    return [&, nt](std::size_t s) {
      g_sink += touch(ws.data(), ws.size());  // Make the set resident.
      return median_ns(opt.repeats, [&] {
        shm::copy_for(nt, dst.data(), src.data(), s);
        g_sink += touch(ws.data(), ws.size());
      });
    };
  };
  return find_crossover(cost(false), cost(true), opt.min_size, opt.max_size);
}

std::optional<double> measure_pair_latency_ns(int core_a, int core_b,
                                              const CalibrationOptions& opt) {
  constexpr int kRounds = 2000;
  alignas(kCacheLine) static std::atomic<std::uint32_t> ping{0};
  ping.store(0, std::memory_order_relaxed);
  std::atomic<bool> pinned_ok{true};

  std::uint64_t total_ns = 0;
  std::thread peer([&] {
    if (opt.pin && !shm::pin_self_to_core(core_b)) pinned_ok = false;
    for (int i = 0; i < kRounds; ++i) {
      int spins = 0;
      while (ping.load(std::memory_order_acquire) !=
             static_cast<std::uint32_t>(2 * i + 1))
        if (++spins > 4096) std::this_thread::yield();  // Oversubscribed.
      ping.store(static_cast<std::uint32_t>(2 * i + 2),
                 std::memory_order_release);
    }
  });
  {
    if (opt.pin && !shm::pin_self_to_core(core_a)) pinned_ok = false;
    Timer t;
    for (int i = 0; i < kRounds; ++i) {
      ping.store(static_cast<std::uint32_t>(2 * i + 1),
                 std::memory_order_release);
      int spins = 0;
      while (ping.load(std::memory_order_acquire) !=
             static_cast<std::uint32_t>(2 * i + 2))
        if (++spins > 4096) std::this_thread::yield();
    }
    total_ns = t.elapsed_ns();
  }
  peer.join();
  if (opt.pin && !pinned_ok) return std::nullopt;
  return static_cast<double>(total_ns) / (2.0 * kRounds);
}

std::optional<std::size_t> measure_activation_crossover(
    double handshake_ns, const CalibrationOptions& opt) {
  std::vector<std::byte> src(opt.max_size, std::byte{0x33});
  std::vector<std::byte> bounce(32 * KiB);
  std::vector<std::byte> dst(opt.max_size);

  // Copy-through cost at a given chunk granularity: the in-and-out-of-
  // shared-memory motion both paths share, but the eager path pays it at
  // cell granularity (2 KiB, both copies serialized) while the rendezvous
  // ring pipelines 32 KiB buffers (the second copy overlaps the first, so
  // it costs roughly one pass).
  auto copy_through = [&](std::size_t s, std::size_t chunk, int passes) {
    for (int pass = 0; pass < passes; ++pass)
      for (std::size_t off = 0; off < s; off += chunk) {
        std::size_t n = std::min(chunk, s - off);
        std::memcpy(bounce.data(), src.data() + off, n);
        std::memcpy(dst.data() + off, bounce.data(), n);
      }
  };
  auto eager_cost = [&](std::size_t s) {
    return median_ns(opt.repeats, [&] { copy_through(s, 2 * KiB, 1); });
  };
  auto rndv_cost = [&](std::size_t s) {
    // RTS + CTS = two one-way notifications, then the pipelined ring pass.
    return 2.0 * handshake_ns +
           median_ns(opt.repeats, [&] { copy_through(s, 32 * KiB, 1); });
  };
  return find_crossover(eager_cost, rndv_cost, 256,
                        std::min<std::size_t>(opt.max_size, 1 * MiB));
}

std::optional<simd::Choice> measure_simd_kernel(
    const CalibrationOptions& opt) {
  std::vector<simd::Kernel> kernels;
  for (simd::Kernel k : {simd::Kernel::kScalar, simd::Kernel::kAvx2,
                         simd::Kernel::kAvx512})
    if (simd::kernel_supported(k)) kernels.push_back(k);
  if (kernels.empty()) return std::nullopt;

  // One fold pass at a reduction-typical operand size: big enough that the
  // per-call dispatch overhead vanishes, small enough to stay cache-resident
  // so the race measures the fold, not memory bandwidth.
  constexpr std::size_t kFoldBytes = 256 * KiB;
  constexpr int kPasses = 4;
  auto time_kernel = [&](simd::Kernel k, auto tag) {
    using T = decltype(tag);
    std::size_t n = kFoldBytes / sizeof(T);
    std::vector<T> dst(n, T{1}), src(n, T{1});
    return median_ns(opt.repeats, [&] {
      for (int p = 0; p < kPasses; ++p)
        simd::fold(k, simd::Op::kSum, dst.data(), src.data(), n);
    });
  };

  simd::Kernel best = kernels.front();
  double best_ns = std::numeric_limits<double>::infinity();
  for (simd::Kernel k : kernels) {
    double ns = time_kernel(k, double{}) + time_kernel(k, float{}) +
                time_kernel(k, std::int32_t{});
    if (opt.verbose)
      std::printf("  [simd] %s fold: %.0fns\n", simd::kernel_name(k), ns);
    if (ns < best_ns) {
      best_ns = ns;
      best = k;
    }
  }
  switch (best) {
    case simd::Kernel::kAvx512: return simd::Choice::kAvx512;
    case simd::Kernel::kAvx2: return simd::Choice::kAvx2;
    case simd::Kernel::kScalar: break;
  }
  return simd::Choice::kScalar;
}

TuningTable calibrate(const Topology& topo, const CalibrationOptions& opt) {
  TuningTable t = formula_defaults(topo);
  t.source = "calibrated";
  // Probes pin this thread per placement; put the mask back afterwards so
  // the caller (and its available_cores() queries) are not left on 1 core.
  shm::AffinitySnapshot saved = shm::save_affinity();

  for (int i = 0; i < TuningTable::kPlacements; ++i) {
    auto p = static_cast<PairPlacement>(i);
    auto pair = topo.find_pair(p);
    if (!pair) continue;  // This machine has no such pair: keep the formula.
    PlacementTuning& pt = t.place[static_cast<std::size_t>(i)];

    // Working set to protect = the receiving core's share of its LLC.
    const CacheDomain& llc = topo.largest_cache(pair->second);
    std::size_t share =
        llc.size_bytes / std::max<std::size_t>(1, llc.cores.size());

    // The NT probe runs on the receiving core of this placement's pair (it
    // models the receiver's copy #2 polluting that core's cache share).
    if (opt.pin) shm::pin_self_to_core(pair->second);
    if (auto nt = measure_nt_crossover(share, opt)) {
      pt.nt_min = *nt;
      if (opt.verbose)
        std::printf("  [%s] nt_min: %s (measured)\n", to_string(p),
                    format_size(*nt).c_str());
    } else if (opt.verbose) {
      std::printf("  [%s] nt_min: %s (formula; NT never won)\n", to_string(p),
                  format_size(pt.nt_min).c_str());
    }

    double handshake = 300.0;  // Fallback when the pair cannot be timed.
    if (auto ns = measure_pair_latency_ns(pair->first, pair->second, opt))
      handshake = *ns;
    if (auto act = measure_activation_crossover(handshake, opt)) {
      pt.lmt_activation = *act;
      if (opt.verbose)
        std::printf("  [%s] lmt_activation: %s (handshake %.0fns)\n",
                    to_string(p), format_size(*act).c_str(), handshake);
    }
  }

  // Collective activation tracks the paper's 2x-lower-than-pingpong rule
  // against the measured pingpong activation.
  std::size_t min_act = SIZE_MAX;
  for (const auto& pt : t.place) min_act = std::min(min_act, pt.lmt_activation);
  if (min_act != SIZE_MAX && min_act >= 2 * KiB)
    t.collective_activation = min_act / 2;

  // Fastbox cutoff: every eager message below activation benefits from the
  // queue bypass, up to the 16 KiB cell bound. Size slots to the cutoff.
  std::size_t cutoff = std::clamp<std::size_t>(min_act, 2 * KiB, 16 * KiB);
  t.fastbox_slot_bytes =
      static_cast<std::uint32_t>(round_up(cutoff, 1 * KiB));
  t.fastbox_max = t.fastbox_slot_bytes - 64;
  shm::restore_affinity(saved);

  // The shm-vs-pt2pt collective crossover (bcast worlds, NEMO_COLL forced
  // each way). A host that cannot run ranks in parallel keeps the formula.
  if (opt.coll) {
    if (auto ca = measure_coll_crossover(topo, t, opt)) {
      t.coll_activation = *ca;
      if (opt.verbose)
        std::printf("  coll_activation: %s (measured)\n",
                    format_size(*ca).c_str());
    } else if (opt.verbose) {
      std::printf("  coll_activation: %s (formula; probe unavailable)\n",
                  format_size(t.coll_activation).c_str());
    }
  }

  // Fold-kernel race: every reduction on this host folds through the
  // recorded winner (a concrete choice, so a cached table replays the
  // selection without re-probing CPUID).
  if (opt.simd) {
    if (auto k = measure_simd_kernel(opt)) {
      t.simd_kernel = *k;
      if (opt.verbose)
        std::printf("  simd_kernel: %s (measured)\n", simd::choice_name(*k));
    }
  }

  // Close the telemetry loop: the crossover probes above are pairwise; the
  // feedback pass stresses every pair at once and reacts to the congestion
  // counters (ring stalls, drain exhaustion, fastbox fallbacks).
  auto feedback = process_env("NEMO_FEEDBACK");
  if (opt.feedback && (!feedback || parse_flag("NEMO_FEEDBACK", *feedback))) {
    FeedbackOptions fopt;
    fopt.verbose = opt.verbose;
    t = calibrate_feedback(topo, std::move(t), fopt);
  }
  return t;
}

}  // namespace nemo::tune
