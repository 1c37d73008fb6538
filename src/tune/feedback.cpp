// The telemetry feedback pass: run a short alltoall world, read the
// tune::Counters aggregate back, and adjust what the pairwise crossover
// probes cannot see — congestion behaviour under many simultaneously-active
// pairs (drain budget, ring depth, fastbox pressure, polling order).
//
// Layering note: this file sits in tune/ but drives core::run to generate
// real traffic, the same way nemo-tune's --bench does. The *decision* step
// (apply_counter_feedback) depends only on tune/ types so it stays
// unit-testable on synthetic counter streams.
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <vector>

#include "core/knobs.hpp"
#include "core/comm.hpp"
#include "trace/trace.hpp"
#include "tune/calibrate.hpp"
#include "tune/counters.hpp"

namespace nemo::tune {

namespace {

/// Every applied adjustment also lands as a kFeedback instant on the
/// process-global trace timeline, so recorded runs show WHY a knob moved
/// next to the traffic that moved it.
void trace_knob(trace::Knob knob, std::uint64_t value) {
  if (trace::on())
    trace::global_tracer().emit(trace::kFeedback, trace::kInstant, knob,
                                value);
}

constexpr std::uint32_t kDrainBudgetCap = 4096;
constexpr std::uint32_t kRingBufsCap = 32;
constexpr std::uint32_t kFastboxSlotsCap = 64;
constexpr std::size_t kCollActivationCap = 1 * MiB;
/// Lowest pack_nt_min the feedback pass may set: below this the streamed
/// stores cost more than the eviction they avoid on any plausible LLC.
constexpr std::size_t kPackNtFloor = 64 * KiB;

}  // namespace

TuningTable apply_counter_feedback(TuningTable t, const Counters& c,
                                   const FeedbackOptions& opt) {
  double passes =
      static_cast<double>(std::max<std::uint64_t>(1, c.progress_passes));
  double stall_rate = static_cast<double>(c.ring_stalls) / passes;
  double drain_rate = static_cast<double>(c.drain_exhausted) / passes;
  std::uint64_t attempts = c.fastbox_hits + c.fastbox_fallbacks;
  double fallback_rate =
      attempts > 0 ? static_cast<double>(c.fastbox_fallbacks) /
                         static_cast<double>(attempts)
                   : 0.0;
  std::uint64_t sends = 0;
  for (int i = 0; i < Counters::kPaths; ++i)
    sends += c.path_hist[static_cast<std::size_t>(i)];
  double fastbox_share =
      sends > 0 ? static_cast<double>(
                      c.path_hist[Counters::kPathFastbox]) /
                      static_cast<double>(sends)
                : 0.0;

  if (opt.verbose)
    std::printf("  feedback: observed stalls=%.2f%%/pass "
                "drain-exhaust=%.2f%%/pass fb-fallback=%.1f%% "
                "fb-share=%.0f%% (%llu passes)\n",
                100.0 * stall_rate, 100.0 * drain_rate,
                100.0 * fallback_rate, 100.0 * fastbox_share,
                static_cast<unsigned long long>(c.progress_passes));
  if (drain_rate > opt.drain_hi) {
    t.drain_budget = std::min(kDrainBudgetCap, t.drain_budget * 2);
    trace_knob(trace::kKnobDrainBudget, t.drain_budget);
    if (opt.verbose)
      std::printf("  feedback: drain_exhausted %.1f%%/pass -> drain_budget %u\n",
                  100.0 * drain_rate, t.drain_budget);
  }
  if (stall_rate > opt.stall_hi) {
    for (auto& pt : t.place) {
      // Double from the depth the probe actually ran with: a row of 0
      // inherited the Config/env value, so materialise that, never less.
      std::uint32_t base =
          std::max(pt.ring_bufs, std::max(1u, opt.inherited_ring_bufs));
      pt.ring_bufs = std::min(kRingBufsCap, base * 2);
    }
    trace_knob(trace::kKnobRingBufs, t.place[0].ring_bufs);
    if (opt.verbose)
      std::printf("  feedback: ring_stalls %.1f%%/pass -> ring_bufs %u\n",
                  100.0 * stall_rate, t.place[0].ring_bufs);
  }
  if (fallback_rate > opt.fallback_hi) {
    t.fastbox_slots = std::min(kFastboxSlotsCap, t.fastbox_slots * 2);
    t.poll_hot = true;
    trace_knob(trace::kKnobFastboxSlots, t.fastbox_slots);
    trace_knob(trace::kKnobPollHot, 1);
    if (opt.verbose)
      std::printf(
          "  feedback: fastbox fallbacks %.1f%% -> %u slots, poll_hot\n",
          100.0 * fallback_rate, t.fastbox_slots);
  }
  if (fastbox_share > opt.fastbox_dominant && !t.poll_hot) {
    t.poll_hot = true;
    trace_knob(trace::kKnobPollHot, 1);
    if (opt.verbose)
      std::printf("  feedback: fastbox carries %.0f%% of sends -> poll_hot\n",
                  100.0 * fastbox_share);
  }
  if (c.coll_shm_ops > 0) {
    double coll_stall = static_cast<double>(c.coll_epoch_stalls) /
                        static_cast<double>(c.coll_shm_ops);
    if (coll_stall > opt.coll_stall_hi) {
      t.coll_activation =
          std::min(kCollActivationCap, t.coll_activation * 2);
      trace_knob(trace::kKnobCollActivation, t.coll_activation);
      if (opt.verbose)
        std::printf(
            "  feedback: %.1f epoch stalls per shm collective -> "
            "coll_activation %zu\n",
            coll_stall, t.coll_activation);
    }
  }
  // Pack-path reaction: datatype packs that average at least half the NT
  // cutoff without ever crossing it rewrite near-LLC-sized blocks through
  // the cache on every strided collective, evicting the working set the
  // cutoff exists to protect. Lower pack_nt_min to the observed average
  // (floored well above the streaming break-even) so they start streaming.
  std::uint64_t pack_ops = c.pack_direct_ops;
  if (pack_ops > 0 && c.pack_nt_ops == 0 && t.pack_nt_min != 0 &&
      t.pack_nt_min != SIZE_MAX) {
    std::size_t avg =
        static_cast<std::size_t>(c.pack_direct_bytes / pack_ops);
    if (avg >= t.pack_nt_min / 2) {
      t.pack_nt_min = std::max<std::size_t>(kPackNtFloor, avg);
      trace_knob(trace::kKnobPackNtMin, t.pack_nt_min);
      if (opt.verbose)
        std::printf("  feedback: packs avg %zu B, none streamed -> "
                    "pack_nt_min %zu\n",
                    avg, t.pack_nt_min);
    }
  }
  return t;
}

std::optional<Counters> run_feedback_probe(const Topology& topo,
                                           const TuningTable& t, int nranks,
                                           const FeedbackOptions& opt) {
  if (nranks < 2) return std::nullopt;
  core::Config cfg;
  cfg.nranks = nranks;
  cfg.mode = core::LaunchMode::kThreads;
  cfg.topo = topo;
  cfg.tuning = t;
  // Pin the rendezvous path to the copy ring: the geometry this pass tunes
  // is a default-backend property (KNEM/vmsplice move bytes without it), and
  // the eager/fastbox/drain behaviour under test is backend-independent.
  cfg.lmt = lmt::LmtKind::kDefaultShm;
  // One rank per core (wrapping on small hosts): the synthetic placement
  // classification sees every pair class the topology exposes even when the
  // physical pinning fails.
  cfg.core_binding.resize(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    cfg.core_binding[static_cast<std::size_t>(r)] = r % topo.num_cores;

  Counters total;
  std::mutex mu;
  try {
    bool ok = core::run(cfg, [&](core::Comm& comm) {
      int n = comm.size(), me = comm.rank();
      std::vector<std::vector<std::byte>> big_out(
          static_cast<std::size_t>(n)),
          big_in(static_cast<std::size_t>(n)),
          small_in(static_cast<std::size_t>(n));
      std::vector<std::byte> small_out(opt.eager_bytes, std::byte{0x42});
      for (int p = 0; p < n; ++p) {
        if (p == me) continue;
        big_out[static_cast<std::size_t>(p)].assign(opt.rndv_bytes,
                                                    std::byte{0x17});
        big_in[static_cast<std::size_t>(p)].resize(opt.rndv_bytes);
        small_in[static_cast<std::size_t>(p)].resize(opt.eager_bytes);
      }
      for (int iter = 0; iter < opt.iters; ++iter) {
        std::vector<core::Request> reqs;
        for (int p = 0; p < n; ++p) {
          if (p == me) continue;
          auto sp = static_cast<std::size_t>(p);
          reqs.push_back(comm.irecv(big_in[sp].data(), opt.rndv_bytes, p, 1));
          reqs.push_back(
              comm.irecv(small_in[sp].data(), opt.eager_bytes, p, 2));
        }
        for (int p = 0; p < n; ++p) {
          if (p == me) continue;
          auto sp = static_cast<std::size_t>(p);
          reqs.push_back(
              comm.isend(big_out[sp].data(), opt.rndv_bytes, p, 1));
          reqs.push_back(comm.isend(small_out.data(), opt.eager_bytes, p, 2));
        }
        comm.waitall(reqs);
      }
      comm.hard_barrier();
      std::lock_guard<std::mutex> lk(mu);
      total += comm.engine().counters();
    });
    if (!ok) return std::nullopt;
  } catch (const std::exception&) {
    return std::nullopt;  // Probe trouble leaves the table unchanged.
  }
  return total;
}

TuningTable calibrate_feedback(const Topology& topo, TuningTable t,
                               const FeedbackOptions& opt_in) {
  FeedbackOptions opt = opt_in;
  // The probe World resolves NEMO_RING_BUFS like any other, so
  // inherit-rows ran at the resolved depth, not the compiled default.
  core::Config probe;
  probe.ring_bufs = opt.inherited_ring_bufs;
  probe.topo = topo;
  probe.tuning = t;
  opt.inherited_ring_bufs = core::resolve_config(std::move(probe)).ring_bufs;
  for (int nranks : opt.rank_counts) {
    if (opt.verbose)
      std::printf("feedback probe: alltoall x%d ranks (%d iters)\n", nranks,
                  opt.iters);
    auto counters = run_feedback_probe(topo, t, nranks, opt);
    if (!counters) {
      if (opt.verbose)
        std::printf("  feedback: %d-rank probe unavailable, skipping\n",
                    nranks);
      continue;
    }
    t = apply_counter_feedback(std::move(t), *counters, opt);
  }
  return t;
}

}  // namespace nemo::tune
