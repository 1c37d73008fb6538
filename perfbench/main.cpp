// nemobench: the repository benchmark.
//
//   nemobench --workload pingpong|fanin|collectives --seed N --seconds S
//             --trace 0|1 [--out DIR] [--meta key=value ...]
//
// Every run measures all three phases (pingpong, fanin, collectives), each
// in its own bound threads-mode world; the named workload is the primary
// phase and gets most of the run's time. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the single-layer probes and a traced copy of each
// phase and reports the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"

extern char** environ;

namespace nemobench {
namespace {

#ifndef NEMOBENCH_BUILD_TYPE
#define NEMOBENCH_BUILD_TYPE "unknown"
#endif

const char* const kEndToEnd[] = {
    "pp_8B_us",          "pp_4KiB_us",           "pp_64KiB_us",
    "pp_4MiB_mibs",      "pp_64MiB_mibs",        "fanin_msgs_per_s",
    "coll_barrier_us",   "coll_allreduce_8B_us", "coll_allreduce_1MiB_us",
    "coll_alltoall_4KiB_us", "coll_alltoall_64KiB_us", "coll_bcast_256KiB_us",
    "setup_s",
};

const char* const kPerLayer[] = {
    "fastbox.handoff_ns", "fastbox.hit_ratio",
    "queue.handoff_ns", "queue.enqueue3_ns",
    "match.post_ns.d1", "match.post_ns.d96", "match.incoming_ns.d1",
    "match.incoming_ns.d96", "match.um_pool_hit_ratio",
    "engine.progress_idle_ns.2r", "engine.progress_idle_ns.4r",
    "engine.passes_per_msg",
    "lmt.handshake_us", "lmt.default_4MiB_mibs", "lmt.default_64MiB_mibs",
    "lmt.vmsplice_4MiB_mibs", "lmt.vmsplice_64MiB_mibs", "lmt.knem_4MiB_mibs",
    "lmt.knem_64MiB_mibs", "lmt.path_share.fastbox", "lmt.path_share.eager",
    "lmt.path_share.knem", "lmt.path_share.default", "lmt.path_share.vmsplice",
    "lmt.copy_efficiency",
    "ring.chunk_handoff_ns.cached", "ring.chunk_handoff_ns.nt",
    "ring.stall_ratio",
    "copy.memcpy_mibs.64KiB", "copy.memcpy_mibs.4MiB", "copy.memcpy_mibs.64MiB",
    "copy.nt_mibs.4MiB", "copy.nt_mibs.64MiB",
    "simd.fold_mibs.best", "simd.fold_mibs.scalar",
    "coll.arena_barrier_ns", "coll.epoch_stalls_per_op",
    "coll.shm_share.barrier", "coll.shm_share.allreduce_8B",
    "coll.shm_share.allreduce_1MiB", "coll.shm_share.alltoall_4KiB",
    "coll.shm_share.alltoall_64KiB", "coll.shm_share.bcast_256KiB",
    "coll.fallbacks",
    "setup.tuning_s", "setup.world_ctor_s", "setup.launch_s",
    "trace.overhead_ratio", "trace.span_floor_ns",
    "ledger.unattributed_frac.8B", "ledger.unattributed_frac.64KiB",
    "ledger.unattributed_frac.4MiB",
    "fail_ratio",
};

enum class Workload { kPingpong, kFanin, kCollectives };
constexpr int kPhases = 3;
const char* const kPhaseNames[kPhases] = {"pingpong", "fanin", "collectives"};

struct Args {
  Workload workload = Workload::kPingpong;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out = ".bench_build/perfbench-out";
  std::vector<std::string> meta;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "nemobench: %s\nusage: nemobench --workload "
               "pingpong|fanin|collectives --seed N --seconds S --trace 0|1 "
               "[--out DIR] [--meta key=value ...]\n",
               why.c_str());
  std::exit(2);
}

/// Ranks in the workload's own world (also the set-up and probe worlds).
int world_ranks(Workload w) {
  switch (w) {
    case Workload::kPingpong: return 2;
    case Workload::kFanin: return kFaninProducers + 1;
    case Workload::kCollectives: break;
  }
  return 4;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    std::string v = argv[++i];
    try {
      if (k == "--workload") {
        int w = -1;
        for (int p = 0; p < kPhases; ++p)
          if (v == kPhaseNames[p]) w = p;
        if (w < 0) usage("unknown workload '" + v + "'");
        a.workload = static_cast<Workload>(w);
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
        if (!(a.seconds > 0 && a.seconds <= 3600)) usage("bad --seconds");
        have_seconds = true;
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
        have_trace = true;
      } else if (k == "--out") {
        a.out = v;
      } else if (k == "--meta") {
        a.meta.push_back(v);
      } else {
        usage("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": '" + v + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

/// Hermeticity: the only NEMO_* variable a run may see is NEMO_TUNE=0
/// (formula tuning, no cache). Anything else would silently retune the
/// program, so the run refuses it rather than measuring something else.
void require_hermetic_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "NEMO_", 5) != 0) continue;
    if (std::strcmp(*e, "NEMO_TUNE=0") == 0) continue;
    std::fprintf(stderr,
                 "nemobench: refusing ambient %s (run through perfbench/run.py, "
                 "which scrubs NEMO_* variables)\n",
                 *e);
    std::exit(2);
  }
  if (std::getenv("NEMO_TUNE") == nullptr) setenv("NEMO_TUNE", "0", 1);
}

std::string join(const std::vector<int>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ',';
    s += std::to_string(v[i]);
  }
  return s;
}

std::vector<std::string> provenance(const Args& a) {
  const Host& h = host();
  std::vector<std::string> p = {
      "workload=" + std::string(kPhaseNames[static_cast<int>(a.workload)]),
      "seed=" + std::to_string(a.seed),
      "seconds=" + std::to_string(a.seconds),
      "trace=" + std::string(a.trace ? "1" : "0"),
      "host.nproc=" + std::to_string(h.cpus.size()),
      "host.cpus=" + join(h.cpus),
      "host.cpu_model=" + h.cpu_model,
      "host.l2_bytes=" + std::to_string(h.l2_bytes),
      "host.llc_bytes=" + std::to_string(h.llc_bytes),
      "build.type=" NEMOBENCH_BUILD_TYPE,
      "binding.2r=" + join(binding(2)),
      "binding.4r=" + join(binding(4)),
      "ranks_exceed_cores=" +
          std::string(4 > static_cast<int>(h.cpus.size()) ? "yes" : "no"),
      "primary_world_ranks=" + std::to_string(world_ranks(a.workload)),
      "env.NEMO_TUNE=0",
  };
  for (const std::string& m : a.meta) p.push_back(m);
  return p;
}

// --- derived metrics ------------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

const std::vector<double>& samples(const PhaseResult& r, const std::string& k) {
  static const std::vector<double> kNone;
  auto it = r.samples_ns.find(k);
  return it == r.samples_ns.end() ? kNone : it->second;
}

std::string size_key(std::size_t bytes) { return std::to_string(bytes); }

/// The twelve workload metrics from the three phases.
void phase_metrics(const PhaseResult& pp, const PhaseResult& fi,
                   const PhaseResult& co, Metrics& m) {
  m["pp_8B_us"] = time_metric(samples(pp, size_key(8)), 1e-3, "us");
  m["pp_4KiB_us"] = time_metric(samples(pp, size_key(4 * kKiB)), 1e-3, "us");
  m["pp_64KiB_us"] = time_metric(samples(pp, size_key(64 * kKiB)), 1e-3, "us");
  m["pp_4MiB_mibs"] = rate_metric(samples(pp, size_key(4 * kMiB)), 4 * kMiB);
  m["pp_64MiB_mibs"] = rate_metric(samples(pp, size_key(64 * kMiB)), 64 * kMiB);
  Summary w = summarize(samples(fi, "window"));
  double msgs = kFaninProducers * kFaninWindow;
  m["fanin_msgs_per_s"] = {"1/s", msgs / (w.median * 1e-9), w.n,
                           msgs / (w.p99 * 1e-9)};
  for (int i = 0; i < kCollOps; ++i) {
    std::string op = coll_op_name(static_cast<CollOp>(i));
    m["coll_" + op + "_us"] = time_metric(samples(co, op), 1e-3, "us");
  }
}

/// Geometric mean over the phase's sample sets of traced / untraced median
/// time: what recording spans costs the workload.
double trace_overhead(const PhaseResult& untraced, const PhaseResult& traced) {
  double log_sum = 0;
  int n = 0;
  for (const auto& [k, v] : untraced.samples_ns) {
    double a = median(v), b = median(samples(traced, k));
    if (a > 0 && b > 0) {
      log_sum += std::log(b / a);
      ++n;
    }
  }
  return n ? std::exp(log_sum / n) : std::nan("");
}

/// Copies the payload makes on a path (tune::Counters::path_hist index):
/// the two-copy paths stage through shared memory, the others copy once.
int copies_on_path(int path) {
  using nemo::lmt::LmtKind;
  if (path == static_cast<int>(LmtKind::kDefaultShm) ||
      path == static_cast<int>(LmtKind::kVmspliceWritev) ||
      path == nemo::tune::Counters::kPathEager)
    return 2;
  return 1;
}

/// Layer ledger: the per-layer medians along a pingpong message's path,
/// against its end-to-end one-way time.
void ledger(const PhaseResult& pp, Metrics& m) {
  auto v = [&](const char* name) { return m.count(name) ? m[name].value : std::nan(""); };
  auto path_of = [&](std::size_t s) {
    auto it = pp.path_by_size.find(s);
    return it == pp.path_by_size.end() ? -1 : it->second;
  };
  struct Row {
    const char* name;
    std::size_t bytes;
    double sum_ns;
    std::string parts;
  };
  std::vector<Row> rows;
  rows.push_back({"8B", 8,
                  v("fastbox.handoff_ns") + v("match.post_ns.d1") +
                      v("match.incoming_ns.d1") + v("engine.progress_idle_ns.2r"),
                  "fastbox.handoff + match.post(d1) + match.incoming(d1) + "
                  "engine.progress_idle(2r)"});
  for (std::size_t s : {64 * kKiB, 4 * kMiB}) {
    const char* copy_metric = s == 64 * kKiB ? "copy.memcpy_mibs.64KiB"
                                             : "copy.memcpy_mibs.4MiB";
    int copies = copies_on_path(path_of(s));
    double copy_ns = copies * (static_cast<double>(s) / kMiB) /
                     v(copy_metric) * 1e9;
    rows.push_back({s == 64 * kKiB ? "64KiB" : "4MiB", s,
                    v("lmt.handshake_us") * 1e3 + copy_ns,
                    "lmt.handshake + " + std::to_string(copies) + " x " +
                        copy_metric});
  }
  std::printf("\n# layer ledger (pingpong one-way, ns)\n");
  for (const Row& r : rows) {
    double e2e = median(samples(pp, size_key(r.bytes)));
    double frac = (e2e - r.sum_ns) / e2e;
    m[std::string("ledger.unattributed_frac.") + r.name] = {"ratio", frac};
    std::printf("%-6s e2e %.1f  layers %.1f  unattributed %.3f  (path %d: %s)\n",
                r.name, e2e, r.sum_ns, frac, path_of(r.bytes), r.parts.c_str());
  }
}

/// Counter-derived per-layer ratios of the primary workload's phase, plus
/// the collective path shares from the collectives phase.
void tally_metrics(const PhaseResult& primary, const PhaseResult& co,
                   Metrics& m) {
  const Tally& t = primary.tally;
  m["fastbox.hit_ratio"] = {"ratio", ratio(static_cast<double>(t.fastbox_hits),
                                           static_cast<double>(t.fastbox_hits +
                                                               t.fastbox_fallbacks))};
  m["match.um_pool_hit_ratio"] = {
      "ratio", ratio(static_cast<double>(t.um_pool_hits),
                     static_cast<double>(t.um_pool_hits + t.um_pool_misses))};
  m["engine.passes_per_msg"] = {
      "ratio", ratio(static_cast<double>(t.progress_passes),
                     static_cast<double>(t.msgs_delivered))};
  double sends = 0;
  for (std::uint64_t n : t.path) sends += static_cast<double>(n);
  using nemo::lmt::LmtKind;
  auto share = [&](int path) {
    return Metric{"ratio", ratio(static_cast<double>(t.path[static_cast<std::size_t>(path)]), sends)};
  };
  m["lmt.path_share.fastbox"] = share(nemo::tune::Counters::kPathFastbox);
  m["lmt.path_share.eager"] = share(nemo::tune::Counters::kPathEager);
  m["lmt.path_share.knem"] = share(static_cast<int>(LmtKind::kKnem));
  m["lmt.path_share.default"] = share(static_cast<int>(LmtKind::kDefaultShm));
  m["lmt.path_share.vmsplice"] = share(static_cast<int>(LmtKind::kVmsplice));
  m["coll.epoch_stalls_per_op"] = {
      "ratio", ratio(static_cast<double>(t.coll_epoch_stalls),
                     static_cast<double>(t.coll_shm_ops))};
  m["coll.fallbacks"] = {"count", static_cast<double>(t.coll_fallbacks)};
  for (int i = 0; i < kCollOps; ++i) {
    const auto& p = co.coll_path[static_cast<std::size_t>(i)];
    m[std::string("coll.shm_share.") + coll_op_name(static_cast<CollOp>(i))] = {
        "ratio", ratio(static_cast<double>(p[0]), static_cast<double>(p[0] + p[1]))};
  }
}

/// Self time per span name and per layer (the first two name components).
void print_self_times(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SelfTime> by_name = self_times(logs);
  std::map<std::string, SelfTime> by_layer;
  for (const auto& [name, s] : by_name) {
    std::size_t dot = name.find('.', name.find('.') + 1);
    SelfTime& l = by_layer[name.substr(0, dot)];
    l.calls += s.calls;
    l.total_ns += s.total_ns;
    l.self_ns += s.self_ns;
  }
  std::printf("\n# self time by layer (traced phases and probes)\n");
  std::printf("%-16s %12s %12s %12s\n", "layer", "calls", "total_ms", "self_ms");
  for (const auto& [layer, s] : by_layer)
    std::printf("%-16s %12llu %12.3f %12.3f\n", layer.c_str(),
                static_cast<unsigned long long>(s.calls), s.total_ns * 1e-6,
                s.self_ns * 1e-6);
  std::uint64_t dropped = 0;
  for (const SpanLog* l : logs) dropped += l->dropped();
  std::printf("spans dropped at the per-thread cap: %llu\n",
              static_cast<unsigned long long>(dropped));
  std::printf("\n# self time by span\n");
  for (const auto& [name, s] : by_name)
    std::printf("%-44s %10llu calls  self %10.3f ms  mean %9.1f ns\n",
                name.c_str(), static_cast<unsigned long long>(s.calls),
                s.self_ns * 1e-6, s.total_ns / static_cast<double>(s.calls));
}

/// A run is cut into slices of about kSliceSeconds, each one phase in a
/// fresh world. The primary phase takes half the slices, the others a
/// quarter each, interleaved evenly: every phase samples the whole run and
/// many world instances, so neither a drifting host nor one world's luck
/// decides a metric.
constexpr double kSliceSeconds = 1.0;

std::vector<int> slice_plan(int primary, int n) {
  std::array<double, kPhases> taken{};
  std::vector<int> plan;
  for (int i = 0; i < n; ++i) {
    int best = 0;
    double best_deficit = -1e9;
    for (int p = 0; p < kPhases; ++p) {
      double share = p == primary ? 0.5 : 0.25;
      double deficit = share * (i + 1) - taken[static_cast<std::size_t>(p)];
      if (deficit > best_deficit + 1e-9) {
        best = p;
        best_deficit = deficit;
      }
    }
    taken[static_cast<std::size_t>(best)] += 1;
    plan.push_back(best);
  }
  return plan;
}

// --- output ------------------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

int run(const Args& a) {
  require_hermetic_env();
  std::vector<std::string> prov = provenance(a);
  std::printf("# provenance\n");
  for (const std::string& p : prov) std::printf("%s\n", p.c_str());
  if (static_cast<int>(host().cpus.size()) < 4)
    std::printf("NOTE: 4-rank worlds oversubscribe this host's %zu CPU(s)\n",
                host().cpus.size());
  std::fflush(stdout);

  int primary = static_cast<int>(a.workload);
  int primary_ranks = world_ranks(a.workload);
  Metrics m;
  Outcome total;
  auto run_phase = [&](int p, std::uint64_t seed, double secs, bool traced) {
    switch (p) {
      case 0: return run_pingpong(seed, secs, traced);
      case 1: return run_fanin(seed, secs, traced);
      default: return run_collectives(seed, secs, traced);
    }
  };
  std::vector<const SpanLog*> logs;
  std::vector<PhaseResult> traced_phases;
  ProbeResult probes;

  if (!a.trace) {
    // Set-up: 91 bring-ups of the primary world, spread over the slices
    // (a single bring-up varies by tens of percent on a shared host).
    constexpr int kBringups = 91;
    int n = std::max(4, static_cast<int>(std::lround(a.seconds / kSliceSeconds)));
    std::vector<int> plan = slice_plan(primary, n);
    std::vector<PhaseResult> ph(kPhases);
    std::vector<double> setup;
    for (int i = 0; i < n; ++i) {
      int want = static_cast<int>(std::lround(kBringups * (i + 1.0) / n));
      std::vector<double> b = bringup_seconds(primary_ranks, want - static_cast<int>(setup.size()));
      setup.insert(setup.end(), b.begin(), b.end());
      int p = plan[static_cast<std::size_t>(i)];
      // Each slice draws its own inputs from (seed, slice).
      merge(ph[static_cast<std::size_t>(p)],
            run_phase(p, key(a.seed, static_cast<std::uint64_t>(i)), a.seconds / n,
                      false));
    }
    for (const PhaseResult& r : ph) total.add(r.outcome);
    m["setup_s"] = time_metric(setup, 1, "s");
    phase_metrics(ph[0], ph[1], ph[2], m);
  } else {
    probes = run_layer_probes(a.seed, a.seconds * 0.4, primary_ranks);
    total.add(probes.outcome);
    m.insert(probes.metrics.begin(), probes.metrics.end());
    // Each phase untraced and traced, alternating in two slices each, so
    // the overhead ratio compares neighbouring moments.
    std::vector<PhaseResult> plain(kPhases);
    traced_phases.resize(kPhases);
    for (int p = 0; p < kPhases; ++p) {
      double secs = a.seconds * (p == primary ? 0.06 : 0.03);
      for (int rep = 0; rep < 2; ++rep) {
        std::uint64_t seed = key(a.seed, static_cast<std::uint64_t>(2 * p + rep));
        merge(plain[static_cast<std::size_t>(p)], run_phase(p, seed, secs, false));
        merge(traced_phases[static_cast<std::size_t>(p)],
              run_phase(p, seed, secs, true));
      }
      total.add(plain[static_cast<std::size_t>(p)].outcome);
      total.add(traced_phases[static_cast<std::size_t>(p)].outcome);
    }
    // The workload's own numbers from this run, for the ratios below.
    Metrics e2e;
    phase_metrics(plain[0], plain[1], plain[2], e2e);
    m["trace.overhead_ratio"] = {
        "ratio", trace_overhead(plain[static_cast<std::size_t>(primary)],
                                traced_phases[static_cast<std::size_t>(primary)])};
    m["lmt.copy_efficiency"] = {
        "ratio", e2e["pp_4MiB_mibs"].value / m["copy.memcpy_mibs.4MiB"].value};
    tally_metrics(plain[static_cast<std::size_t>(primary)], plain[2], m);
    ledger(plain[0], m);
    for (const auto& r : traced_phases)
      for (const auto& l : r.spans) logs.push_back(l.get());
    for (const auto& l : probes.logs) logs.push_back(l.get());
    print_self_times(logs);
    m["fail_ratio"] = {"ratio", ratio(static_cast<double>(total.failed),
                                      static_cast<double>(total.attempted))};
  }

  // Every metric by name and unit; timings with their p99 and samples.
  std::printf("\n# metrics\n");
  for (const auto& [name, x] : m) {
    if (x.n > 0)
      std::printf("%-32s %16.6g %-6s median of %zu, p99 %.6g\n", name.c_str(),
                  x.value, x.unit.c_str(), x.n, x.p99);
    else
      std::printf("%-32s %16.6g %s\n", name.c_str(), x.value, x.unit.c_str());
  }
  for (const std::string& e : total.errors) std::printf("FAILED: %s\n", e.c_str());

  std::filesystem::create_directories(a.out);
  std::string stem = a.out + "/" + kPhaseNames[primary] + "-seed" +
                     std::to_string(a.seed) + "-trace" + (a.trace ? "1" : "0");
  if (a.trace && !write_spans_csv(stem + "-spans.csv", logs))
    std::printf("NOTE: could not write %s-spans.csv\n", stem.c_str());

  // The result: the contract line to stdout, and the same metrics with
  // their sample counts and p99 plus the provenance to a file.
  bool correct = total.failed == 0;
  std::string metrics, detail;
  const auto& names =
      a.trace ? std::vector<const char*>(std::begin(kPerLayer), std::end(kPerLayer))
              : std::vector<const char*>(std::begin(kEndToEnd), std::end(kEndToEnd));
  for (const char* name : names) {
    auto it = m.find(name);
    if (it == m.end() || !std::isfinite(it->second.value)) {
      std::printf("FAILED: metric %s was not measured\n", name);
      correct = false;
      continue;
    }
    const Metric& x = it->second;
    std::string sep = metrics.empty() ? "" : ", ";
    std::string head = json_str(name) + ": {\"value\": " + num(x.value) +
                       ", \"unit\": " + json_str(x.unit);
    metrics += sep + head + "}";
    detail += sep + head + ", \"n\": " + std::to_string(x.n) +
              (std::isfinite(x.p99) ? ", \"p99\": " + num(x.p99) : "") + "}";
  }
  std::string counts = "\"attempted\": " + std::to_string(total.attempted) +
                       ", \"failed\": " + std::to_string(total.failed);
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", " + counts + ", \"metrics\": {" + metrics + "}}";
  std::string record = "{\"provenance\": {";
  for (std::size_t i = 0; i < prov.size(); ++i) {
    std::size_t eq = prov[i].find('=');
    record += (i ? ", " : "") + json_str(prov[i].substr(0, eq)) + ": " +
              json_str(prov[i].substr(eq + 1));
  }
  record += "}, " + counts + ", \"metrics\": {" + detail + "}}\n";
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fputs(record.c_str(), f);
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace nemobench

int main(int argc, char** argv) {
  return nemobench::run(nemobench::parse(argc, argv));
}
