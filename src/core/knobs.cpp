#include "core/knobs.hpp"

#include <cstdlib>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "common/options.hpp"
#include "core/comm.hpp"

namespace nemo {

namespace {

using core::Config;
using tune::TuningTable;

/// Map `v` through a fixed vocabulary; the error lists every spelling.
template <class E>
E pick(const char* knob, const std::string& v,
       std::initializer_list<std::pair<std::string_view, E>> vocab) {
  std::string want;
  for (const auto& [word, e] : vocab) {
    if (v == word) return e;
    if (!want.empty()) want += '|';
    want += word;
  }
  reject_value(knob, v, want);
}

template <class T>
T known(const char* knob, const std::string& v, std::optional<T> parsed,
        const char* want) {
  if (!parsed) reject_value(knob, v, want);
  return *parsed;
}

std::size_t size(const char* knob, const std::string& v,
                 bool allow_off = false) {
  return parse_size(knob, v, allow_off);
}

/// Size rounded up to a cache line, then checked against [lo, hi].
std::uint32_t line_size(const char* knob, const std::string& v,
                        std::size_t lo, std::size_t hi) {
  std::size_t n = round_up(size(knob, v), kCacheLine);
  if (n < lo || n > hi)
    reject_value(knob, v,
           std::to_string(lo) + ".." + std::to_string(hi) + " bytes");
  return static_cast<std::uint32_t>(n);
}

// One row per knob, alphabetical. Defaults in parentheses depend on the
// host or the formulas; every other default is a value the row accepts.
const Knob kKnobs[] = {
    {"NEMO_CMA", "auto", "auto|on|off",
     "cross-memory attach: off sends pulls it would serve to the copy ring",
     [](const std::string& v, Config& c, TuningTable&) {
       c.cma_enabled = pick<bool>("NEMO_CMA", v,
                                  {{"auto", true},
                                   {"on", true},
                                   {"1", true},
                                   {"true", true},
                                   {"off", false},
                                   {"0", false},
                                   {"false", false}});
     }},
    {"NEMO_COLL", "auto", "auto|shm|p2p",
     "collective family: arena from the launch mode's crossover, or force one",
     [](const std::string& v, Config& c, TuningTable&) {
       c.coll = known("NEMO_COLL", v, coll::mode_from_string(v),
                      "auto|shm|p2p");
     }},
    {"NEMO_FASTBOX_SLOTS", "(formula)", "<slots 1..64>",
     "fastbox ring capacity in activation-sized records (the record size "
     "follows NEMO_LMT_ACTIVATION)",
     [](const std::string& v, Config&, TuningTable& t) {
       t.fastbox_slots = static_cast<std::uint32_t>(
           parse_int("NEMO_FASTBOX_SLOTS", v, 1, tune::kFastboxSlotsMax));
     }},
    {"NEMO_FAULT", "(unset)", "<rank>:<site>:kill",
     "fault injection: SIGKILL that rank at the named crash site",
     [](const std::string& v, Config& c, TuningTable&) {
       (void)resil::parse_fault_spec(v);
       c.fault = v;
     }},
    {"NEMO_LMT", "auto", "auto|shm|vmsplice|writev|knem",
     "force one rendezvous backend for every message",
     [](const std::string& v, Config& c, TuningTable&) {
       using lmt::LmtKind;
       c.lmt = pick<LmtKind>("NEMO_LMT", v,
                             {{"auto", LmtKind::kAuto},
                              {"shm", LmtKind::kDefaultShm},
                              {"default", LmtKind::kDefaultShm},
                              {"vmsplice", LmtKind::kVmsplice},
                              {"writev", LmtKind::kVmspliceWritev},
                              {"vmsplice-writev", LmtKind::kVmspliceWritev},
                              {"knem", LmtKind::kKnem}});
     }},
    {"NEMO_LMT_ACTIVATION", "(formula)", "<size>",
     "eager/rendezvous switch; also sizes the fastbox slot",
     [](const std::string& v, Config&, TuningTable& t) {
       t.lmt_activation = size("NEMO_LMT_ACTIVATION", v);
     }},
    {"NEMO_NT_MIN", "(formula)", "<size>|off",
     "rendezvous size from which ring copies use non-temporal stores",
     [](const std::string& v, Config&, TuningTable& t) {
       std::size_t nt_min = size("NEMO_NT_MIN", v, /*allow_off=*/true);
       for (auto& pt : t.place) pt.nt_min = nt_min;
     }},
    {"NEMO_NUMA_PLACEMENT", "auto",
     "auto|receiver|sender|interleave|first-touch|off",
     "where per-pair shared regions live; off disables every mbind",
     [](const std::string& v, Config& c, TuningTable&) {
       c.numa_placement =
           known("NEMO_NUMA_PLACEMENT", v, shm::numa_placement_from_string(v),
                 "auto|receiver|sender|interleave|first-touch|off");
     }},
    {"NEMO_ON_PEER_DEATH", "abort", "abort|degrade",
     "after a death verdict: poison the world, or continue on survivors",
     [](const std::string& v, Config& c, TuningTable&) {
       using resil::OnPeerDeath;
       c.on_peer_death = pick<OnPeerDeath>(
           "NEMO_ON_PEER_DEATH", v,
           {{"abort", OnPeerDeath::kAbort}, {"degrade", OnPeerDeath::kDegrade}});
     }},
    {"NEMO_PEER_TIMEOUT_MS", "30000", "<ms >= 1>|off",
     "stale-heartbeat deadline for every bounded wait; off disarms",
     [](const std::string& v, Config& c, TuningTable&) {
       c.peer_timeout_ms =
           v == "off" || v == "never"
               ? resil::kTimeoutOff
               : static_cast<std::size_t>(
                     parse_int("NEMO_PEER_TIMEOUT_MS", v, 1, LONG_MAX));
     }},
    {"NEMO_RING_BUFS", "4", "<buffers 1..1024>",
     "copy-ring depth per ordered pair",
     [](const std::string& v, Config& c, TuningTable&) {
       c.ring_bufs = static_cast<std::uint32_t>(
           parse_int("NEMO_RING_BUFS", v, 1, tune::kRingBufsMax));
     }},
    {"NEMO_RING_BUF_BYTES", "32KiB", "<size 64B..1GiB>",
     "copy-ring buffer size",
     [](const std::string& v, Config& c, TuningTable&) {
       c.ring_buf_bytes = line_size("NEMO_RING_BUF_BYTES", v, kCacheLine,
                                    tune::kRingBufBytesMax);
     }},
    {"NEMO_SIMD", "(formula)", "auto|scalar|avx2|avx512",
     "reduction fold kernel; auto takes the widest the CPU runs",
     [](const std::string& v, Config&, TuningTable& t) {
       t.simd_kernel = simd::choice_from_string(v, "NEMO_SIMD");
     }},
    {"NEMO_TRACE", "off", "off|rings|full",
     "tracing mode the World installs for the process",
     [](const std::string& v, Config& c, TuningTable&) {
       c.trace = trace::mode_from_string(v);
     }},
    {"NEMO_TRACE_OUT", "(unset)", "<path>",
     "write a nemo-trace/2 dump to this path at process exit", nullptr},
    {"NEMO_TRACE_RING_SLOTS", "8192", "<events 2..16777216>",
     "per-rank trace ring capacity, rounded up to a power of two",
     [](const std::string& v, Config& c, TuningTable&) {
       c.trace_ring_slots = static_cast<std::size_t>(
           parse_int("NEMO_TRACE_RING_SLOTS", v, 2, 1L << 24));
     }},
    {"NEMO_WORLD_MODE", "threads", "threads|procs",
     "rank launch: threads, or one forked process per rank",
     [](const std::string& v, Config& c, TuningTable&) {
       using core::LaunchMode;
       c.mode = pick<LaunchMode>("NEMO_WORLD_MODE", v,
                                 {{"threads", LaunchMode::kThreads},
                                  {"procs", LaunchMode::kProcesses},
                                  {"processes", LaunchMode::kProcesses}});
     }},
};

std::optional<std::string> getenv_nonempty(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

}  // namespace

std::span<const Knob> knobs() { return kKnobs; }

const Knob* find_knob(std::string_view name) {
  for (const Knob& k : kKnobs)
    if (name == k.name) return &k;
  return nullptr;
}

std::optional<std::string> process_env(const char* name) {
  NEMO_ASSERT_MSG(std::string_view(name).substr(0, 5) != "NEMO_" ||
                      (find_knob(name) != nullptr &&
                       find_knob(name)->apply == nullptr),
                  "World-scoped knobs resolve through core::resolve_config");
  return getenv_nonempty(name);
}

namespace core {

Config resolve_config(Config cfg) {
  for (const auto& [name, value] : cfg.env) {
    const Knob* k = find_knob(name);
    if (k == nullptr)
      throw std::invalid_argument("Config::env: unknown knob '" + name + "'");
    if (k->apply == nullptr)
      throw std::invalid_argument(
          name + ": process-scoped, set it in the environment instead");
  }
  if (cfg.topo.num_cores <= 0) cfg.topo = detect_host();
  if (!cfg.tuning) cfg.tuning = tune::effective_table(cfg.topo);
  for (const Knob& k : kKnobs) {
    if (k.apply == nullptr) continue;
    auto pin = cfg.env.find(k.name);
    std::optional<std::string> v = pin != cfg.env.end()
                                       ? std::optional(pin->second)
                                       : getenv_nonempty(k.name);
    if (v && !v->empty()) k.apply(*v, cfg, *cfg.tuning);
  }
  // The fastbox slot follows the eager activation, knob included.
  cfg.tuning->fastbox_slot_bytes =
      tune::fastbox_slot_for(cfg.tuning->lmt_activation);
  // The collective crossover follows the launch mode: only a threads
  // world's readers pull heap operands in place.
  if (cfg.tuning->coll_activation == 0)
    cfg.tuning->coll_activation =
        tune::coll_activation_for(cfg.mode == LaunchMode::kThreads);
  return cfg;
}

}  // namespace core

}  // namespace nemo
