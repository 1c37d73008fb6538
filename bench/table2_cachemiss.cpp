// Table 2: L2 cache misses for 64 KiB / 4 MiB pingpong and alltoall, and the
// IS-like run — from the deterministic cache simulator configured as the
// paper's E5345 (pingpong pairs on different dies, alltoall/IS on all 8
// cores, as in the paper's setup).
//
// Paper's shape: default incurs the most misses (two copies + bounced copy
// buffer); vmsplice/KNEM cut them; KNEM+I/OAT nearly eliminates
// communication misses (the engine touches no cache). The added
// "default-nt" column is this repo's streaming ring: same protocol as
// default, but both copies use non-temporal stores, so the receiver-side
// misses drop toward the single-copy schemes.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/options.hpp"
#include "counters/papi_lite.hpp"
#include "sim/lmt_models.hpp"

using namespace nemo;

namespace {

struct Row {
  const char* name;
  sim::Strategy s;
};

sim::LmtModels make_models(sim::Strategy s) {
  sim::LmtModels::Options opt;
  if (s == sim::Strategy::kDefaultNt) opt.ring_bufs = 4;
  return sim::LmtModels(sim::e5345_machine(), opt);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  opt.declare("is-keys", "total keys for the IS-like row (default 2^22)");
  opt.declare("json", "write miss counts to this JSON file");
  opt.finalize();
  auto is_keys = static_cast<std::size_t>(
      opt.get_int("is-keys", 1 << 22));

  Row strategies[] = {
      {"default", sim::Strategy::kDefault},
      {"default-nt", sim::Strategy::kDefaultNt},
      {"vmsplice", sim::Strategy::kVmsplice},
      {"knem", sim::Strategy::kKnem},
      {"knem+ioat", sim::Strategy::kKnemDma},
  };
  std::vector<int> cores{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<std::string> json_rows;
  auto record = [&json_rows](const char* workload, const char* strategy,
                             std::uint64_t misses) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"workload\": \"%s\", \"strategy\": \"%s\", "
                  "\"l2_misses\": %llu}",
                  workload, strategy,
                  static_cast<unsigned long long>(misses));
    json_rows.emplace_back(buf);
  };

  std::printf("# Table 2 — L2 cache misses [sim:e5345]\n");
  std::printf("%-22s", "workload");
  for (const auto& st : strategies) std::printf(" %12s", st.name);
  std::printf("\n%-22s", "64KiB pingpong (0,7)");
  for (const auto& st : strategies) {
    sim::LmtModels m = make_models(st.s);
    std::uint64_t v = m.pingpong_l2_misses(st.s, 0, 7, 64 * KiB);
    record("64KiB pingpong", st.name, v);
    std::printf(" %12llu", static_cast<unsigned long long>(v));
  }
  std::printf("\n%-22s", "4MiB pingpong (0,7)");
  for (const auto& st : strategies) {
    sim::LmtModels m = make_models(st.s);
    std::uint64_t v = m.pingpong_l2_misses(st.s, 0, 7, 4 * MiB);
    record("4MiB pingpong", st.name, v);
    std::printf(" %12llu", static_cast<unsigned long long>(v));
  }
  std::printf("\n%-22s", "64KiB alltoall (8)");
  for (const auto& st : strategies) {
    sim::LmtModels m = make_models(st.s);
    std::uint64_t v = m.alltoall_l2_misses(st.s, cores, 64 * KiB, 4);
    record("64KiB alltoall", st.name, v);
    std::printf(" %12llu", static_cast<unsigned long long>(v));
  }
  std::printf("\n%-22s", "4MiB alltoall (8)");
  for (const auto& st : strategies) {
    sim::LmtModels m = make_models(st.s);
    std::uint64_t v = m.alltoall_l2_misses(st.s, cores, 4 * MiB, 1);
    record("4MiB alltoall", st.name, v);
    std::printf(" %12llu", static_cast<unsigned long long>(v));
  }

  std::printf("\n%-22s", "is-like (8 ranks)");
  std::vector<double> is_times;
  for (const auto& st : strategies) {
    sim::LmtModels m = make_models(st.s);
    auto out = m.is_run(st.s, cores, is_keys, 10);
    is_times.push_back(out.seconds);
    record("is-like", st.name, out.l2_misses);
    std::printf(" %12llu", static_cast<unsigned long long>(out.l2_misses));
  }
  std::printf("\n%-22s", "is-like model time(s)");
  for (double t : is_times) std::printf(" %12.4f", t);
  std::printf("\n");

  // Real-PMU row. Detect availability exactly once: containers and
  // locked-down kernels refuse perf_event_open, and a row of zeros would be
  // indistinguishable from "the engine touches no cache". Print one loud
  // SKIPPED row instead, and tag the JSON row so bench_gate classifies it
  // as skip-never-fail.
  counters::HwCounters hw;
  std::printf("\n[real:this-host] hardware LLC counters (perf_event)\n");
  if (!hw.available()) {
    std::printf("%-22s %12s\n", "4MiB pingpong hw", "SKIPPED (no PMU)");
    std::printf("    perf_event_open unavailable in this environment "
                "(expected in containers); Table 2 relies on the "
                "simulator rows above.\n");
    json_rows.emplace_back(
        "{\"workload\": \"4MiB pingpong hw\", \"strategy\": \"hw\", "
        "\"skipped\": \"no PMU\"}");
  } else {
    hw.start();
    double mibs = bench::real_pingpong_mibs(
        bench::cfg_for(lmt::LmtKind::kDefaultShm), 4 * MiB, 5);
    hw.stop();
    std::printf("%-22s %12llu  (refs %llu, %.0f MiB/s)\n",
                "4MiB pingpong hw",
                static_cast<unsigned long long>(hw.cache_misses()),
                static_cast<unsigned long long>(hw.cache_refs()), mibs);
    record("4MiB pingpong hw", "hw", hw.cache_misses());
  }

  if (opt.has("json") &&
      !bench::write_json_rows(opt.get("json", ""), "table2_cachemiss",
                              json_rows))
    return 1;
  return 0;
}
