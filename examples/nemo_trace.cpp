// nemo-trace: record, export and inspect nemo trace dumps.
//
//   nemo-trace record [--mode=full|rings] [--out=trace.json] [--raw=FILE]
//       -- ./build/coll_sweep --smoke
//     Runs the wrapped command with NEMO_TRACE/NEMO_TRACE_OUT set, then
//     converts the ring dump to Chrome/Perfetto trace_event JSON (open the
//     --out file at ui.perfetto.dev or chrome://tracing).
//
//   nemo-trace export --in=raw.json --out=trace.json
//     Converts an existing nemo-trace/2 ring dump.
//
//   nemo-trace stat --in=raw.json
//     Prints the latency-histogram table, per-rank event counts and drops.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/perfetto.hpp"
#include "trace/trace.hpp"
#include "tune/json.hpp"

using namespace nemo;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nemo-trace record [--mode=full|rings] [--out=FILE] "
               "[--raw=FILE] -- CMD [ARGS...]\n"
               "       nemo-trace export --in=RAW --out=FILE\n"
               "       nemo-trace stat --in=RAW\n");
  return 2;
}

/// Minimal --key=value scanner for the flags before `--` (the wrapped
/// command after `--` must pass through untouched, which rules out the
/// strict Options parser).
std::map<std::string, std::string> parse_flags(
    const std::vector<std::string>& args) {
  std::map<std::string, std::string> flags;
  for (const std::string& a : args) {
    if (a.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected argument: " + a);
    auto eq = a.find('=');
    std::string key = eq == std::string::npos ? a.substr(2)
                                              : a.substr(2, eq - 2);
    std::string val = eq == std::string::npos ? std::string("1")
                                              : a.substr(eq + 1);
    flags.insert_or_assign(std::move(key), std::move(val));
  }
  return flags;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  return out + "'";
}

int cmd_record(const std::map<std::string, std::string>& flags,
               const std::vector<std::string>& child) {
  if (child.empty()) {
    std::fprintf(stderr, "nemo-trace record: no command after --\n");
    return 2;
  }
  std::string mode = flags.count("mode") ? flags.at("mode") : "full";
  if (trace::mode_from_string(mode) == trace::Mode::kOff) {
    std::fprintf(stderr, "nemo-trace record: --mode must be rings or full\n");
    return 2;
  }
  std::string out = flags.count("out") ? flags.at("out") : "trace.json";
  std::string raw = flags.count("raw") ? flags.at("raw") : out + ".raw.json";

  setenv("NEMO_TRACE", mode.c_str(), 1);
  setenv("NEMO_TRACE_OUT", raw.c_str(), 1);

  std::string cmdline;
  for (const std::string& a : child) {
    if (!cmdline.empty()) cmdline += ' ';
    cmdline += shell_quote(a);
  }
  std::printf("nemo-trace: recording [%s] %s\n", mode.c_str(),
              cmdline.c_str());
  int rc = std::system(cmdline.c_str());
  if (rc != 0) {
    std::fprintf(stderr, "nemo-trace: command exited with status %d\n", rc);
    return rc == -1 ? 1 : rc;
  }

  std::string err;
  if (!trace::export_perfetto(raw, out, &err)) {
    std::fprintf(stderr, "nemo-trace: export failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("nemo-trace: wrote %s (raw dump: %s)\n", out.c_str(),
              raw.c_str());
  return 0;
}

int cmd_export(const std::map<std::string, std::string>& flags) {
  if (!flags.count("in") || !flags.count("out")) return usage();
  std::string err;
  if (!trace::export_perfetto(flags.at("in"), flags.at("out"), &err)) {
    std::fprintf(stderr, "nemo-trace: export failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("nemo-trace: wrote %s\n", flags.at("out").c_str());
  return 0;
}

int cmd_stat(const std::map<std::string, std::string>& flags) {
  if (!flags.count("in")) return usage();
  std::string err;
  auto dump = trace::load_dump(flags.at("in"), &err);
  if (!dump) {
    std::fprintf(stderr, "nemo-trace: %s\n", err.c_str());
    return 1;
  }

  std::printf("trace dump %s (mode %s)\n", flags.at("in").c_str(),
              (*dump)["mode"].as_string().c_str());
  std::uint64_t total_events = 0, total_drops = 0;
  for (const tune::Json& r : (*dump)["ranks"].items()) {
    std::uint64_t n = r["events"].items().size();
    std::uint64_t d = r["dropped"].as_uint();
    total_events += n;
    total_drops += d;
    std::printf("  rank %3d: %8" PRIu64 " events, %" PRIu64 " dropped\n",
                static_cast<int>(r["rank"].as_double()), n, d);
  }
  std::printf("  total:    %8" PRIu64 " events, %" PRIu64 " dropped\n\n",
              total_events, total_drops);

  const tune::Json& hists = (*dump)["registry"]["histograms"];
  std::printf("%-32s %10s %10s %10s %10s %10s\n", "histogram", "count",
              "p50", "p99", "p999", "max");
  for (const auto& [name, h] : hists.fields())
    std::printf("%-32s %10" PRIu64 " %10.0f %10.0f %10.0f %10" PRIu64 "\n",
                name.c_str(), h["count"].as_uint(), h["p50"].as_double(),
                h["p99"].as_double(), h["p999"].as_double(),
                h["max"].as_uint());
  const tune::Json& gauges = (*dump)["registry"]["gauges"];
  for (const auto& [name, v] : gauges.fields())
    std::printf("%-32s gauge %.3f\n", name.c_str(), v.as_double());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string sub = argv[1];

  std::vector<std::string> flags_raw, child;
  bool after_dashes = false;
  for (int i = 2; i < argc; ++i) {
    if (!after_dashes && std::strcmp(argv[i], "--") == 0) {
      after_dashes = true;
      continue;
    }
    (after_dashes ? child : flags_raw).emplace_back(argv[i]);
  }

  try {
    auto flags = parse_flags(flags_raw);
    if (sub == "record") return cmd_record(flags, child);
    if (sub == "export") return cmd_export(flags);
    if (sub == "stat") return cmd_stat(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nemo-trace: %s\n", e.what());
    return 2;
  }
  return usage();
}
