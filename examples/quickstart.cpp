// Quickstart: the smallest complete nemolmt program.
//
//   build/examples/quickstart [--ranks=4] [--lmt=knem|default|vmsplice|auto]
//
// Launches N ranks (threads over one shared-memory arena), sends a large
// message rank 0 -> 1 through the selected Large-Message-Transfer backend,
// then runs a collective. Prints which transfer mechanism was used.
#include <nemo/nemo.hpp>

#include <cstdio>
#include <vector>

#include "common/checksum.hpp"  // pattern_fill/check — demo helper, not API.

using namespace nemo;

int main(int argc, char** argv) {
  Options opt(argc, argv);
  opt.declare("ranks", "number of ranks (default 4)");
  opt.declare("lmt", "default|vmsplice|knem|auto (default auto)");
  opt.finalize();

  core::Config cfg;
  cfg.nranks = static_cast<int>(opt.get_int("ranks", 4));
  std::string kind = opt.get("lmt", "auto");
  if (kind == "default")
    cfg.lmt = lmt::LmtKind::kDefaultShm;
  else if (kind == "vmsplice")
    cfg.lmt = lmt::LmtKind::kVmsplice;
  else if (kind == "knem")
    cfg.lmt = lmt::LmtKind::kKnem;
  else if (kind != "auto")
    reject_value("--lmt", kind, "default|vmsplice|knem|auto");
  cfg.knem_mode = lmt::KnemMode::kAuto;  // DMA offload past DMAmin.

  core::run(cfg, [&](core::Comm& comm) {
    // 1. Point-to-point: a 1 MiB message takes the rendezvous/LMT path.
    constexpr std::size_t kN = 1 * MiB;
    std::vector<std::byte> buf(kN);
    if (comm.rank() == 0) {
      pattern_fill(buf, 42);
      comm.send(buf.data(), kN, 1 % comm.size(), /*tag=*/0);
      ConstSegment seg{buf.data(), kN};
      std::printf("rank 0: sent %s via LMT '%s'\n", format_size(kN).c_str(),
                  to_string(comm.engine().resolve_kind(1 % comm.size(),
                                                       {&seg, 1})));
    } else if (comm.rank() == 1) {
      core::RecvInfo info;
      comm.recv(buf.data(), kN, 0, 0, &info);
      bool ok = pattern_check(buf, 42) == kPatternOk;
      std::printf("rank 1: received %zu bytes from %d — %s\n", info.bytes,
                  info.src, ok ? "payload verified" : "CORRUPT");
    }

    // 2. A collective: global sum of each rank's id.
    std::int64_t mine = comm.rank(), sum = 0;
    comm.allreduce_i64(&mine, &sum, 1, core::Comm::ReduceOp::kSum);
    if (comm.rank() == 0)
      std::printf("allreduce: sum of ranks = %lld (expected %d)\n",
                  static_cast<long long>(sum),
                  comm.size() * (comm.size() - 1) / 2);
  });
  return 0;
}
