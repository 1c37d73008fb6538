// Fork-based rank launcher: the process-mode analogue of an MPI launcher.
// Children are forked from the caller (inheriting the shared arena mapping
// and the pipe matrix), run the rank function, and _exit with its result.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <functional>
#include <vector>

namespace nemo::shm {

struct ProcessResult {
  bool all_ok = false;
  std::vector<int> exit_codes;  ///< Per rank; 256+sig for signal deaths.
  /// Per rank: an exception escaped fn (reported out-of-band through a
  /// pipe, so a rank that *returns* 121 is not mistaken for one that threw —
  /// the exit-code byte is too narrow to carry both channels).
  std::vector<bool> uncaught;
};

/// Fork `nranks` children, each running fn(rank). The parent only waits.
/// Exceptions escaping fn turn into exit code 121 plus uncaught[rank]=true.
///
/// `on_death` (optional) fires in the parent, in reap order, the moment each
/// child is collected — children are reaped with waitpid(-1) as they die,
/// not in rank order, so a SIGKILLed rank is observed while its siblings
/// still run. The resilience layer uses this to publish an eager death
/// verdict into the shared liveness cells.
using DeathHook = std::function<void(int rank, int exit_code)>;
ProcessResult run_forked_ranks(int nranks, const std::function<int(int)>& fn,
                               const DeathHook& on_death = nullptr);

/// Pin the calling thread to `core` (best effort; returns false on failure —
/// e.g. restricted containers — in which case placement-sensitive numbers
/// lose fidelity but nothing breaks).
bool pin_self_to_core(int core);

/// Number of cores this process may run on.
int available_cores();

}  // namespace nemo::shm
