#include "shm/process_runner.hpp"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "common/common.hpp"

namespace nemo::shm {

ProcessResult run_forked_ranks(int nranks, const std::function<int(int)>& fn,
                               const DeathHook& on_death) {
  NEMO_ASSERT(nranks >= 1);
  std::vector<pid_t> pids(static_cast<std::size_t>(nranks), -1);
  // One pipe per child carries the "an exception escaped" flag out-of-band:
  // the 8-bit exit status cannot distinguish fn returning 121 from the
  // catch-all below, and ranks may legitimately return any code.
  std::vector<int> exc_fds(static_cast<std::size_t>(nranks), -1);
  for (int r = 0; r < nranks; ++r) {
    int pfd[2];
    NEMO_SYSCHECK(::pipe(pfd), "pipe");
    pid_t pid = ::fork();
    NEMO_SYSCHECK(pid, "fork");
    if (pid == 0) {
      // Only this child's own exception pipe stays open for writing.
      ::close(pfd[0]);
      for (int fd : exc_fds)
        if (fd >= 0) ::close(fd);
      int code = 120;
      try {
        code = fn(r);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "rank %d: uncaught exception: %s\n", r, e.what());
        code = 121;
        [[maybe_unused]] ssize_t n = ::write(pfd[1], "E", 1);
      } catch (...) {
        std::fprintf(stderr, "rank %d: uncaught exception\n", r);
        code = 121;
        [[maybe_unused]] ssize_t n = ::write(pfd[1], "E", 1);
      }
      std::fflush(nullptr);
      ::_exit(code);
    }
    ::close(pfd[1]);
    exc_fds[static_cast<std::size_t>(r)] = pfd[0];
    pids[static_cast<std::size_t>(r)] = pid;
  }

  ProcessResult res;
  res.exit_codes.assign(static_cast<std::size_t>(nranks), -1);
  res.uncaught.assign(static_cast<std::size_t>(nranks), false);
  res.all_ok = true;
  // Reap in death order, not rank order: waiting on rank 0 first would
  // defer noticing a SIGKILLed rank 3 until everything ahead of it exited —
  // exactly the window the liveness layer needs to be small.
  for (int reaped = 0; reaped < nranks; ++reaped) {
    int status = 0;
    pid_t got = ::waitpid(-1, &status, 0);
    if (got < 0) {
      // ECHILD with ranks outstanding: mark them all failed and stop.
      for (int i = 0; i < nranks; ++i)
        if (pids[static_cast<std::size_t>(i)] >= 0) {
          res.exit_codes[static_cast<std::size_t>(i)] = 122;
          ::close(exc_fds[static_cast<std::size_t>(i)]);
        }
      res.all_ok = false;
      break;
    }
    int r = -1;
    for (int i = 0; i < nranks; ++i)
      if (pids[static_cast<std::size_t>(i)] == got) {
        r = i;
        break;
      }
    if (r < 0) {
      // Not one of ours (a library's stray child); don't count it.
      --reaped;
      continue;
    }
    int code;
    if (WIFEXITED(status))
      code = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
      code = 256 + WTERMSIG(status);
    else
      code = 123;
    pids[static_cast<std::size_t>(r)] = -1;
    res.exit_codes[static_cast<std::size_t>(r)] = code;
    // The child is reaped, so the pipe either holds the flag byte or EOF.
    char flag = 0;
    int fd = exc_fds[static_cast<std::size_t>(r)];
    res.uncaught[static_cast<std::size_t>(r)] = ::read(fd, &flag, 1) == 1;
    ::close(fd);
    if (code != 0) res.all_ok = false;
    if (on_death) on_death(r, code);
  }
  return res;
}

bool pin_self_to_core(int core) {
  if (core < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0;
}

int available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  int n = CPU_COUNT(&set);
  return n > 0 ? n : 1;
}

}  // namespace nemo::shm
