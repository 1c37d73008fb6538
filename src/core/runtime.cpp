// Rank launchers: threads sharing the world's anonymous mapping, or forked
// processes re-attaching to it by name — the same arena layout either way.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/comm.hpp"
#include "core/knobs.hpp"
#include "shm/process_runner.hpp"

namespace nemo::core {

namespace {

void rank_body(World& world, int rank, const std::function<void(Comm&)>& fn) {
  int core = world.core_of(rank);
  if (core >= 0) shm::pin_self_to_core(core);
  Comm comm(world, rank);
  // All pids registered / engines live before any traffic flows.
  world.hard_barrier();
  fn(comm);
  // Drain in-flight protocol traffic (returns peers' cells) before teardown.
  comm.barrier();
  world.hard_barrier();
}

}  // namespace

bool run(const Config& cfg, const std::function<void(Comm&)>& fn) {
  // Resolve the knobs before the World exists: a process-mode world
  // without an explicit shm_name gets a generated one, so the arena is
  // shm_open-backed and each forked child can re-attach at its own base
  // address instead of relying on the inherited mapping. The World's own
  // pass over the resolved Config changes nothing.
  Config launch = resolve_config(cfg);
  if (launch.mode == LaunchMode::kProcesses && launch.shm_name.empty()) {
    static std::atomic<unsigned> serial{0};
    char name[64];
    std::snprintf(name, sizeof name, "/nemo-%d-%u",
                  static_cast<int>(::getpid()),
                  serial.fetch_add(1, std::memory_order_relaxed));
    launch.shm_name = name;
  }
  World world(launch);

  if (world.config().mode == LaunchMode::kProcesses) {
    // The parent publishes an eager death verdict the moment a rank dies
    // badly — SIGCHLD-order reaping means survivors' liveness guards see
    // it within one slow-path check instead of waiting out the heartbeat
    // timeout. Clean exits (code 0) are not deaths: teardown is ordered by
    // the rank_body barriers.
    resil::Liveness live = world.liveness();
    shm::ProcessResult res = shm::run_forked_ranks(
        world.config().nranks,
        [&](int rank) {
          world.reattach_in_child();
          rank_body(world, rank, fn);
          return 0;
        },
        [&](int rank, int code) {
          if (code != 0 && live.valid()) live.mark_dead(rank);
        });
    return res.all_ok;
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(cfg.nranks));
  std::mutex err_mu;
  std::exception_ptr first_error;
  for (int r = 0; r < cfg.nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        rank_body(world, r, fn);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
        // A dead rank would hang its peers in barriers; abort loudly
        // instead of deadlocking the test suite.
        std::fprintf(stderr, "rank %d failed; aborting world\n", r);
        std::abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return true;
}

}  // namespace nemo::core
