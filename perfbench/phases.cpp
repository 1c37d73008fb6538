// The three workload phases. Each launches its own threads-mode world
// through core::run, warms every op once, then runs seeded rounds of ops in
// a closed loop until its time budget is spent. Rank 0 decides at each
// round boundary whether another round starts, so every rank runs the same
// op sequence. Payloads are checked after the clock stops.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "bench.hpp"
#include "shm/copy_ring.hpp"
#include "shm/process_runner.hpp"

namespace nemobench {

using nemo::now_ns;
using nemo::core::Comm;
using nemo::core::Config;
using nemo::core::Request;

// --- host ------------------------------------------------------------------

const Host& host() {
  static const Host h = [] {
    Host out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.cpus.push_back(c);
    if (out.cpus.empty()) out.cpus.push_back(0);
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) != 0) continue;
      std::size_t p = line.find(':');
      if (p != std::string::npos) out.cpu_model = line.substr(p + 2);
      break;
    }
    long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    out.l2_bytes = l2 > 0 ? static_cast<std::size_t>(l2) : 0;
    out.llc_bytes = l3 > 0 ? static_cast<std::size_t>(l3) : out.l2_bytes;
    return out;
  }();
  return h;
}

std::vector<int> binding(int nranks) {
  const std::vector<int>& cpus = host().cpus;
  std::vector<int> b;
  for (int r = 0; r < nranks; ++r)
    b.push_back(cpus[static_cast<std::size_t>(r) % cpus.size()]);
  return b;
}

Config world_config(int nranks) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.mode = nemo::core::LaunchMode::kThreads;
  cfg.core_binding = binding(nranks);
  return cfg;
}

void pin_worker(int nranks, int idx) {
  nemo::shm::pin_self_to_core(binding(nranks)[static_cast<std::size_t>(idx)]);
}

// --- tally -------------------------------------------------------------------

Tally Tally::of(const nemo::core::Engine& eng) {
  const nemo::tune::Counters& c = eng.counters();
  const nemo::core::EngineStats& s = eng.stats();
  Tally t;
  t.fastbox_hits = c.fastbox_hits;
  t.fastbox_fallbacks = c.fastbox_fallbacks;
  t.ring_stalls = c.ring_stalls;
  t.progress_passes = c.progress_passes;
  t.coll_shm_ops = c.coll_shm_ops;
  t.coll_p2p_ops = c.coll_p2p_ops;
  t.coll_fallbacks = c.coll_fallbacks;
  t.coll_epoch_stalls = c.coll_epoch_stalls;
  t.um_pool_hits = c.um_pool_hits;
  t.um_pool_misses = c.um_pool_misses;
  t.msgs_delivered = s.eager_msgs_recv + s.rndv_recv;
  t.path = c.path_hist;
  return t;
}

Tally& Tally::operator+=(const Tally& o) {
  fastbox_hits += o.fastbox_hits;
  fastbox_fallbacks += o.fastbox_fallbacks;
  ring_stalls += o.ring_stalls;
  progress_passes += o.progress_passes;
  coll_shm_ops += o.coll_shm_ops;
  coll_p2p_ops += o.coll_p2p_ops;
  coll_fallbacks += o.coll_fallbacks;
  coll_epoch_stalls += o.coll_epoch_stalls;
  um_pool_hits += o.um_pool_hits;
  um_pool_misses += o.um_pool_misses;
  msgs_delivered += o.msgs_delivered;
  for (std::size_t i = 0; i < path.size(); ++i) path[i] += o.path[i];
  return *this;
}

Tally Tally::operator-(const Tally& o) const {
  Tally t = *this;
  t.fastbox_hits -= o.fastbox_hits;
  t.fastbox_fallbacks -= o.fastbox_fallbacks;
  t.ring_stalls -= o.ring_stalls;
  t.progress_passes -= o.progress_passes;
  t.coll_shm_ops -= o.coll_shm_ops;
  t.coll_p2p_ops -= o.coll_p2p_ops;
  t.coll_fallbacks -= o.coll_fallbacks;
  t.coll_epoch_stalls -= o.coll_epoch_stalls;
  t.um_pool_hits -= o.um_pool_hits;
  t.um_pool_misses -= o.um_pool_misses;
  t.msgs_delivered -= o.msgs_delivered;
  for (std::size_t i = 0; i < path.size(); ++i) t.path[i] -= o.path[i];
  return t;
}

namespace {

/// Op ids: warm-up ops carry the top bit so they never share a payload key
/// with a timed op.
constexpr std::uint64_t kWarmup = 1ull << 63;
std::uint64_t op_id(std::uint64_t round, std::size_t pos) {
  return round * 1000000 + pos;
}

/// Rank 0 decides whether the next round runs; every rank learns it at the
/// same barrier, so the op sequences stay in lock step.
bool next_round(int me, SpinBarrier& bar, std::atomic<bool>& go,
                nemo::core::Engine& eng, std::uint64_t t_start,
                double seconds, const SpanLog* log) {
  if (me == 0) {
    double elapsed = static_cast<double>(now_ns() - t_start) * 1e-9;
    go.store(elapsed < seconds && (log == nullptr || !log->full()),
             std::memory_order_relaxed);
  }
  bar.wait(&eng);
  return go.load(std::memory_order_relaxed);
}

/// Process-lifetime payload buffers, reused by every slice and probe so no
/// world pays fresh page faults for its 64 MiB messages. Each slot belongs
/// to one rank thread at a time.
std::byte* payload_buffer(std::size_t slot, std::size_t bytes) {
  static std::mutex mu;  // Guards bufs.
  static std::vector<std::unique_ptr<std::vector<std::byte>>> bufs;
  std::lock_guard<std::mutex> lk(mu);
  while (bufs.size() <= slot)
    bufs.push_back(std::make_unique<std::vector<std::byte>>());
  if (bufs[slot]->size() < bytes) bufs[slot]->resize(bytes);
  return bufs[slot]->data();
}

void make_logs(PhaseResult& res, bool traced, int nranks) {
  if (!traced) return;
  for (int r = 0; r < nranks; ++r)
    res.spans.push_back(std::make_unique<SpanLog>(r));
}

}  // namespace

// --- pingpong -------------------------------------------------------------------

PhaseResult run_pingpong(std::uint64_t seed, double seconds, bool traced,
                         const std::vector<std::size_t>& sizes,
                         std::optional<Config> cfg_in) {
  Config cfg = cfg_in ? *cfg_in : world_config(2);
  std::vector<std::size_t> use(sizes.begin(), sizes.end());
  if (use.empty()) use.assign(kPingpongSizes.begin(), kPingpongSizes.end());
  std::size_t max_bytes = *std::max_element(use.begin(), use.end());

  PhaseResult res;
  make_logs(res, traced, 2);
  Failures fail(res.outcome);
  SpinBarrier bar(2);
  std::atomic<bool> go{true};
  std::array<Tally, 2> tally;
  std::map<std::size_t, std::vector<double>> rtt;  // Rank 0 only.
  static const std::uint16_t kOp = span_name("bench.pingpong.op");
  static const std::uint16_t kSend = span_name("core.comm.send");
  static const std::uint16_t kRecv = span_name("core.comm.recv");
  constexpr int kTag = 7;

  nemo::core::run(cfg, [&](Comm& comm) {
    int me = comm.rank();
    nemo::core::Engine& eng = comm.engine();
    SpanLog* log = traced ? res.spans[static_cast<std::size_t>(me)].get()
                          : nullptr;
    std::byte* a = payload_buffer(2 * static_cast<std::size_t>(me), max_bytes);
    std::byte* b = me == 0 ? payload_buffer(1, max_bytes) : nullptr;
    if (me == 0)
      res.ring_buf_bytes =
          nemo::shm::CopyRing(comm.world().arena(), comm.world().ring_off(0, 1))
              .buf_bytes();

    // One round trip; rank 0 returns its duration, or -1 when it failed.
    auto round_trip = [&](std::size_t s, std::uint64_t id) -> double {
      std::uint64_t k = key(seed, id);
      double ns = -1;
      if (me == 0) {
        fill_pattern(a, s, k);
        fail.guard("pingpong", [&] {
          std::uint64_t t0 = now_ns();
          {
            Span op(log, kOp, id);
            {
              Span c(log, kSend, id);
              comm.send(a, s, 1, kTag);
            }
            Span c(log, kRecv, id);
            comm.recv(b, s, 1, kTag);
          }
          std::uint64_t t1 = now_ns();
          if (check_pattern(b, s, k))
            ns = static_cast<double>(t1 - t0);
          else
            fail.note("pingpong: payload mismatch at " + std::to_string(s) +
                      " B");
        });
      } else {
        fail.guard("pingpong echo", [&] {
          Span op(log, kOp, id);
          {
            Span c(log, kRecv, id);
            comm.recv(a, s, 0, kTag);
          }
          Span c(log, kSend, id);
          comm.send(a, s, 0, kTag);
        });
      }
      return ns;
    };

    for (std::size_t i = 0; i < use.size(); ++i) {
      auto before = eng.counters().path_hist;
      round_trip(use[i], kWarmup | i);
      for (std::size_t p = 0; p < before.size(); ++p)
        if (me == 0 && eng.counters().path_hist[p] != before[p])
          res.path_by_size[use[i]] = static_cast<int>(p);
    }
    bar.wait(&eng);
    Tally t0 = Tally::of(eng);
    std::uint64_t t_start = now_ns();
    std::uint64_t attempted = 0;
    for (std::uint64_t round = 0;; ++round) {
      if (!next_round(me, bar, go, eng, t_start, seconds, log)) break;
      std::vector<std::size_t> ops = pingpong_round(seed, round, use);
      for (std::size_t j = 0; j < ops.size(); ++j) {
        double ns = round_trip(ops[j], op_id(round, j));
        if (me == 0) {
          ++attempted;
          if (ns >= 0) rtt[ops[j]].push_back(ns);
        }
      }
    }
    if (me == 0) fail.attempted(attempted);
    tally[static_cast<std::size_t>(me)] = Tally::of(eng) - t0;
  });

  for (const Tally& t : tally) res.tally += t;
  for (auto& [s, v] : rtt) {
    for (double& x : v) x /= 2;  // One-way time: half the round trip.
    res.samples_ns[std::to_string(s)] = std::move(v);
  }
  return res;
}

// --- fanin --------------------------------------------------------------------

PhaseResult run_fanin(std::uint64_t seed, double seconds, bool traced) {
  constexpr int kRanks = kFaninProducers + 1;
  constexpr int kPosted = kFaninProducers * kFaninWindow;
  constexpr int kTagData = 1, kTagAck = 2;
  Config cfg = world_config(kRanks);
  PhaseResult res;
  make_logs(res, traced, kRanks);
  Failures fail(res.outcome);
  SpinBarrier bar(kRanks);
  std::array<Tally, kRanks> tally;
  std::vector<double> window_ns;
  static const std::uint16_t kWin = span_name("bench.fanin.window");
  static const std::uint16_t kIrecv = span_name("core.comm.irecv");
  static const std::uint16_t kIsend = span_name("core.comm.isend");
  static const std::uint16_t kWaitall = span_name("core.comm.waitall");
  static const std::uint16_t kSend = span_name("core.comm.send");
  static const std::uint16_t kRecv = span_name("core.comm.recv");

  nemo::core::run(cfg, [&](Comm& comm) {
    int me = comm.rank();
    nemo::core::Engine& eng = comm.engine();
    SpanLog* log = traced ? res.spans[static_cast<std::size_t>(me)].get()
                          : nullptr;
    std::vector<std::byte> bufs(static_cast<std::size_t>(kPosted) *
                                kFaninMaxBytes);
    std::vector<Request> reqs;
    Tally t0;
    bar.wait(&eng);

    if (me == 0) {
      std::array<std::uint64_t, kRanks> next_idx{};
      std::uint64_t t_start = 0;
      std::uint64_t attempted = 0;
      for (std::uint64_t w = 0;; ++w) {
        if (w == 1) {  // Window 0 is the warm-up.
          t0 = Tally::of(eng);
          t_start = now_ns();
        }
        double elapsed = w <= 1 ? 0 : static_cast<double>(now_ns() - t_start) * 1e-9;
        bool more = elapsed < seconds && (log == nullptr || !log->full());
        std::uint64_t flag = more ? 1 : 0;
        std::uint64_t tw0 = now_ns();
        bool ok = true;
        fail.guard("fanin window", [&] {
          Span win(log, kWin, w);
          if (more) {
            reqs.clear();
            for (int i = 0; i < kPosted; ++i) {
              Span c(log, kIrecv, w);
              reqs.push_back(comm.irecv(bufs.data() + static_cast<std::size_t>(i) *
                                                          kFaninMaxBytes,
                                        kFaninMaxBytes, nemo::core::kAnySource,
                                        kTagData));
            }
          }
          for (int p = 1; p < kRanks; ++p) {
            Span c(log, kSend, w);
            comm.send(&flag, sizeof flag, p, kTagAck);
          }
          if (more) {
            Span c(log, kWaitall, w);
            comm.waitall(reqs);
          }
        });
        if (!more) break;
        std::uint64_t tw1 = now_ns();
        for (int i = 0; i < kPosted; ++i) {
          const nemo::core::RecvInfo& info = reqs[static_cast<std::size_t>(i)]->info;
          bool good = info.src >= 1 && info.src < kRanks;
          if (good) {
            std::uint64_t idx = next_idx[static_cast<std::size_t>(info.src)]++;
            std::size_t want = fanin_size(seed, info.src, idx);
            good = info.bytes == want &&
                   check_pattern(bufs.data() + static_cast<std::size_t>(i) *
                                                   kFaninMaxBytes,
                                 want,
                                 key(seed, static_cast<std::uint64_t>(info.src),
                                     idx));
          }
          if (!good) {
            ok = false;
            fail.note("fanin: wrong message from rank " +
                      std::to_string(info.src));
          }
        }
        if (w >= 1) {
          attempted += kPosted;
          if (ok) window_ns.push_back(static_cast<double>(tw1 - tw0));
        }
      }
      fail.attempted(attempted);
    } else {
      std::uint64_t idx = 0;
      std::vector<std::size_t> len(kFaninWindow);
      for (std::uint64_t w = 0;; ++w) {
        if (w == 1) t0 = Tally::of(eng);
        for (int i = 0; i < kFaninWindow; ++i) {
          std::uint64_t id = idx + static_cast<std::uint64_t>(i);
          len[static_cast<std::size_t>(i)] = fanin_size(seed, me, id);
          fill_pattern(bufs.data() + static_cast<std::size_t>(i) * kFaninMaxBytes,
                       len[static_cast<std::size_t>(i)],
                       key(seed, static_cast<std::uint64_t>(me), id));
        }
        std::uint64_t flag = 0;
        fail.guard("fanin producer", [&] {
          Span win(log, kWin, w);
          {
            Span c(log, kRecv, w);
            comm.recv(&flag, sizeof flag, 0, kTagAck);
          }
          if (flag == 0) return;
          reqs.clear();
          for (int i = 0; i < kFaninWindow; ++i) {
            Span c(log, kIsend, w);
            reqs.push_back(comm.isend(
                bufs.data() + static_cast<std::size_t>(i) * kFaninMaxBytes,
                len[static_cast<std::size_t>(i)], 0, kTagData));
          }
          Span c(log, kWaitall, w);
          comm.waitall(reqs);
        });
        if (flag == 0) break;
        idx += kFaninWindow;
      }
    }
    tally[static_cast<std::size_t>(me)] = Tally::of(eng) - t0;
  });

  for (const Tally& t : tally) res.tally += t;
  res.samples_ns["window"] = std::move(window_ns);
  return res;
}

// --- collectives --------------------------------------------------------------

PhaseResult run_collectives(std::uint64_t seed, double seconds, bool traced) {
  constexpr int kRanks = 4;
  constexpr std::size_t kDoubles = 1 * kMiB / sizeof(double);
  Config cfg = world_config(kRanks);
  PhaseResult res;
  make_logs(res, traced, kRanks);
  Failures fail(res.outcome);
  SpinBarrier bar(kRanks);
  std::atomic<bool> go{true};
  std::array<Tally, kRanks> tally;
  std::array<std::vector<double>, kRanks> dur;  // Per rank, per timed op.
  std::vector<CollOp> kinds;                     // Rank 0: op of each index.
  static const std::uint16_t kOp = span_name("bench.coll.op");
  static const std::array<std::uint16_t, kCollOps> kCall = {
      span_name("core.comm.barrier"),   span_name("core.comm.allreduce_f64"),
      span_name("core.comm.allreduce_f64"), span_name("core.comm.alltoall"),
      span_name("core.comm.alltoall"),  span_name("core.comm.bcast")};

  nemo::core::run(cfg, [&](Comm& comm) {
    int me = comm.rank();
    auto ume = static_cast<std::size_t>(me);
    nemo::core::Engine& eng = comm.engine();
    SpanLog* log = traced ? res.spans[ume].get() : nullptr;
    std::vector<double> in(kDoubles), out(kDoubles);
    std::size_t block_max = coll_op_bytes(CollOp::kAlltoall64KiB);
    std::vector<std::byte> sbuf(kRanks * block_max), rbuf(kRanks * block_max);
    std::vector<std::byte> bbuf(coll_op_bytes(CollOp::kBcast256KiB));
    std::uint64_t bcasts = 0;

    // The allreduce result is checked against the exact sum of every
    // rank's operand, regenerated block by block.
    auto allreduce_ok = [&](std::uint64_t k, std::size_t n) {
      for (std::size_t b0 = 0; b0 < n; b0 += kAllreduceBlock) {
        double base = 0;
        for (int r = 0; r < kRanks; ++r)
          base += allreduce_base(k, r, b0 / kAllreduceBlock);
        for (std::size_t i = b0; i < std::min(n, b0 + kAllreduceBlock); ++i)
          if (out[i] != base + kRanks * static_cast<double>(i - b0))
            return false;
      }
      return true;
    };

    // One collective: fill, start together, time, check. Returns this
    // rank's duration, or -1 when the op failed here.
    auto run_op = [&](CollOp op, std::uint64_t id) -> double {
      std::uint64_t k = key(seed, 0xC011ull, id);
      std::size_t bytes = coll_op_bytes(op);
      std::size_t n = bytes / sizeof(double);
      int root = 0;
      switch (op) {
        case CollOp::kBarrier: break;
        case CollOp::kAllreduce8B:
        case CollOp::kAllreduce1MiB:
          for (std::size_t b0 = 0; b0 < n; b0 += kAllreduceBlock) {
            double base = allreduce_base(k, me, b0 / kAllreduceBlock);
            for (std::size_t i = b0; i < std::min(n, b0 + kAllreduceBlock); ++i)
              in[i] = base + static_cast<double>(i - b0);
          }
          break;
        case CollOp::kAlltoall4KiB:
        case CollOp::kAlltoall64KiB:
          for (int d = 0; d < kRanks; ++d)
            fill_pattern(sbuf.data() + static_cast<std::size_t>(d) * bytes,
                         bytes, key(k, static_cast<std::uint64_t>(me),
                                    static_cast<std::uint64_t>(d)));
          break;
        case CollOp::kBcast256KiB:
          root = static_cast<int>(bcasts++ % kRanks);
          if (me == root) fill_pattern(bbuf.data(), bytes, k);
          break;
      }
      bar.wait(&eng);
      std::uint64_t shm0 = eng.counters().coll_shm_ops;
      std::uint64_t p2p0 = eng.counters().coll_p2p_ops;
      double ns = -1;
      bool ok = true;
      fail.guard(coll_op_name(op), [&] {
        std::uint64_t t0 = now_ns();
        {
          Span sp(log, kOp, id);
          Span c(log, kCall[static_cast<std::size_t>(op)], id);
          switch (op) {
            case CollOp::kBarrier: comm.barrier(); break;
            case CollOp::kAllreduce8B:
            case CollOp::kAllreduce1MiB:
              comm.allreduce_f64(in.data(), out.data(), n, Comm::ReduceOp::kSum);
              break;
            case CollOp::kAlltoall4KiB:
            case CollOp::kAlltoall64KiB:
              comm.alltoall(sbuf.data(), bytes, rbuf.data());
              break;
            case CollOp::kBcast256KiB:
              comm.bcast(bbuf.data(), bytes, root);
              break;
          }
        }
        ns = static_cast<double>(now_ns() - t0);
      });
      if (ns < 0) return -1;
      switch (op) {
        case CollOp::kBarrier: break;
        case CollOp::kAllreduce8B:
        case CollOp::kAllreduce1MiB:
          ok = allreduce_ok(k, n);
          break;
        case CollOp::kAlltoall4KiB:
        case CollOp::kAlltoall64KiB:
          for (int s = 0; s < kRanks && ok; ++s)
            ok = check_pattern(rbuf.data() + static_cast<std::size_t>(s) * bytes,
                               bytes, key(k, static_cast<std::uint64_t>(s),
                                          static_cast<std::uint64_t>(me)));
          break;
        case CollOp::kBcast256KiB:
          ok = check_pattern(bbuf.data(), bytes, k);
          break;
      }
      if (!ok) {
        fail.note(std::string(coll_op_name(op)) + ": wrong result on rank " +
                  std::to_string(me));
        return -1;
      }
      if (me == 0) {
        auto& path = res.coll_path[static_cast<std::size_t>(op)];
        path[0] += eng.counters().coll_shm_ops - shm0;
        path[1] += eng.counters().coll_p2p_ops - p2p0;
      }
      return ns;
    };

    for (int i = 0; i < kCollOps; ++i)
      run_op(static_cast<CollOp>(i), kWarmup | static_cast<std::uint64_t>(i));
    if (me == 0) res.coll_path = {};
    bar.wait(&eng);
    Tally t0 = Tally::of(eng);
    std::uint64_t t_start = now_ns();
    for (std::uint64_t round = 0;; ++round) {
      if (!next_round(me, bar, go, eng, t_start, seconds, log)) break;
      std::vector<CollOp> ops = collectives_round(seed, round);
      for (std::size_t j = 0; j < ops.size(); ++j) {
        dur[ume].push_back(run_op(ops[j], op_id(round, j)));
        if (me == 0) kinds.push_back(ops[j]);
      }
    }
    if (me == 0) fail.attempted(kinds.size());
    tally[ume] = Tally::of(eng) - t0;
  });

  for (const Tally& t : tally) res.tally += t;
  // The slowest rank's time is the op's sample; an op that failed on any
  // rank contributes none.
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    double worst = 0;
    for (const auto& d : dur) worst = d[i] < 0 || worst < 0 ? -1 : std::max(worst, d[i]);
    if (worst >= 0) res.samples_ns[coll_op_name(kinds[i])].push_back(worst);
  }
  return res;
}

void merge(PhaseResult& into, PhaseResult&& from) {
  for (auto& [k, v] : from.samples_ns) {
    std::vector<double>& dst = into.samples_ns[k];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  into.tally += from.tally;
  into.outcome.add(from.outcome);
  for (std::size_t i = 0; i < into.coll_path.size(); ++i)
    for (std::size_t j = 0; j < 2; ++j) into.coll_path[i][j] += from.coll_path[i][j];
  into.path_by_size.insert(from.path_by_size.begin(), from.path_by_size.end());
  if (into.ring_buf_bytes == 0) into.ring_buf_bytes = from.ring_buf_bytes;
  for (auto& l : from.spans) into.spans.push_back(std::move(l));
}

// --- bring-up -------------------------------------------------------------------

std::vector<double> bringup_seconds(int nranks, int reps) {
  Config cfg = world_config(nranks);
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    std::atomic<std::uint64_t> first{0};
    std::uint64_t t0 = now_ns();
    nemo::core::run(cfg, [&](Comm& comm) {
      if (comm.rank() == 0) first.store(now_ns(), std::memory_order_relaxed);
      comm.barrier();
    });
    out.push_back(static_cast<double>(first.load() - t0) * 1e-9);
  }
  return out;
}

}  // namespace nemobench
