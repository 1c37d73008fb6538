// Single-layer probes for the traced run. Each drives one layer through its
// public API from bound worker threads — the same cores a world's ranks
// use — and records a span around the calls it times. Cross-thread
// hand-offs are timed as round trips halved; per-call costs are span
// durations (which include one clock read, see trace.span_floor_ns).
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "coll/coll_arena.hpp"
#include "core/match.hpp"
#include "shm/arena.hpp"
#include "shm/copy_ring.hpp"
#include "shm/fastbox.hpp"
#include "shm/nemesis_queue.hpp"
#include "shm/nt_copy.hpp"
#include "shm/process_runner.hpp"
#include "simd/simd.hpp"
#include "tune/tuning.hpp"

namespace nemobench {

using nemo::now_ns;
using nemo::core::Comm;

Metric time_metric(const std::vector<double>& ns, double scale,
                   const char* unit) {
  Summary s = summarize(ns);
  return {unit, s.median * scale, s.n, s.p99 * scale};
}

Metric rate_metric(const std::vector<double>& ns, std::size_t bytes) {
  Summary s = summarize(ns);
  double mib = static_cast<double>(bytes) / static_cast<double>(kMiB);
  return {"MiB/s", mib / (s.median * 1e-9), s.n, mib / (s.p99 * 1e-9)};
}

namespace {

constexpr std::size_t kProbeSpanCap = 1u << 18;

std::uint64_t deadline(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

class Prober {
 public:
  Prober(std::uint64_t seed, ProbeResult& res)
      : seed_(seed), res_(res), fail_(res.outcome) {}

  /// A fresh span log for one probe thread (call before starting threads).
  SpanLog* log(int thread) {
    res_.logs.push_back(std::make_unique<SpanLog>(thread, kProbeSpanCap));
    return res_.logs.back().get();
  }

  void set(const std::string& name, Metric m) { res_.metrics[name] = m; }

  /// Count one checked probe; a wrong result counts as a failed op.
  void check(bool ok, const std::string& what) { fail_.add(1, ok ? 0 : 1, what); }
  /// Count a phase run as a probe (the backend pingpongs).
  void check(const PhaseResult& r) { fail_.add(r.outcome); }

  /// Run fn(idx) on `n` threads bound like the ranks of an n-rank world.
  template <typename F>
  void on_threads(int n, F&& fn) {
    std::vector<std::thread> ts;
    for (int i = 0; i < n; ++i)
      ts.emplace_back([&, i] {
        pin_worker(n, i);
        fail_.guard("probe thread", [&] { fn(i); });
      });
    for (auto& t : ts) t.join();
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  ProbeResult& res_;
  Failures fail_;
};

/// Nanoseconds one empty span costs: the floor under every per-call span.
void probe_span_floor(Prober& p) {
  static const std::uint16_t kName = span_name("bench.empty_span");
  SpanLog* log = p.log(0);
  p.on_threads(1, [&](int) {
    for (int i = 0; i < 20000; ++i) Span s(log, kName);
  });
  p.set("trace.span_floor_ns",
        time_metric(span_durations({log}, kName), 1, "ns"));
}

// --- shm.fastbox / shm.nemesis_queue -----------------------------------------

/// 8 B put -> peek -> release ping-pong between two bound threads; one
/// sample is 100 round trips, halved.
void probe_fastbox(Prober& p, double seconds) {
  static const std::uint16_t kName = span_name("shm.fastbox.roundtrip_x100");
  constexpr int kBatch = 100;
  nemo::shm::Arena arena = nemo::shm::Arena::create_anonymous(1 * kMiB);
  nemo::shm::Fastbox ab(arena, nemo::shm::Fastbox::create(arena));
  nemo::shm::Fastbox ba(arena, nemo::shm::Fastbox::create(arena));
  std::atomic<bool> stop{false};
  std::vector<double> samples;
  bool ok = true;
  SpanLog* log = p.log(0);
  std::uint64_t end = deadline(seconds);
  p.on_threads(2, [&](int idx) {
    std::uint64_t v = 0;
    std::uint32_t seq = 0;
    if (idx == 0) {
      for (std::uint64_t b = 0; now_ns() < end; ++b) {
        std::uint64_t t0 = now_ns();
        {
          Span sp(log, kName, b);
          for (int i = 0; i < kBatch; ++i) {
            std::uint64_t sent = key(p.seed(), b, static_cast<std::uint64_t>(i));
            while (!ab.try_put(0, 1, seq, 0,
                               reinterpret_cast<const std::byte*>(&sent), 8)) {
            }
            ++seq;
            const nemo::shm::FastboxSlot* s;
            while ((s = ba.peek()) == nullptr) {
            }
            std::memcpy(&v, s->payload(), 8);
            ba.release();
            ok = ok && v == sent;
          }
        }
        samples.push_back(static_cast<double>(now_ns() - t0) / (2.0 * kBatch));
      }
      stop.store(true, std::memory_order_release);
    } else {
      for (;;) {
        const nemo::shm::FastboxSlot* s;
        while ((s = ab.peek()) == nullptr)
          if (stop.load(std::memory_order_acquire)) return;
        std::memcpy(&v, s->payload(), 8);
        ab.release();
        while (!ba.try_put(1, 1, seq, 0, reinterpret_cast<const std::byte*>(&v),
                           8)) {
        }
        ++seq;
      }
    }
  });
  p.check(ok, "fastbox: echoed payload differs");
  p.set("fastbox.handoff_ns", time_metric(samples, 1, "ns"));
}

/// One cell bounced between two recv queues; one sample is 100 round trips,
/// halved.
void probe_queue_handoff(Prober& p, double seconds) {
  using nemo::shm::Cell;
  using nemo::shm::QueueState;
  using nemo::shm::QueueView;
  static const std::uint16_t kName = span_name("shm.queue.roundtrip_x100");
  constexpr int kBatch = 100;
  nemo::shm::Arena arena = nemo::shm::Arena::create_anonymous(1 * kMiB);
  QueueView qa(arena, arena.alloc(sizeof(QueueState)));
  QueueView qb(arena, arena.alloc(sizeof(QueueState)));
  qa.init();
  qb.init();
  std::uint64_t cell_off = arena.alloc(sizeof(Cell));
  Cell* cell = arena.at_as<Cell>(cell_off);
  std::atomic<bool> stop{false};
  std::vector<double> samples;
  bool ok = true;
  SpanLog* log = p.log(0);
  std::uint64_t end = deadline(seconds);
  p.on_threads(2, [&](int idx) {
    if (idx == 0) {
      std::uint32_t seq = 0;
      for (std::uint64_t b = 0; now_ns() < end; ++b) {
        std::uint64_t t0 = now_ns();
        {
          Span sp(log, kName, b);
          for (int i = 0; i < kBatch; ++i) {
            cell->msg_seq = ++seq;
            qb.enqueue(cell_off);
            std::uint64_t got;
            while ((got = qa.dequeue()) == nemo::shm::kNil) {
            }
            ok = ok && got == cell_off && cell->msg_seq == seq + 1;
          }
        }
        samples.push_back(static_cast<double>(now_ns() - t0) / (2.0 * kBatch));
      }
      stop.store(true, std::memory_order_release);
    } else {
      for (;;) {
        std::uint64_t got;
        while ((got = qb.dequeue()) == nemo::shm::kNil)
          if (stop.load(std::memory_order_acquire)) return;
        arena.at_as<Cell>(got)->msg_seq++;
        qa.enqueue(got);
      }
    }
  });
  p.check(ok, "queue: bounced cell differs");
  p.set("queue.handoff_ns", time_metric(samples, 1, "ns"));
}

/// Three bound producers enqueue onto one MPSC recv queue while a consumer
/// drains it and returns each cell to its producer's free queue; the
/// sample is one contended enqueue() call.
void probe_queue_enqueue3(Prober& p, double seconds) {
  using nemo::shm::Cell;
  using nemo::shm::QueueState;
  using nemo::shm::QueueView;
  static const std::uint16_t kName = span_name("shm.queue.enqueue");
  constexpr int kThreads = 4;
  constexpr int kCellsEach = 16;
  nemo::shm::Arena arena = nemo::shm::Arena::create_anonymous(4 * kMiB);
  QueueView recv(arena, arena.alloc(sizeof(QueueState)));
  recv.init();
  std::vector<QueueView> free_q;
  for (int t = 0; t < kThreads; ++t) {
    free_q.emplace_back(arena, arena.alloc(sizeof(QueueState)));
    free_q.back().init();
  }
  for (int t = 1; t < kThreads; ++t)
    for (int c = 0; c < kCellsEach; ++c) {
      std::uint64_t off = arena.alloc(sizeof(Cell));
      arena.at_as<Cell>(off)->owner = static_cast<std::uint32_t>(t);
      free_q[static_cast<std::size_t>(t)].enqueue(off);
    }
  std::vector<SpanLog*> logs;
  for (int t = 0; t < kThreads; ++t) logs.push_back(p.log(t));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_owner{0};
  std::uint64_t end = deadline(seconds);
  p.on_threads(kThreads, [&](int idx) {
    if (idx == 0) {
      while (now_ns() < end) {
        std::uint64_t off = recv.dequeue();
        if (off == nemo::shm::kNil) continue;
        std::uint32_t owner = arena.at_as<Cell>(off)->owner;
        if (owner == 0 || owner >= kThreads) {
          bad_owner++;
          continue;
        }
        free_q[owner].enqueue(off);
      }
      stop.store(true, std::memory_order_release);
      return;
    }
    SpanLog* log = logs[static_cast<std::size_t>(idx)];
    QueueView& mine = free_q[static_cast<std::size_t>(idx)];
    while (!stop.load(std::memory_order_acquire)) {
      std::uint64_t off = mine.dequeue();
      if (off == nemo::shm::kNil) continue;
      Span sp(log, kName);
      recv.enqueue(off);
    }
  });
  p.check(bad_owner.load() == 0, "queue: cell returned to the wrong owner");
  std::vector<const SpanLog*> producers(logs.begin() + 1, logs.end());
  p.set("queue.enqueue3_ns",
        time_metric(span_durations(producers, kName), 1, "ns"));
}

// --- core.match ----------------------------------------------------------------

/// post_recv() scanning `depth` unexpected messages and match_incoming()
/// scanning `depth` posted wildcard receives, the match being the last
/// entry each time.
void probe_match(Prober& p, double seconds, int depth) {
  using nemo::core::MatchEngine;
  using nemo::core::PostedRecv;
  using nemo::core::UnexpectedMsg;
  std::string d = std::to_string(depth);
  d.insert(d.begin(), 'd');
  const std::uint16_t kPost = span_name(("core.match.post_recv." + d).c_str());
  const std::uint16_t kIncoming =
      span_name(("core.match.match_incoming." + d).c_str());
  SpanLog* post_log = p.log(0);
  SpanLog* incoming_log = p.log(0);
  bool ok = true;
  p.on_threads(1, [&](int) {
    std::byte buf[64];
    auto posted = [&](int src, int tag) {
      PostedRecv pr;
      pr.src = src;
      pr.tag = tag;
      pr.segs = {{buf, sizeof buf}};
      pr.capacity = sizeof buf;
      pr.req = std::make_shared<nemo::core::RequestState>();
      return pr;
    };
    // match_incoming: depth-1 non-matching wildcard receives ahead.
    {
      MatchEngine m;
      for (int i = 0; i < depth; ++i) {
        PostedRecv pr = posted(nemo::core::kAnySource, i + 1 == depth ? 1 : 1000 + i);
        m.post_recv(pr);
      }
      std::uint64_t end = deadline(seconds / 2);
      while (now_ns() < end && !incoming_log->full()) {
        std::unique_ptr<PostedRecv> got;
        {
          Span sp(incoming_log, kIncoming);
          got = m.match_incoming(2, 1, 0);
        }
        ok = ok && got != nullptr && got->tag == 1;
        if (got == nullptr) break;
        m.post_recv(*got);  // Back to the tail: nothing unexpected to match.
      }
    }
    // post_recv: depth-1 non-matching unexpected messages ahead.
    {
      MatchEngine m;
      for (int i = 0; i < depth; ++i) {
        std::unique_ptr<UnexpectedMsg> um = m.acquire_unexpected(8);
        um->src = i + 1 == depth ? 1 : 2;
        um->tag = i + 1 == depth ? 1 : 1000 + i;
        um->total = um->bytes_arrived = 8;
        m.add_unexpected(std::move(um));
      }
      std::uint64_t end = deadline(seconds / 2);
      while (now_ns() < end && !post_log->full()) {
        PostedRecv pr = posted(1, 1);
        std::unique_ptr<UnexpectedMsg> got;
        {
          Span sp(post_log, kPost);
          got = m.post_recv(pr);
        }
        ok = ok && got != nullptr && got->src == 1;
        if (got == nullptr) break;
        m.add_unexpected(std::move(got));
      }
    }
  });
  p.check(ok, "match: wrong entry matched at depth " + std::to_string(depth));
  p.set("match.post_ns." + d,
        time_metric(span_durations({post_log}, kPost), 1, "ns"));
  p.set("match.incoming_ns." + d,
        time_metric(span_durations({incoming_log}, kIncoming), 1, "ns"));
}

// --- core.engine ------------------------------------------------------------------

/// Engine::progress() with nothing pending, on rank 0 of a bound world
/// while its peers idle; one sample is 1000 passes.
void probe_progress_idle(Prober& p, double seconds, int nranks) {
  std::string name = "core.engine.progress_x1000." + std::to_string(nranks) + "r";
  const std::uint16_t kName = span_name(name.c_str());
  SpanLog* log = p.log(0);
  std::vector<double> samples;
  SpinBarrier bar(nranks);
  std::uint64_t end = deadline(seconds);
  nemo::core::run(world_config(nranks), [&](Comm& comm) {
    nemo::core::Engine& eng = comm.engine();
    if (comm.rank() == 0) {
      while (now_ns() < end) {
        std::uint64_t t0 = now_ns();
        {
          Span sp(log, kName);
          for (int i = 0; i < 1000; ++i) eng.progress();
        }
        samples.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
      }
    }
    bar.wait(&eng);
  });
  p.set("engine.progress_idle_ns." + std::to_string(nranks) + "r",
        time_metric(samples, 1, "ns"));
}

// --- lmt / shm.copy_ring -------------------------------------------------------------

/// 8 B rendezvous (eager_threshold = 0 over the default LMT): the
/// RTS/CTS/FIN handshake with nothing to copy.
void probe_handshake(Prober& p, double seconds) {
  nemo::core::Config cfg = world_config(2);
  cfg.lmt = nemo::lmt::LmtKind::kDefaultShm;
  cfg.eager_threshold = 0;
  PhaseResult r = run_pingpong(p.seed(), seconds, false, {8}, cfg);
  p.check(r);
  p.set("lmt.handshake_us", time_metric(r.samples_ns["8"], 1e-3, "us"));
}

/// Pingpong at 4 MiB and 64 MiB with one backend forced through
/// Config::lmt. The default backend's run also yields the ring stall ratio.
void probe_backend(Prober& p, double seconds, nemo::lmt::LmtKind kind,
                   const char* label) {
  nemo::core::Config cfg = world_config(2);
  cfg.lmt = kind;
  PhaseResult r =
      run_pingpong(p.seed(), seconds, false, {4 * kMiB, 64 * kMiB}, cfg);
  p.check(r);
  std::string base = std::string("lmt.") + label;
  p.set(base + "_4MiB_mibs", rate_metric(r.samples_ns[std::to_string(4 * kMiB)], 4 * kMiB));
  p.set(base + "_64MiB_mibs",
        rate_metric(r.samples_ns[std::to_string(64 * kMiB)], 64 * kMiB));
  if (kind == nemo::lmt::LmtKind::kDefaultShm && r.ring_buf_bytes > 0) {
    // Chunk pushes: every message of each size, both directions.
    double chunks = 0;
    for (const auto& [s, v] : r.samples_ns)
      chunks += 2.0 * static_cast<double>(v.size()) *
                std::ceil(std::stod(s) / r.ring_buf_bytes);
    p.set("ring.stall_ratio",
          {"ratio", chunks > 0 ? static_cast<double>(r.tally.ring_stalls) / chunks
                               : 0.0});
  }
}

/// One 4 MiB message streamed through a standalone 4 x 32 KiB copy ring
/// between two bound threads; the sample is message time / chunks.
void probe_ring(Prober& p, double seconds, bool nt) {
  constexpr std::size_t kMsg = 4 * kMiB;
  constexpr std::uint32_t kBufs = 4, kBufBytes = 32 * kKiB;
  const std::uint16_t kName =
      span_name(nt ? "shm.copy_ring.message_nt" : "shm.copy_ring.message");
  nemo::shm::Arena arena = nemo::shm::Arena::create_anonymous(2 * kMiB);
  nemo::shm::CopyRing ring(arena,
                           nemo::shm::CopyRing::create(arena, kBufs, kBufBytes));
  std::vector<std::byte> src(kMsg), dst(kMsg);
  std::uint64_t k = key(p.seed(), 0x7269ull);
  fill_pattern(src.data(), kMsg, k);
  std::atomic<std::uint64_t> done{0};
  std::atomic<bool> stop{false};
  std::vector<double> samples;
  SpanLog* log = p.log(0);
  std::uint64_t end = deadline(seconds);
  p.on_threads(2, [&](int idx) {
    std::uint64_t cursor = 0;
    if (idx == 0) {
      for (std::uint64_t m = 1; now_ns() < end; ++m) {
        std::uint64_t t0 = now_ns();
        {
          Span sp(log, kName, m);
          std::size_t off = 0;
          while (off < kMsg)
            off += ring.try_push(cursor, src.data() + off, kMsg - off, true, nt);
          while (done.load(std::memory_order_acquire) != m) {
          }
        }
        samples.push_back(static_cast<double>(now_ns() - t0) /
                          static_cast<double>(kMsg / kBufBytes));
      }
      stop.store(true, std::memory_order_release);
    } else {
      std::size_t off = 0;
      std::uint64_t msgs = 0;
      while (!stop.load(std::memory_order_acquire)) {
        bool last = false;
        std::size_t n = ring.try_pop(cursor, dst.data() + off, last, nt);
        off += n;
        if (n != 0 && last) {
          off = 0;
          done.store(++msgs, std::memory_order_release);
        }
      }
    }
  });
  p.check(check_pattern(dst.data(), kMsg, k), "copy ring: payload differs");
  p.set(nt ? "ring.chunk_handoff_ns.nt" : "ring.chunk_handoff_ns.cached",
        time_metric(samples, 1, "ns"));
}

// --- shm.nt_copy / simd ----------------------------------------------------------------

/// cached_memcpy / nt_memcpy of one buffer on a bound thread.
void probe_copy(Prober& p, double seconds) {
  struct Case {
    const char* metric;
    const char* span;
    bool nt;
    std::size_t bytes;
  };
  const Case cases[] = {
      {"copy.memcpy_mibs.64KiB", "shm.nt_copy.cached_memcpy.64KiB", false, 64 * kKiB},
      {"copy.memcpy_mibs.4MiB", "shm.nt_copy.cached_memcpy.4MiB", false, 4 * kMiB},
      {"copy.memcpy_mibs.64MiB", "shm.nt_copy.cached_memcpy.64MiB", false, 64 * kMiB},
      {"copy.nt_mibs.4MiB", "shm.nt_copy.nt_memcpy.4MiB", true, 4 * kMiB},
      {"copy.nt_mibs.64MiB", "shm.nt_copy.nt_memcpy.64MiB", true, 64 * kMiB},
  };
  constexpr std::size_t kCases = sizeof cases / sizeof cases[0];
  std::vector<std::byte> src(64 * kMiB), dst(64 * kMiB);
  std::uint64_t k = key(p.seed(), 0x6370ull);
  fill_pattern(src.data(), src.size(), k);
  SpanLog* log = p.log(0);
  std::vector<std::uint16_t> names;
  for (const Case& c : cases) names.push_back(span_name(c.span));
  bool ok = true;
  p.on_threads(1, [&](int) {
    for (std::size_t i = 0; i < kCases; ++i) {
      std::uint64_t end = deadline(seconds / kCases);
      do {
        Span sp(log, names[i]);
        nemo::shm::copy_for(cases[i].nt, dst.data(), src.data(), cases[i].bytes);
      } while (now_ns() < end);
      ok = ok && check_pattern(dst.data(), cases[i].bytes, k);
    }
  });
  p.check(ok, "copy: destination differs from source");
  for (std::size_t i = 0; i < kCases; ++i)
    p.set(cases[i].metric,
          rate_metric(span_durations({log}, names[i]), cases[i].bytes));
}

/// simd::fold sum over 1 MiB of doubles, best kernel and scalar.
void probe_fold(Prober& p, double seconds) {
  constexpr std::size_t kN = 1 * kMiB / sizeof(double);
  std::vector<double> src(kN, 1.0);
  SpanLog* log = p.log(0);
  const nemo::simd::Kernel kernels[] = {nemo::simd::best_supported(),
                                        nemo::simd::Kernel::kScalar};
  const char* names[] = {"simd.fold_mibs.best", "simd.fold_mibs.scalar"};
  const std::uint16_t spans[] = {span_name("simd.fold.best"),
                                 span_name("simd.fold.scalar")};
  bool ok = true;
  p.on_threads(1, [&](int) {
    for (int i = 0; i < 2; ++i) {
      std::vector<double> dst(kN, 0.0);
      double folds = 0;
      std::uint64_t end = deadline(seconds / 2);
      do {
        Span sp(log, spans[i]);
        nemo::simd::fold(kernels[i], nemo::simd::Op::kSum, dst.data(),
                         src.data(), kN);
        folds += 1;
      } while (now_ns() < end);
      ok = ok && dst.front() == folds && dst.back() == folds;
    }
  });
  p.check(ok, "simd: fold result differs");
  for (int i = 0; i < 2; ++i)
    p.set(names[i], rate_metric(span_durations({log}, spans[i]), kN * sizeof(double)));
}

// --- coll ---------------------------------------------------------------------------

/// A bare flat arena barrier round (barrier_arrive / barrier_arrived /
/// barrier_release / barrier_released) across 4 bound threads; one sample
/// is 1000 rounds on thread 0.
void probe_arena_barrier(Prober& p, double seconds) {
  constexpr int kRanks = 4;
  constexpr int kBatch = 1000;
  static const std::uint16_t kName = span_name("coll.arena.barrier_x1000");
  nemo::shm::Arena arena = nemo::shm::Arena::create_anonymous(1 * kMiB);
  nemo::coll::WorldColl wc(arena,
                           nemo::coll::WorldColl::create(arena, kRanks, 4 * kKiB));
  std::atomic<bool> stop{false};
  std::vector<double> samples;
  SpanLog* log = p.log(0);
  std::uint64_t end = deadline(seconds);
  p.on_threads(kRanks, [&](int r) {
    std::uint64_t seq = 0;
    if (r == 0) {
      for (std::uint64_t b = 0; !stop.load(std::memory_order_relaxed); ++b) {
        std::uint64_t t0 = now_ns();
        {
          Span sp(log, kName, b);
          for (int i = 0; i < kBatch; ++i) {
            ++seq;
            wc.barrier_arrive(0, seq);
            for (int rr = 1; rr < kRanks; ++rr)
              while (!wc.barrier_arrived(rr, seq)) {
              }
            // Peers read `stop` after each release, so it is set before
            // the final round's release.
            if (i + 1 == kBatch && now_ns() >= end)
              stop.store(true, std::memory_order_relaxed);
            wc.barrier_release(seq);
          }
        }
        samples.push_back(static_cast<double>(now_ns() - t0) / kBatch);
      }
    } else {
      for (;;) {
        ++seq;
        wc.barrier_arrive(r, seq);
        while (!wc.barrier_released(seq)) {
        }
        if (stop.load(std::memory_order_relaxed)) return;
      }
    }
  });
  p.set("coll.arena_barrier_ns", time_metric(samples, 1, "ns"));
}

// --- tune / World bring-up ----------------------------------------------------------

/// tune::effective_table, the World constructor, and the rank launch
/// (thread spawn, binding, Comm construction, first hard barrier), each
/// timed on its own.
void probe_setup(Prober& p, int nranks, int reps) {
  static const std::uint16_t kTune = span_name("tune.effective_table");
  static const std::uint16_t kCtor = span_name("core.world.ctor");
  SpanLog* log = p.log(0);
  nemo::Topology topo = nemo::detect_host();
  for (int i = 0; i < reps; ++i) {
    Span sp(log, kTune);
    nemo::tune::TuningTable t = nemo::tune::effective_table(topo);
  }
  nemo::core::Config cfg = world_config(nranks);
  for (int i = 0; i < reps; ++i) {
    std::optional<nemo::core::World> w;
    {
      Span sp(log, kCtor);
      w.emplace(cfg);
    }
  }
  std::vector<double> launch;
  for (int i = 0; i < reps; ++i) {
    nemo::core::World w(cfg);
    std::atomic<std::uint64_t> ready{0};
    std::uint64_t t0 = now_ns();
    std::vector<std::thread> ts;
    for (int r = 0; r < nranks; ++r)
      ts.emplace_back([&, r] {
        nemo::shm::pin_self_to_core(w.core_of(r));
        Comm comm(w, r);
        w.hard_barrier();
        if (r == 0) ready.store(now_ns(), std::memory_order_relaxed);
        comm.barrier();  // The same drain core::run does before teardown.
        w.hard_barrier();
      });
    for (auto& t : ts) t.join();
    launch.push_back(static_cast<double>(ready.load() - t0));
  }
  p.set("setup.tuning_s", time_metric(span_durations({log}, kTune), 1e-9, "s"));
  p.set("setup.world_ctor_s",
        time_metric(span_durations({log}, kCtor), 1e-9, "s"));
  p.set("setup.launch_s", time_metric(launch, 1e-9, "s"));
}

}  // namespace

ProbeResult run_layer_probes(std::uint64_t seed, double seconds,
                             int world_ranks) {
  ProbeResult res;
  Prober p(seed, res);
  // Shares of `seconds`; the backend pingpongs move the most bytes per
  // sample, so they get the most time.
  double u = seconds / 100.0;
  probe_span_floor(p);
  probe_setup(p, world_ranks, 15);
  probe_fastbox(p, 5 * u);
  probe_queue_handoff(p, 5 * u);
  probe_queue_enqueue3(p, 5 * u);
  probe_match(p, 4 * u, 1);
  probe_match(p, 4 * u, 96);
  probe_progress_idle(p, 3 * u, 2);
  probe_progress_idle(p, 3 * u, 4);
  probe_handshake(p, 5 * u);
  probe_backend(p, 14 * u, nemo::lmt::LmtKind::kDefaultShm, "default");
  probe_backend(p, 14 * u, nemo::lmt::LmtKind::kVmsplice, "vmsplice");
  probe_backend(p, 14 * u, nemo::lmt::LmtKind::kKnem, "knem");
  probe_ring(p, 4 * u, false);
  probe_ring(p, 4 * u, true);
  probe_copy(p, 8 * u);
  probe_fold(p, 3 * u);
  probe_arena_barrier(p, 4 * u);
  return res;
}

}  // namespace nemobench
