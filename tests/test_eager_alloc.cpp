// The steady-state eager path makes no heap allocation. This binary
// replaces the global operator new with a counting one and checks that,
// once warm, 8 B and 4 KiB round trips (receive posted first, and message
// arriving first) and perfbench's 96-receive wildcard fan-in window make
// no allocation on any rank.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/comm.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc(n, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace nemo::core {
namespace {

/// A threads world (the counter sees every rank) on the default eager
/// path, whatever the environment selects.
Config world(int nranks) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.env["NEMO_WORLD_MODE"] = "threads";
  cfg.env["NEMO_TRACE"] = "off";
  cfg.env["NEMO_LMT"] = "auto";
  return cfg;
}

/// Heap allocations made by any thread while every rank runs `body`.
template <typename Body>
std::uint64_t allocs_during(Comm& c, Body&& body) {
  c.hard_barrier();
  std::uint64_t before = g_allocs.load();
  body();
  c.hard_barrier();
  std::uint64_t after = g_allocs.load();
  c.hard_barrier();  // Nobody moves on until every rank has read `after`.
  return after - before;
}

/// Messages this rank buffered as unexpected so far.
std::uint64_t unexpected_msgs(Comm& c) {
  const tune::Counters& k = c.engine().counters();
  return k.um_pool_hits + k.um_pool_misses;
}

void await(const std::atomic<std::uint64_t>& step, std::uint64_t k) {
  while (step.load(std::memory_order_acquire) < k) std::this_thread::yield();
}

/// Round trips whose receive is posted before its message is sent: rank 1
/// says when it has posted, and rank 0 posts before it sends.
void pingpong_posted(Comm& c, std::byte* buf, std::size_t bytes, int iters,
                     std::atomic<std::uint64_t>& posted1,
                     std::uint64_t& step) {
  for (int i = 0; i < iters; ++i) {
    ++step;
    if (c.rank() == 0) {
      Request r = c.irecv(buf, bytes, 1, 7);
      await(posted1, step);
      c.send(buf, bytes, 1, 7);
      c.wait(r);
    } else {
      Request r = c.irecv(buf, bytes, 0, 7);
      posted1.store(step, std::memory_order_release);
      c.wait(r);
      c.send(buf, bytes, 0, 7);
    }
  }
}

/// Round trips whose message arrives before its receive is posted: each
/// side sends, flags it, and the other pulls the record in with one
/// progress pass before it posts the receive.
void pingpong_unexpected(Comm& c, std::byte* buf, std::size_t bytes,
                         int iters, std::atomic<std::uint64_t>* sent,
                         std::uint64_t& step) {
  int me = c.rank();
  int peer = 1 - me;
  for (int i = 0; i < iters; ++i) {
    ++step;
    if (me == 1) {
      await(sent[0], step);
      c.engine().progress();
      c.recv(buf, bytes, 0, 9);
    }
    c.send(buf, bytes, peer, 9);
    sent[me].store(step, std::memory_order_release);
    if (me == 0) {
      await(sent[1], step);
      c.engine().progress();
      c.recv(buf, bytes, 1, 9);
    }
  }
}

TEST(EagerAlloc, RoundTripsMakeNoAllocation) {
  constexpr int kWarm = 100;
  constexpr int kIters = 1000;
  std::atomic<std::uint64_t> posted1{0};
  std::atomic<std::uint64_t> sent[2] = {0, 0};
  bool ok = run(world(2), [&](Comm& c) {
    std::vector<std::byte> buf(4 * KiB, std::byte{1});
    std::uint64_t posted_step = 0, unexpected_step = 0;
    for (std::size_t bytes : {std::size_t{8}, 4 * KiB}) {
      pingpong_posted(c, buf.data(), bytes, kWarm, posted1, posted_step);
      std::uint64_t um0 = unexpected_msgs(c);
      std::uint64_t n = allocs_during(c, [&] {
        pingpong_posted(c, buf.data(), bytes, kIters, posted1, posted_step);
      });
      EXPECT_EQ(n, 0u) << "posted, " << bytes << " B";
      EXPECT_EQ(unexpected_msgs(c), um0) << "a receive was not posted first";

      pingpong_unexpected(c, buf.data(), bytes, kWarm, sent, unexpected_step);
      um0 = unexpected_msgs(c);
      n = allocs_during(c, [&] {
        pingpong_unexpected(c, buf.data(), bytes, kIters, sent,
                            unexpected_step);
      });
      EXPECT_EQ(n, 0u) << "unexpected, " << bytes << " B";
      EXPECT_EQ(unexpected_msgs(c), um0 + kIters)
          << "a message did not arrive first";
    }
  });
  EXPECT_TRUE(ok);
}

TEST(EagerAlloc, FaninWindowMakesNoAllocation) {
  // perfbench's fan-in: rank 0 posts 2 x 48 wildcard receives, releases
  // both producers with a one-word send, and waits for all 96 messages of
  // 8-64 B; each producer isends its 48 and waits.
  constexpr int kProducers = 2, kWindow = 48, kPosted = kProducers * kWindow;
  constexpr std::size_t kMax = 64;
  constexpr int kWarm = 5, kWindows = 20;
  bool ok = run(world(kProducers + 1), [&](Comm& c) {
    std::vector<std::byte> bufs(kPosted * kMax, std::byte{2});
    std::vector<Request> reqs;
    reqs.reserve(kPosted);
    auto window = [&](int w) {
      std::uint64_t go = 1;
      if (c.rank() == 0) {
        reqs.clear();
        for (int i = 0; i < kPosted; ++i)
          reqs.push_back(c.irecv(bufs.data() + i * kMax, kMax, kAnySource, 1));
        for (int p = 1; p <= kProducers; ++p) c.send(&go, sizeof go, p, 2);
        c.waitall(reqs);
        for (const Request& r : reqs) EXPECT_GE(r->info.src, 1);
      } else {
        c.recv(&go, sizeof go, 0, 2);
        reqs.clear();
        for (int i = 0; i < kWindow; ++i) {
          std::size_t len = 8 + static_cast<std::size_t>(w * 7 + i) % (kMax - 7);
          reqs.push_back(c.isend(bufs.data() + i * kMax, len, 0, 1));
        }
        c.waitall(reqs);
      }
    };
    for (int w = 0; w < kWarm; ++w) window(w);
    std::uint64_t n = allocs_during(c, [&] {
      for (int w = 0; w < kWindows; ++w) window(kWarm + w);
    });
    EXPECT_EQ(n, 0u);
  });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace nemo::core
