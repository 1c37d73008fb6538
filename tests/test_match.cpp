// Matching engine: wildcard semantics, FIFO ordering, context isolation,
// partial-eager lookup.
#include <gtest/gtest.h>

#include "core/comm.hpp"
#include "core/match.hpp"

namespace nemo::core {
namespace {

PostedRecv make_pr(int src, int tag, int context = 0) {
  PostedRecv pr;
  pr.src = src;
  pr.tag = tag;
  pr.context = context;
  pr.req = std::make_shared<RequestState>();
  return pr;
}

std::unique_ptr<UnexpectedMsg> make_um(int src, int tag, int context = 0,
                                       std::uint32_t seq = 0) {
  auto um = std::make_unique<UnexpectedMsg>();
  um->src = src;
  um->tag = tag;
  um->context = context;
  um->seq = seq;
  return um;
}

TEST(Match, PostedThenIncoming) {
  MatchEngine m;
  PostedRecv pr = make_pr(1, 5);
  EXPECT_EQ(m.post_recv(pr), nullptr);
  EXPECT_EQ(m.posted_count(), 1u);
  auto got = m.match_incoming(1, 5, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(m.posted_count(), 0u);
  EXPECT_EQ(m.match_incoming(1, 5, 0), nullptr);
}

TEST(Match, IncomingThenPosted) {
  MatchEngine m;
  m.add_unexpected(make_um(2, 9));
  PostedRecv pr = make_pr(2, 9);
  auto um = m.post_recv(pr);
  ASSERT_NE(um, nullptr);
  EXPECT_EQ(um->src, 2);
  // pr untouched: req still present.
  EXPECT_NE(pr.req, nullptr);
  EXPECT_EQ(m.unexpected_count(), 0u);
}

TEST(Match, WildcardSourceMatchesAny) {
  MatchEngine m;
  m.add_unexpected(make_um(3, 7));
  PostedRecv pr = make_pr(kAnySource, 7);
  auto um = m.post_recv(pr);
  ASSERT_NE(um, nullptr);
  EXPECT_EQ(um->src, 3);
}

TEST(Match, WildcardTagMatchesAny) {
  MatchEngine m;
  PostedRecv pr = make_pr(1, kAnyTag);
  m.post_recv(pr);
  EXPECT_NE(m.match_incoming(1, 12345, 0), nullptr);
}

TEST(Match, ContextNeverWildcard) {
  MatchEngine m;
  m.add_unexpected(make_um(1, 5, /*context=*/1));
  // A fully-wildcard user recv must not see internal (context 1) traffic.
  PostedRecv pr = make_pr(kAnySource, kAnyTag, /*context=*/0);
  EXPECT_EQ(m.post_recv(pr), nullptr);
  EXPECT_EQ(m.unexpected_count(), 1u);
  // The matching internal recv does.
  PostedRecv pr2 = make_pr(kAnySource, kAnyTag, /*context=*/1);
  EXPECT_NE(m.post_recv(pr2), nullptr);
}

TEST(Match, FifoWithinMatchingClass) {
  MatchEngine m;
  m.add_unexpected(make_um(1, 5, 0, /*seq=*/10));
  m.add_unexpected(make_um(1, 5, 0, /*seq=*/11));
  PostedRecv pr = make_pr(1, 5);
  auto first = m.post_recv(pr);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->seq, 10u);  // Oldest first (non-overtaking).
  PostedRecv pr2 = make_pr(1, 5);
  auto second = m.post_recv(pr2);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->seq, 11u);
}

TEST(Match, PostedFifoAcrossWildcards) {
  MatchEngine m;
  PostedRecv specific = make_pr(1, 5);
  PostedRecv wild = make_pr(kAnySource, kAnyTag);
  m.post_recv(specific);
  m.post_recv(wild);
  // The older posted recv (specific) wins for a matching envelope.
  auto got = m.match_incoming(1, 5, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->src, 1);
  // The next envelope lands on the wildcard.
  auto got2 = m.match_incoming(2, 99, 0);
  ASSERT_NE(got2, nullptr);
  EXPECT_EQ(got2->src, kAnySource);
}

TEST(Match, NonMatchingTagSkipped) {
  MatchEngine m;
  m.add_unexpected(make_um(1, 5));
  PostedRecv pr = make_pr(1, 6);
  EXPECT_EQ(m.post_recv(pr), nullptr);
  EXPECT_EQ(m.unexpected_count(), 1u);
  EXPECT_EQ(m.posted_count(), 1u);
}

TEST(Match, FindPartialOnlyIncompleteEager) {
  MatchEngine m;
  auto um = make_um(1, 5, 0, 42);
  um->total = 100;
  um->data.resize(100);
  um->bytes_arrived = 50;
  m.add_unexpected(std::move(um));
  EXPECT_NE(m.find_partial(1, 42), nullptr);
  EXPECT_EQ(m.find_partial(1, 43), nullptr);
  EXPECT_EQ(m.find_partial(2, 42), nullptr);
  // Complete it: no longer "partial".
  m.find_partial(1, 42)->bytes_arrived = 100;
  EXPECT_EQ(m.find_partial(1, 42), nullptr);
}

TEST(Match, RndvUnexpectedCarriesWire) {
  MatchEngine m;
  auto um = make_um(4, 8);
  um->is_rndv = true;
  um->rts.total = 12345;
  um->rts.knem_cookie = 77;
  m.add_unexpected(std::move(um));
  PostedRecv pr = make_pr(4, 8);
  auto got = m.post_recv(pr);
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->is_rndv);
  EXPECT_EQ(got->rts.total, 12345u);
  EXPECT_EQ(got->rts.knem_cookie, 77u);
}

TEST(MatchPool, RecycledBuffersAreReusedAndCounted) {
  MatchEngine m;
  tune::Counters c;
  m.set_counters(&c);

  // Cold: nothing pooled yet — a miss and a fresh allocation.
  auto um = m.acquire_unexpected(4 * KiB);
  EXPECT_EQ(c.um_pool_misses, 1u);
  EXPECT_EQ(um->data.size(), 4 * KiB);
  um->src = 1;
  um->bytes_arrived = 4 * KiB;
  const std::byte* payload = um->data.data();
  m.recycle(std::move(um));
  EXPECT_EQ(m.pooled_count(), 1u);

  // Warm: same-or-smaller payload reuses the node and its capacity.
  auto again = m.acquire_unexpected(1 * KiB);
  EXPECT_EQ(c.um_pool_hits, 1u);
  EXPECT_EQ(again->data.data(), payload);
  EXPECT_EQ(again->data.size(), 1 * KiB);
  // The node comes back blank (no stale header fields).
  EXPECT_EQ(again->src, -1);
  EXPECT_EQ(again->bytes_arrived, 0u);
  EXPECT_FALSE(again->is_rndv);

  // A larger payload still reuses the node but counts the buffer miss.
  m.recycle(std::move(again));
  auto big = m.acquire_unexpected(64 * KiB);
  EXPECT_EQ(c.um_pool_misses, 2u);
  EXPECT_EQ(big->data.size(), 64 * KiB);
}

TEST(MatchPool, PoolIsBounded) {
  MatchEngine m;
  std::vector<std::unique_ptr<UnexpectedMsg>> live;
  for (std::size_t i = 0; i < 2 * MatchEngine::kPoolCap; ++i)
    live.push_back(m.acquire_unexpected(128));
  for (auto& um : live) m.recycle(std::move(um));
  EXPECT_EQ(m.pooled_count(), MatchEngine::kPoolCap);
}

TEST(MatchPool, PostedOrderHoldsAcrossRecycledNodes) {
  // Every matched node goes back to the pool and the next post reuses it,
  // so each round below runs on recycled nodes; FIFO within a class and
  // oldest-first across wildcards must not notice.
  MatchEngine m;
  for (int round = 0; round < 8; ++round) {
    PostedRecv a = make_pr(1, 5);
    PostedRecv wild = make_pr(kAnySource, kAnyTag);
    PostedRecv c = make_pr(1, 5);
    a.capacity = 1;
    c.capacity = 3;
    m.post_recv(a);
    m.post_recv(wild);
    m.post_recv(c);
    // The oldest matching receive wins: a (specific), then the wildcard for
    // another source, then c.
    auto got = m.match_incoming(1, 5, 0);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->capacity, 1u);
    m.recycle(std::move(got));
    PostedRecv d = make_pr(1, 5);
    d.capacity = 4;
    m.post_recv(d);  // Lands on a's recycled node, behind c.
    got = m.match_incoming(2, 99, 0);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->src, kAnySource);
    m.recycle(std::move(got));
    got = m.match_incoming(1, 5, 0);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->capacity, 3u);
    m.recycle(std::move(got));
    got = m.match_incoming(1, 5, 0);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->capacity, 4u);
    m.recycle(std::move(got));
    EXPECT_EQ(m.posted_count(), 0u);
  }
  EXPECT_LE(m.posted_pooled_count(), 3u);
}

TEST(MatchPool, PostedPoolIsBounded) {
  MatchEngine m;
  constexpr std::size_t kN = 2 * MatchEngine::kPoolCap;
  for (std::size_t i = 0; i < kN; ++i) {
    PostedRecv pr = make_pr(kAnySource, kAnyTag);
    m.post_recv(pr);
  }
  for (std::size_t i = 0; i < kN; ++i) {
    m.recycle(m.match_incoming(1, 1, 0));
    EXPECT_LE(m.posted_pooled_count(), MatchEngine::kPoolCap);
  }
  EXPECT_EQ(m.posted_pooled_count(), MatchEngine::kPoolCap);
  // Posting takes from the pool first.
  PostedRecv pr = make_pr(1, 1);
  m.post_recv(pr);
  EXPECT_EQ(m.posted_pooled_count(), MatchEngine::kPoolCap - 1);
}

TEST(MatchPool, RecycledNodeHoldsNoRequest) {
  MatchEngine m;
  std::byte buf[16];
  Request req = std::make_shared<RequestState>();
  PostedRecv pr = make_pr(3, 4);
  pr.req = req;
  pr.segs = {{buf, sizeof buf}};
  m.post_recv(pr);
  EXPECT_EQ(pr.req, nullptr);  // Moved into the queued node.
  EXPECT_EQ(req.use_count(), 2);
  auto got = m.match_incoming(3, 4, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->req, req);
  m.recycle(std::move(got));
  EXPECT_EQ(req.use_count(), 1);
  EXPECT_EQ(m.posted_pooled_count(), 1u);
}

TEST(MatchPool, EngineLeavesTheCallerTheOnlyRequestReference) {
  // Through the engine: a posted and an unexpected eager receive, and a
  // send, each end with the caller holding the request's only reference.
  Config cfg;
  cfg.nranks = 2;
  cfg.env["NEMO_WORLD_MODE"] = "threads";
  bool ok = run(cfg, [](Comm& c) {
    std::uint64_t v = 0;
    if (c.rank() == 0) {
      Request posted = c.irecv(&v, sizeof v, 1, 1);
      c.hard_barrier();  // Posted before rank 1 sends.
      c.wait(posted);
      EXPECT_EQ(posted.use_count(), 1);
      c.hard_barrier();  // Rank 1's second message is in the ring.
      c.engine().progress();
      Request late = c.irecv(&v, sizeof v, 1, 2);
      EXPECT_TRUE(late->complete);  // It matched the unexpected message.
      EXPECT_EQ(late.use_count(), 1);
    } else {
      c.hard_barrier();
      Request s = c.isend(&v, sizeof v, 0, 1);
      c.wait(s);
      EXPECT_EQ(s.use_count(), 1);
      c.send(&v, sizeof v, 0, 2);
      c.hard_barrier();
    }
  });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace nemo::core
