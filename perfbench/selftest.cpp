// The benchmark's own tests: seeded inputs are deterministic and
// seed-dependent, payload patterns catch corruption, and the order
// statistics and span self-time accounting give known answers.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace nemobench;

void test_seed_determinism() {
  for (std::uint64_t round : {0ull, 1ull, 77ull}) {
    check(pingpong_round(42, round) == pingpong_round(42, round),
          "pingpong round repeats for one seed");
    check(pingpong_round(42, round) != pingpong_round(43, round),
          "pingpong round differs across seeds");
    check(collectives_round(42, round) == collectives_round(42, round),
          "collectives round repeats for one seed");
    check(collectives_round(42, round) != collectives_round(43, round),
          "collectives round differs across seeds");
  }
  check(pingpong_round(42, 0) != pingpong_round(42, 1),
        "consecutive pingpong rounds differ");

  std::vector<std::size_t> a, b, c;
  for (std::uint64_t i = 0; i < 256; ++i) {
    a.push_back(fanin_size(42, 1, i));
    b.push_back(fanin_size(42, 1, i));
    c.push_back(fanin_size(43, 1, i));
  }
  check(a == b, "fanin sizes repeat for one seed");
  check(a != c, "fanin sizes differ across seeds");
  for (std::size_t s : a)
    check(s >= kFaninMinBytes && s <= kFaninMaxBytes, "fanin size in range");
}

void test_round_composition() {
  std::vector<std::size_t> r = pingpong_round(7, 3);
  for (std::size_t i = 0; i < kPingpongSizes.size(); ++i) {
    std::size_t n = 0;
    for (std::size_t s : r) n += s == kPingpongSizes[i];
    check(n == kPingpongPerRound[i], "pingpong round holds each size's weight");
  }
  std::vector<std::size_t> only = pingpong_round(7, 3, {8});
  check(only.size() == kPingpongPerRound[0], "size subset keeps its weight");
  std::vector<CollOp> ops = collectives_round(7, 3);
  std::size_t total = 0;
  for (std::size_t n : kCollPerRound) total += n;
  check(ops.size() == total, "collectives round holds every op");
}

void test_patterns() {
  std::vector<unsigned char> buf(1001);
  fill_pattern(buf.data(), buf.size(), 5);
  check(check_pattern(buf.data(), buf.size(), 5), "pattern verifies");
  check(!check_pattern(buf.data(), buf.size(), 6), "other key rejected");
  buf[1000] ^= 1;
  check(!check_pattern(buf.data(), buf.size(), 5), "flipped tail byte caught");
  buf[1000] ^= 1;
  buf[8] ^= 0x80;
  check(!check_pattern(buf.data(), buf.size(), 5), "flipped word caught");
  for (int r = 0; r < 4; ++r) {
    double base = allreduce_base(9, r, 17);
    check(base == std::floor(base) && base >= 0 && base < 4096,
          "allreduce operands are small integers");
  }
}

void test_stats() {
  check(near(median({3, 1, 2}), 2), "median of odd count");
  check(near(median({4, 1, 3, 2}), 2.5), "median of even count interpolates");
  std::vector<double> h;
  for (int i = 1; i <= 100; ++i) h.push_back(i);
  check(near(percentile(h, 0.99), 99.01), "p99 of 1..100");
  check(near(percentile(h, 0.0), 1) && near(percentile(h, 1.0), 100),
        "percentile endpoints");
  check(near(percentile({5}, 0.99), 5), "single sample");
  check(std::isnan(median({})), "empty input is NaN");
  Summary s = summarize(h);
  check(s.n == 100 && near(s.median, 50.5), "summary carries count and median");
}

void test_self_time() {
  SpanLog log(0);
  std::uint16_t outer = span_name("test.outer");
  std::uint16_t inner = span_name("test.inner");
  {
    Span o(&log, outer, 1);
    Span i(&log, inner, 1);
  }
  const std::vector<SpanRec>& recs = log.records();
  check(recs.size() == 2 && recs[1].parent == 0, "child span links parent");
  std::map<std::string, SelfTime> st = self_times({&log});
  double outer_total = static_cast<double>(recs[0].end_ns - recs[0].start_ns);
  double inner_total = static_cast<double>(recs[1].end_ns - recs[1].start_ns);
  check(near(st["test.outer"].self_ns, outer_total - inner_total),
        "self time excludes children");
  check(st["test.inner"].calls == 1, "calls counted");
  SpanLog capped(0, 1);
  { Span a(&capped, outer); }
  { Span b(&capped, outer); }
  check(capped.records().size() == 1 && capped.dropped() == 1,
        "span log stops at its cap");
}

}  // namespace

int main() {
  test_seed_determinism();
  test_round_composition();
  test_patterns();
  test_stats();
  test_self_time();
  if (g_failures == 0) std::printf("nemobench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
