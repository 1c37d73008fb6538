// Seeded workload generation: every op order, message size and payload the
// benchmark hands the runtime is a pure function of (seed, position), so two
// runs with one seed drive the program with identical inputs and ranks can
// regenerate each other's payloads to check them.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace nemobench {

inline constexpr std::size_t kKiB = 1024;
inline constexpr std::size_t kMiB = 1024 * kKiB;

/// SplitMix64 finaliser: a strong 64-bit mix, used both as the generator
/// step and to derive independent streams from (seed, position) keys.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline std::uint64_t key(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ mix64(b));
}
inline std::uint64_t key(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return key(key(a, b), c);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() { return mix64(s_++); }
  /// Uniform in [0, n) (n > 0; modulo bias is irrelevant at these n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Fisher-Yates with the benchmark's generator.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

// --- pingpong -------------------------------------------------------------

/// One message size per protocol regime of the pt2pt path (see README.md):
/// fastbox, cell-queue eager, rendezvous handshake, LMT copy inside the LLC,
/// LMT copy beyond half the LLC.
inline constexpr std::array<std::size_t, 5> kPingpongSizes = {
    8, 4 * kKiB, 64 * kKiB, 4 * kMiB, 64 * kMiB};

/// Round trips of each size per round. Weighted so each size gets enough
/// samples for a steady median in a few seconds (a 64 MiB round trip costs
/// ~40 ms, an 8 B one ~1.5 us).
inline constexpr std::array<std::size_t, 5> kPingpongPerRound = {1000, 400, 150,
                                                                 12, 1};

/// Round `round` of a pingpong run: each size repeated per its weight, in
/// seeded order. `sizes` restricts the run to a subset (empty = all).
inline std::vector<std::size_t> pingpong_round(
    std::uint64_t seed, std::uint64_t round,
    const std::vector<std::size_t>& sizes = {}) {
  std::vector<std::size_t> ops;
  for (std::size_t i = 0; i < kPingpongSizes.size(); ++i) {
    std::size_t s = kPingpongSizes[i];
    if (!sizes.empty() && std::find(sizes.begin(), sizes.end(), s) == sizes.end())
      continue;
    ops.insert(ops.end(), kPingpongPerRound[i], s);
  }
  Rng rng(key(seed, 0x70696e67ull, round));
  shuffle(ops, rng);
  return ops;
}

// --- fanin ----------------------------------------------------------------

/// Producer ranks (1..kFaninProducers) feeding rank 0. Two, not three: with
/// four spinning ranks on a 4-core host the window time flips between two
/// levels ~30% apart for seconds at a time, and its median with it; a
/// three-rank world stays on one level.
inline constexpr int kFaninProducers = 2;

/// Messages each producer sends per window; rank 0 preposts all producers'
/// windows (2 x 48 = 96 wildcard receives).
inline constexpr int kFaninWindow = 48;
inline constexpr std::size_t kFaninMinBytes = 8;
inline constexpr std::size_t kFaninMaxBytes = 64;

/// Size of producer `src`'s message number `idx` (its own stream order).
inline std::size_t fanin_size(std::uint64_t seed, int src, std::uint64_t idx) {
  return kFaninMinBytes +
         key(seed, 0x66616e69ull + static_cast<std::uint64_t>(src), idx) %
             (kFaninMaxBytes - kFaninMinBytes + 1);
}

// --- collectives ----------------------------------------------------------

enum class CollOp : std::uint8_t {
  kBarrier = 0,
  kAllreduce8B,
  kAllreduce1MiB,
  kAlltoall4KiB,
  kAlltoall64KiB,
  kBcast256KiB,
};
inline constexpr int kCollOps = 6;

inline const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kBarrier: return "barrier";
    case CollOp::kAllreduce8B: return "allreduce_8B";
    case CollOp::kAllreduce1MiB: return "allreduce_1MiB";
    case CollOp::kAlltoall4KiB: return "alltoall_4KiB";
    case CollOp::kAlltoall64KiB: return "alltoall_64KiB";
    case CollOp::kBcast256KiB: return "bcast_256KiB";
  }
  return "?";
}

/// Operand bytes: allreduce vector, alltoall block per pair, bcast buffer.
inline std::size_t coll_op_bytes(CollOp op) {
  switch (op) {
    case CollOp::kBarrier: return 0;
    case CollOp::kAllreduce8B: return 8;
    case CollOp::kAllreduce1MiB: return 1 * kMiB;
    case CollOp::kAlltoall4KiB: return 4 * kKiB;
    case CollOp::kAlltoall64KiB: return 64 * kKiB;
    case CollOp::kBcast256KiB: return 256 * kKiB;
  }
  return 0;
}

/// Calls of each op per round, weighted like kPingpongPerRound.
inline constexpr std::array<std::size_t, kCollOps> kCollPerRound = {
    200, 200, 6, 60, 40, 30};

inline std::vector<CollOp> collectives_round(std::uint64_t seed,
                                             std::uint64_t round) {
  std::vector<CollOp> ops;
  for (int i = 0; i < kCollOps; ++i)
    ops.insert(ops.end(), kCollPerRound[static_cast<std::size_t>(i)],
               static_cast<CollOp>(i));
  Rng rng(key(seed, 0x636f6c6cull, round));
  shuffle(ops, rng);
  return ops;
}

// --- payloads ---------------------------------------------------------------

/// Fill `n` bytes with the pattern named by `k`: 64-bit words k + i * odd,
/// so any dropped, duplicated, shifted or stale (other-key) word shows.
inline void fill_pattern(void* dst, std::size_t n, std::uint64_t k) {
  auto* p = static_cast<unsigned char*>(dst);
  std::size_t words = n / 8;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t v = k + i * 0x9E3779B97F4A7C15ull;
    std::memcpy(p + i * 8, &v, 8);
  }
  std::uint64_t tail = k + words * 0x9E3779B97F4A7C15ull;
  std::memcpy(p + words * 8, &tail, n % 8);
}

inline bool check_pattern(const void* src, std::size_t n, std::uint64_t k) {
  const auto* p = static_cast<const unsigned char*>(src);
  std::size_t words = n / 8;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t v;
    std::memcpy(&v, p + i * 8, 8);
    bad |= v ^ (k + i * 0x9E3779B97F4A7C15ull);
  }
  std::uint64_t tail = k + words * 0x9E3779B97F4A7C15ull;
  return bad == 0 && std::memcmp(p + words * 8, &tail, n % 8) == 0;
}

/// Allreduce operands are small integer-valued doubles, so the sum over
/// ranks is exact whatever order the fold runs in. Element i of a rank's
/// operand is its block base (one per kAllreduceBlock elements, which keeps
/// generating and checking 1 MiB operands cheap) plus i % kAllreduceBlock.
inline constexpr std::size_t kAllreduceBlock = 16;

inline double allreduce_base(std::uint64_t k, int rank, std::size_t block) {
  return static_cast<double>(key(k, static_cast<std::uint64_t>(rank), block) %
                             4096);
}

}  // namespace nemobench
