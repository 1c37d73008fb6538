// The vectorized fold kernels' bit-identity contract: every kernel x op x
// dtype, over lengths that straddle the vector width and bases that are
// deliberately misaligned, must produce byte-for-byte the scalar oracle's
// result — including NaN and signed-zero propagation for floats, where the
// (dst, src) operand-order convention does the work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/comm.hpp"
#include "core/knobs.hpp"
#include "simd/simd.hpp"

namespace nemo::simd {
namespace {

constexpr Op kOps[] = {Op::kSum, Op::kProd, Op::kMin, Op::kMax};
constexpr Kernel kKernels[] = {Kernel::kScalar, Kernel::kAvx2,
                               Kernel::kAvx512};

// Lengths straddling the 4/8/16-lane widths plus their +-1 neighbours and
// a couple of sizes big enough to run many full vectors.
constexpr std::size_t kLens[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                                 15, 16, 17, 31, 33, 100, 1027};

// Deterministic value streams with sign changes, repeats (min/max ties),
// and magnitude spread (prod overflow wraps for ints; fine — wrapping is
// identical in scalar and vector lanes).
template <typename T>
std::vector<T> pattern(std::size_t n, unsigned seed) {
  std::vector<T> v(n);
  std::uint64_t x = 0x9e3779b97f4a7c15ull * (seed + 1);
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if constexpr (std::is_floating_point_v<T>) {
      v[i] = static_cast<T>(static_cast<std::int64_t>(x % 2001) - 1000) /
             static_cast<T>(7);
    } else {
      v[i] = static_cast<T>(x % 2001) - static_cast<T>(1000);
    }
  }
  return v;
}

// Run the kernel on a misaligned copy of the inputs and compare bytes
// against the scalar oracle. kOffset elements shift the base off the
// vector alignment so the unaligned-load path is always exercised.
template <typename T>
void check_fold(Kernel k, Op op, std::size_t n, unsigned seed) {
  constexpr std::size_t kOffset = 1;  // Element offset: 4 or 8 bytes.
  std::vector<T> dst_store(n + kOffset), src_store(n + kOffset);
  auto d0 = pattern<T>(n, seed);
  auto s0 = pattern<T>(n, seed + 17);

  std::vector<T> oracle = d0;
  fold(Kernel::kScalar, op, oracle.data(), s0.data(), n);

  std::copy(d0.begin(), d0.end(), dst_store.begin() + kOffset);
  std::copy(s0.begin(), s0.end(), src_store.begin() + kOffset);
  fold(k, op, dst_store.data() + kOffset, src_store.data() + kOffset, n);

  // n == 0 leaves `oracle` empty with a null data(), which memcmp must
  // not see even for a zero length.
  if (n == 0) return;
  ASSERT_EQ(std::memcmp(dst_store.data() + kOffset, oracle.data(),
                        n * sizeof(T)),
            0)
      << kernel_name(k) << " op=" << static_cast<int>(op) << " n=" << n
      << " dtype-size=" << sizeof(T);
}

TEST(SimdFold, BitIdentityMatrix) {
  for (Kernel k : kKernels) {
    if (!kernel_supported(k)) continue;
    for (Op op : kOps) {
      unsigned seed = 0;
      for (std::size_t n : kLens) {
        ++seed;
        check_fold<double>(k, op, n, seed);
        check_fold<float>(k, op, n, seed);
        check_fold<std::int64_t>(k, op, n, seed);
        check_fold<std::int32_t>(k, op, n, seed);
      }
    }
  }
}

TEST(SimdFold, FloatSpecialsMatchScalarTernary) {
  // NaN and signed zero land differently depending on operand order; the
  // kernels promise the scalar ternary's behaviour (second operand wins on
  // ties and unordered compares).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials_d[] = {nan, 0.0,  -0.0, 1.0, nan, -1.0,
                               2.0, -0.0, 0.0,  nan, 5.0, nan};
  const double specials_s[] = {1.0, -0.0, 0.0, nan,  nan, nan,
                               2.0, 0.0,  0.0, -3.0, nan, nan};
  constexpr std::size_t kN = sizeof(specials_d) / sizeof(specials_d[0]);
  for (Kernel k : kKernels) {
    if (!kernel_supported(k)) continue;
    for (Op op : {Op::kMin, Op::kMax, Op::kSum}) {
      double oracle[kN], got[kN], src[kN];
      std::memcpy(oracle, specials_d, sizeof(specials_d));
      std::memcpy(got, specials_d, sizeof(specials_d));
      std::memcpy(src, specials_s, sizeof(specials_s));
      fold(Kernel::kScalar, op, oracle, src, kN);
      fold(k, op, got, src, kN);
      EXPECT_EQ(std::memcmp(got, oracle, sizeof(got)), 0)
          << kernel_name(k) << " op=" << static_cast<int>(op);
    }
  }
}

TEST(SimdDispatch, BestSupportedIsSupported) {
  EXPECT_TRUE(kernel_supported(best_supported()));
  EXPECT_TRUE(kernel_supported(Kernel::kScalar));
}

TEST(SimdDispatch, ResolveDegradesToSupported) {
  EXPECT_EQ(resolve(Choice::kAuto), best_supported());
  EXPECT_EQ(resolve(Choice::kScalar), Kernel::kScalar);
  // Forcing a wider kernel never resolves to something unsupported.
  EXPECT_TRUE(kernel_supported(resolve(Choice::kAvx2)));
  EXPECT_TRUE(kernel_supported(resolve(Choice::kAvx512)));
}

TEST(SimdDispatch, ChoiceParsing) {
  EXPECT_EQ(choice_from_string("auto", "t"), Choice::kAuto);
  EXPECT_EQ(choice_from_string("scalar", "t"), Choice::kScalar);
  EXPECT_EQ(choice_from_string("avx2", "t"), Choice::kAvx2);
  EXPECT_EQ(choice_from_string("avx512", "t"), Choice::kAvx512);
  EXPECT_THROW(choice_from_string("sse9", "t"), std::invalid_argument);
  EXPECT_THROW(choice_from_string("", "t"), std::invalid_argument);
}

TEST(SimdDispatch, PinBeatsTable) {
  core::Config cfg;
  cfg.tuning = tune::TuningTable{};
  cfg.tuning->simd_kernel = Choice::kAvx2;
  cfg.env["NEMO_SIMD"] = "scalar";
  EXPECT_EQ(core::resolve_config(cfg).tuning->simd_kernel, Choice::kScalar);
  cfg.env["NEMO_SIMD"] = "typo";
  EXPECT_THROW(core::resolve_config(cfg), std::invalid_argument);
  // The table choice resolves against CPUID.
  EXPECT_EQ(resolve(Choice::kScalar), Kernel::kScalar);
  EXPECT_EQ(resolve(Choice::kAuto), best_supported());
}

TEST(SimdDispatch, Names) {
  EXPECT_STREQ(kernel_name(Kernel::kScalar), "scalar");
  EXPECT_STREQ(kernel_name(Kernel::kAvx2), "avx2");
  EXPECT_STREQ(kernel_name(Kernel::kAvx512), "avx512");
  EXPECT_STREQ(choice_name(Choice::kAuto), "auto");
}

}  // namespace
}  // namespace nemo::simd
