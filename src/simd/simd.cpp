// Kernel dispatch, CPUID feature detection, and the scalar baseline. The
// vector bodies live in simd_avx2.cpp / simd_avx512.cpp, each compiled
// with its own -m flag (CMake set_source_files_properties) so the rest of
// the library keeps the portable baseline ISA.
#include "simd/simd.hpp"

#include <stdexcept>
#include <string>

#include "simd/fold_inl.hpp"

namespace nemo::simd {

namespace {

#if defined(__GNUC__) && !defined(__clang__)
// "Scalar" means scalar: keep -O3's autovectorizer out of the baseline
// kernel so NEMO_SIMD=scalar measures the true one-lane fold. Results are
// bit-identical either way (vertical vectorization never reassociates);
// only the scalar-vs-vector throughput comparison needs this.
#define NEMO_SCALAR_CODEGEN __attribute__((optimize("no-tree-vectorize")))
#else
#define NEMO_SCALAR_CODEGEN
#endif

template <typename T>
NEMO_SCALAR_CODEGEN void fold_scalar(Op op, T* dst, const T* src,
                                     std::size_t n) {
  detail::fold_plain(op, dst, src, n);
}

#undef NEMO_SCALAR_CODEGEN

template <typename T>
void fold_impl(Kernel k, Op op, T* dst, const T* src, std::size_t n) {
  switch (k) {
    case Kernel::kAvx512:
      detail::fold_avx512(op, dst, src, n);
      return;
    case Kernel::kAvx2:
      detail::fold_avx2(op, dst, src, n);
      return;
    case Kernel::kScalar:
      break;
  }
  fold_scalar(op, dst, src, n);
}

}  // namespace

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kScalar:
      return "scalar";
    case Kernel::kAvx2:
      return "avx2";
    case Kernel::kAvx512:
      return "avx512";
  }
  return "?";
}

const char* choice_name(Choice c) {
  switch (c) {
    case Choice::kAuto:
      return "auto";
    case Choice::kScalar:
      return "scalar";
    case Choice::kAvx2:
      return "avx2";
    case Choice::kAvx512:
      return "avx512";
  }
  return "?";
}

bool kernel_supported(Kernel k) noexcept {
  switch (k) {
    case Kernel::kScalar:
      return true;
    case Kernel::kAvx2:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
      return detail::avx2_compiled() && __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Kernel::kAvx512:
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
      return detail::avx512_compiled() && __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

Kernel best_supported() noexcept {
  if (kernel_supported(Kernel::kAvx512)) return Kernel::kAvx512;
  if (kernel_supported(Kernel::kAvx2)) return Kernel::kAvx2;
  return Kernel::kScalar;
}

Choice choice_from_string(std::string_view s, const char* what) {
  if (s == "auto") return Choice::kAuto;
  if (s == "scalar") return Choice::kScalar;
  if (s == "avx2") return Choice::kAvx2;
  if (s == "avx512") return Choice::kAvx512;
  throw std::invalid_argument(std::string(what) + ": unknown simd kernel '" +
                              std::string(s) +
                              "' (want auto|scalar|avx2|avx512)");
}

Kernel resolve(Choice c) noexcept {
  switch (c) {
    case Choice::kAuto:
      return best_supported();
    case Choice::kScalar:
      return Kernel::kScalar;
    case Choice::kAvx2:
      return kernel_supported(Kernel::kAvx2) ? Kernel::kAvx2
                                             : Kernel::kScalar;
    case Choice::kAvx512:
      if (kernel_supported(Kernel::kAvx512)) return Kernel::kAvx512;
      return kernel_supported(Kernel::kAvx2) ? Kernel::kAvx2
                                             : Kernel::kScalar;
  }
  return Kernel::kScalar;
}

void fold(Kernel k, Op op, double* dst, const double* src, std::size_t n) {
  fold_impl(k, op, dst, src, n);
}

void fold(Kernel k, Op op, float* dst, const float* src, std::size_t n) {
  fold_impl(k, op, dst, src, n);
}

void fold(Kernel k, Op op, std::int64_t* dst, const std::int64_t* src,
          std::size_t n) {
  fold_impl(k, op, dst, src, n);
}

void fold(Kernel k, Op op, std::int32_t* dst, const std::int32_t* src,
          std::size_t n) {
  fold_impl(k, op, dst, src, n);
}

}  // namespace nemo::simd
