// Runtime-dispatched vectorized reduction kernels — the compute half of the
// collectives (the copy half lives in shm/nt_copy). Every kernel performs
// the same element-wise vertical fold dst[i] = op(dst[i], src[i]); there is
// no horizontal reassociation, so results are bit-identical to the scalar
// loop for every dtype including floating point, and the collectives' fixed
// ascending-rank fold order is preserved no matter which kernel the
// dispatcher picks.
//
// Dispatch order is AVX-512 -> AVX2 -> scalar, decided once per Engine from
// CPUID (__builtin_cpu_supports) and overridable via the tuning table's
// simd_kernel row or the NEMO_SIMD environment knob.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace nemo::simd {

/// Concrete instruction sets a fold can run on, in ascending preference.
/// Values are dense so telemetry can index histograms by kernel.
enum class Kernel : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kKernelCount = 3;

/// A tuning-table / user selection: a concrete kernel, or defer to CPUID.
enum class Choice : std::uint8_t { kAuto = 0, kScalar, kAvx2, kAvx512 };

/// Element-wise combine. Semantics match core::Comm::ReduceOp: sum a+b,
/// prod a*b, min a<b?a:b, max a>b?a:b — including the ternary's NaN and
/// signed-zero behaviour, which the vector min/max instructions reproduce
/// exactly when called with (dst, src) operand order.
enum class Op : std::uint8_t { kSum = 0, kProd, kMin, kMax };

const char* kernel_name(Kernel k);
const char* choice_name(Choice c);

/// Compiled into this binary and advertised by CPUID on this machine.
bool kernel_supported(Kernel k) noexcept;

/// The widest supported kernel (AVX-512 -> AVX2 -> scalar).
Kernel best_supported() noexcept;

/// Parse "auto|scalar|avx2|avx512". Throws std::invalid_argument on
/// anything else, naming `what` (the knob or field) in the message.
Choice choice_from_string(std::string_view s, const char* what);

/// Resolve a selection to a runnable kernel: kAuto takes best_supported();
/// a forced kernel this machine cannot run degrades to the widest supported
/// one below it.
Kernel resolve(Choice c) noexcept;

// dst[i] = op(dst[i], src[i]) for i in [0, n). Unaligned bases and tails
// are handled inside (unaligned vector loads plus a scalar remainder loop).
void fold(Kernel k, Op op, double* dst, const double* src, std::size_t n);
void fold(Kernel k, Op op, float* dst, const float* src, std::size_t n);
void fold(Kernel k, Op op, std::int64_t* dst, const std::int64_t* src,
          std::size_t n);
void fold(Kernel k, Op op, std::int32_t* dst, const std::int32_t* src,
          std::size_t n);

namespace detail {

// Per-ISA entry points, defined in simd_avx2.cpp / simd_avx512.cpp (each
// built with the matching -m flag when the compiler can target the ISA;
// otherwise every entry point falls back to the plain loop and
// *_compiled() reports the gap so dispatch never selects the kernel).
bool avx2_compiled() noexcept;
bool avx512_compiled() noexcept;

void fold_avx2(Op op, double* dst, const double* src, std::size_t n);
void fold_avx2(Op op, float* dst, const float* src, std::size_t n);
void fold_avx2(Op op, std::int64_t* dst, const std::int64_t* src,
               std::size_t n);
void fold_avx2(Op op, std::int32_t* dst, const std::int32_t* src,
               std::size_t n);

void fold_avx512(Op op, double* dst, const double* src, std::size_t n);
void fold_avx512(Op op, float* dst, const float* src, std::size_t n);
void fold_avx512(Op op, std::int64_t* dst, const std::int64_t* src,
                 std::size_t n);
void fold_avx512(Op op, std::int32_t* dst, const std::int32_t* src,
                 std::size_t n);

}  // namespace detail

}  // namespace nemo::simd
