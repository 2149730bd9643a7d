/**
 * @file
 * Portable SIMD abstraction for the statevector kernels: a split
 * (structure-of-arrays) complex vector type `CVec` holding kLanes
 * real parts and kLanes imaginary parts in separate hardware vectors,
 * with deinterleaving loads / interleaving stores from the library's
 * interleaved std::complex<double> statevectors, plus plain contiguous
 * loads / stores (loads / stores) for data that is already split into
 * separate re/im double arrays — the batched trajectory layout of
 * sim::BatchState.
 *
 * Backend selection is per translation unit: every kernels_<backend>.cc
 * stamp TU defines exactly one of
 *
 *   CRISC_SIMD_STAMP_SCALAR   portable scalar (kLanes == 1)
 *   CRISC_SIMD_STAMP_AVX2     AVX2, 4 lanes   (requires -mavx2)
 *   CRISC_SIMD_STAMP_AVX512   AVX-512F, 8 lanes (requires -mavx512f)
 *   CRISC_SIMD_STAMP_NEON     NEON, 2 lanes   (aarch64)
 *
 * before including this header (via kernels_impl.hh). All stamped
 * backends are compiled into the same binary and selected at runtime by
 * src/sim/dispatch.cc (CPU probe + CRISC_SIMD_DISPATCH override). A
 * stamp whose ISA the compiler has not enabled is a hard #error — never
 * a silent downgrade; CMake removes uncompilable stamp TUs from the
 * build (and rejects explicitly requested ones with FATAL_ERROR), so
 * hitting the #error means the build system and this header disagree.
 *
 * Numerical contract: every lane of every operation performs exactly
 * the same IEEE-754 double operations, in the same order, as the
 * scalar reference kernels (two multiplies and a subtract for the real
 * part of a complex product, two multiplies and an add for the
 * imaginary part; no fused multiply-add). Vectorized kernels are
 * therefore bit-identical to the scalar path for finite inputs — the
 * pinned Figure-7 regressions hold on every backend. Keep it that way:
 * do not introduce FMA or reassociation here without revisiting the
 * pinned tests, and compile every stamp TU with -ffp-contract=off.
 *
 * Besides kLanes / kBackendName / CVec and the arithmetic ops, each
 * backend exposes two traits the kernels branch on at compile time:
 *
 *   kNegIsSubFromZero  how neg() treats signed zero: the AVX2 and
 *                      AVX-512 backends compute 0 - x (mapping +0 to
 *                      +0), scalar and NEON flip the sign bit (+0 to
 *                      -0). The batched Pauli kernels replay the serial
 *                      kernel's flavour per backend (see negLikeSerial
 *                      in kernels_impl.hh).
 *   kMaskedTails       whether loadsTail / storesTail use mask
 *                      registers (AVX-512) so batched kernels can run
 *                      their batch % kLanes lane tails through the
 *                      vector body instead of a scalar remainder loop.
 *                      The generic fallback below is correct everywhere
 *                      but only profitable with real mask support.
 *
 * AVX2/AVX-512 lane order note: the deinterleaving load permutes lanes
 * (unpacklo/unpackhi yield element order 0,2,1,3 per 256-bit vector,
 * and the analogous per-128-bit-lane interleave on 512-bit vectors),
 * which is harmless — all CVec operations are elementwise, every CVec
 * in flight uses the same permutation, and the store applies the exact
 * inverse.
 */

#ifndef CRISC_SIM_SIMD_HH
#define CRISC_SIM_SIMD_HH

#include <complex>
#include <cstddef>

#if defined(CRISC_SIMD_STAMP_SCALAR) + defined(CRISC_SIMD_STAMP_AVX2) +     \
        defined(CRISC_SIMD_STAMP_AVX512) + defined(CRISC_SIMD_STAMP_NEON) !=\
    1
#error "simd.hh: define exactly one CRISC_SIMD_STAMP_* before including"
#endif

#if defined(CRISC_SIMD_STAMP_AVX2) && !defined(__AVX2__)
#error "simd.hh: CRISC_SIMD_STAMP_AVX2 requires -mavx2 (build system bug)"
#endif
#if defined(CRISC_SIMD_STAMP_AVX512) && !defined(__AVX512F__)
#error "simd.hh: CRISC_SIMD_STAMP_AVX512 requires -mavx512f (build system bug)"
#endif
#if defined(CRISC_SIMD_STAMP_NEON) &&                                       \
    !(defined(__ARM_NEON) || defined(__aarch64__))
#error "simd.hh: CRISC_SIMD_STAMP_NEON requires an ARM NEON target"
#endif

#if defined(CRISC_SIMD_STAMP_AVX2) || defined(CRISC_SIMD_STAMP_AVX512)
#include <immintrin.h>
#elif defined(CRISC_SIMD_STAMP_NEON)
#include <arm_neon.h>
#endif

namespace crisc {
namespace sim {
namespace simd {

#if defined(CRISC_SIMD_STAMP_AVX2)

inline constexpr std::size_t kLanes = 4;
inline constexpr const char *kBackendName = "avx2";
inline constexpr bool kNegIsSubFromZero = true;
inline constexpr bool kMaskedTails = false;

/** kLanes complex doubles in split (SoA) form. */
struct CVec
{
    __m256d re;
    __m256d im;
};

/** Deinterleaving load of kLanes consecutive complex amplitudes. */
inline CVec
loadc(const std::complex<double> *p)
{
    const double *d = reinterpret_cast<const double *>(p);
    const __m256d lo = _mm256_loadu_pd(d);     // r0 i0 r1 i1
    const __m256d hi = _mm256_loadu_pd(d + 4); // r2 i2 r3 i3
    return {_mm256_unpacklo_pd(lo, hi),        // r0 r2 r1 r3
            _mm256_unpackhi_pd(lo, hi)};       // i0 i2 i1 i3
}

/** Interleaving store; exact inverse of loadc's permutation. */
inline void
storec(std::complex<double> *p, CVec a)
{
    double *d = reinterpret_cast<double *>(p);
    _mm256_storeu_pd(d, _mm256_unpacklo_pd(a.re, a.im));
    _mm256_storeu_pd(d + 4, _mm256_unpackhi_pd(a.re, a.im));
}

/** Load of kLanes already-split amplitudes (no permutation). */
inline CVec
loads(const double *re, const double *im)
{
    return {_mm256_loadu_pd(re), _mm256_loadu_pd(im)};
}

/** Store of kLanes already-split amplitudes; inverse of loads. */
inline void
stores(double *re, double *im, CVec a)
{
    _mm256_storeu_pd(re, a.re);
    _mm256_storeu_pd(im, a.im);
}

inline CVec
broadcast(std::complex<double> c)
{
    return {_mm256_set1_pd(c.real()), _mm256_set1_pd(c.imag())};
}

inline CVec
add(CVec a, CVec b)
{
    return {_mm256_add_pd(a.re, b.re), _mm256_add_pd(a.im, b.im)};
}

inline CVec
neg(CVec a)
{
    const __m256d zero = _mm256_setzero_pd();
    return {_mm256_sub_pd(zero, a.re), _mm256_sub_pd(zero, a.im)};
}

/** Complex product, scalar operation order: (ar*br - ai*bi, ar*bi + ai*br). */
inline CVec
mul(CVec a, CVec b)
{
    return {_mm256_sub_pd(_mm256_mul_pd(a.re, b.re),
                          _mm256_mul_pd(a.im, b.im)),
            _mm256_add_pd(_mm256_mul_pd(a.re, b.im),
                          _mm256_mul_pd(a.im, b.re))};
}

/** Multiplication by -i: (re, im) -> (im, -re). */
inline CVec
mulNegI(CVec a)
{
    return {a.im, _mm256_sub_pd(_mm256_setzero_pd(), a.re)};
}

/** Multiplication by +i: (re, im) -> (-im, re). */
inline CVec
mulPosI(CVec a)
{
    return {_mm256_sub_pd(_mm256_setzero_pd(), a.im), a.re};
}

#elif defined(CRISC_SIMD_STAMP_AVX512)

inline constexpr std::size_t kLanes = 8;
inline constexpr const char *kBackendName = "avx512";
inline constexpr bool kNegIsSubFromZero = true;
inline constexpr bool kMaskedTails = true;

struct CVec
{
    __m512d re;
    __m512d im;
};

/** Deinterleaving load: two-source permutes gather the even (real)
 *  and odd (imaginary) doubles of 8 amplitudes in element order
 *  0..7; storec applies the exact inverse. */
inline CVec
loadc(const std::complex<double> *p)
{
    const double *d = reinterpret_cast<const double *>(p);
    const __m512d lo = _mm512_loadu_pd(d);     // r0 i0 .. r3 i3
    const __m512d hi = _mm512_loadu_pd(d + 8); // r4 i4 .. r7 i7
    const __m512i even = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
    const __m512i odd = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
    return {_mm512_permutex2var_pd(lo, even, hi),  // r0 r1 .. r7
            _mm512_permutex2var_pd(lo, odd, hi)};  // i0 i1 .. i7
}

inline void
storec(std::complex<double> *p, CVec a)
{
    double *d = reinterpret_cast<double *>(p);
    const __m512i first = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
    const __m512i second = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
    _mm512_storeu_pd(d, _mm512_permutex2var_pd(a.re, first, a.im));
    _mm512_storeu_pd(d + 8, _mm512_permutex2var_pd(a.re, second, a.im));
}

inline CVec
loads(const double *re, const double *im)
{
    return {_mm512_loadu_pd(re), _mm512_loadu_pd(im)};
}

inline void
stores(double *re, double *im, CVec a)
{
    _mm512_storeu_pd(re, a.re);
    _mm512_storeu_pd(im, a.im);
}

/** Mask-register tail load of @p count < kLanes split amplitudes;
 *  masked-off lanes read as zero and are never stored back. */
inline CVec
loadsTail(const double *re, const double *im, std::size_t count)
{
    const __mmask8 k = static_cast<__mmask8>((1u << count) - 1u);
    return {_mm512_maskz_loadu_pd(k, re), _mm512_maskz_loadu_pd(k, im)};
}

inline void
storesTail(double *re, double *im, CVec a, std::size_t count)
{
    const __mmask8 k = static_cast<__mmask8>((1u << count) - 1u);
    _mm512_mask_storeu_pd(re, k, a.re);
    _mm512_mask_storeu_pd(im, k, a.im);
}

inline CVec
broadcast(std::complex<double> c)
{
    return {_mm512_set1_pd(c.real()), _mm512_set1_pd(c.imag())};
}

inline CVec
add(CVec a, CVec b)
{
    return {_mm512_add_pd(a.re, b.re), _mm512_add_pd(a.im, b.im)};
}

/** 0 - x like the AVX2 backend (maps +0 to +0); see kNegIsSubFromZero. */
inline CVec
neg(CVec a)
{
    const __m512d zero = _mm512_setzero_pd();
    return {_mm512_sub_pd(zero, a.re), _mm512_sub_pd(zero, a.im)};
}

inline CVec
mul(CVec a, CVec b)
{
    return {_mm512_sub_pd(_mm512_mul_pd(a.re, b.re),
                          _mm512_mul_pd(a.im, b.im)),
            _mm512_add_pd(_mm512_mul_pd(a.re, b.im),
                          _mm512_mul_pd(a.im, b.re))};
}

inline CVec
mulNegI(CVec a)
{
    return {a.im, _mm512_sub_pd(_mm512_setzero_pd(), a.re)};
}

inline CVec
mulPosI(CVec a)
{
    return {_mm512_sub_pd(_mm512_setzero_pd(), a.im), a.re};
}

#elif defined(CRISC_SIMD_STAMP_NEON)

inline constexpr std::size_t kLanes = 2;
inline constexpr const char *kBackendName = "neon";
inline constexpr bool kNegIsSubFromZero = false;
inline constexpr bool kMaskedTails = false;

struct CVec
{
    float64x2_t re;
    float64x2_t im;
};

inline CVec
loadc(const std::complex<double> *p)
{
    const float64x2x2_t v =
        vld2q_f64(reinterpret_cast<const double *>(p));
    return {v.val[0], v.val[1]};
}

inline void
storec(std::complex<double> *p, CVec a)
{
    float64x2x2_t v;
    v.val[0] = a.re;
    v.val[1] = a.im;
    vst2q_f64(reinterpret_cast<double *>(p), v);
}

inline CVec
loads(const double *re, const double *im)
{
    return {vld1q_f64(re), vld1q_f64(im)};
}

inline void
stores(double *re, double *im, CVec a)
{
    vst1q_f64(re, a.re);
    vst1q_f64(im, a.im);
}

inline CVec
broadcast(std::complex<double> c)
{
    return {vdupq_n_f64(c.real()), vdupq_n_f64(c.imag())};
}

inline CVec
add(CVec a, CVec b)
{
    return {vaddq_f64(a.re, b.re), vaddq_f64(a.im, b.im)};
}

inline CVec
neg(CVec a)
{
    return {vnegq_f64(a.re), vnegq_f64(a.im)};
}

inline CVec
mul(CVec a, CVec b)
{
    return {vsubq_f64(vmulq_f64(a.re, b.re), vmulq_f64(a.im, b.im)),
            vaddq_f64(vmulq_f64(a.re, b.im), vmulq_f64(a.im, b.re))};
}

inline CVec
mulNegI(CVec a)
{
    return {a.im, vnegq_f64(a.re)};
}

inline CVec
mulPosI(CVec a)
{
    return {vnegq_f64(a.im), a.re};
}

#else // CRISC_SIMD_STAMP_SCALAR

inline constexpr std::size_t kLanes = 1;
inline constexpr const char *kBackendName = "scalar";
inline constexpr bool kNegIsSubFromZero = false;
inline constexpr bool kMaskedTails = false;

struct CVec
{
    double re;
    double im;
};

inline CVec
loadc(const std::complex<double> *p)
{
    return {p->real(), p->imag()};
}

inline void
storec(std::complex<double> *p, CVec a)
{
    *p = {a.re, a.im};
}

inline CVec
loads(const double *re, const double *im)
{
    return {*re, *im};
}

inline void
stores(double *re, double *im, CVec a)
{
    *re = a.re;
    *im = a.im;
}

inline CVec
broadcast(std::complex<double> c)
{
    return {c.real(), c.imag()};
}

inline CVec
add(CVec a, CVec b)
{
    return {a.re + b.re, a.im + b.im};
}

inline CVec
neg(CVec a)
{
    return {-a.re, -a.im};
}

inline CVec
mul(CVec a, CVec b)
{
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

inline CVec
mulNegI(CVec a)
{
    return {a.im, -a.re};
}

inline CVec
mulPosI(CVec a)
{
    return {-a.im, a.re};
}

#endif

#if !defined(CRISC_SIMD_STAMP_AVX512)

/**
 * Generic tail load/store for backends without mask registers: buffer
 * through a stack array so the vector ops see zeros in the unused
 * lanes. Correct everywhere (active lanes run the exact vector-body
 * operation sequence) but only called when a kernel chooses the masked
 * tail path, which is gated on kMaskedTails — these exist so that
 * branch compiles on every backend.
 */
inline CVec
loadsTail(const double *re, const double *im, std::size_t count)
{
    double bufRe[kLanes] = {};
    double bufIm[kLanes] = {};
    for (std::size_t i = 0; i < count; ++i) {
        bufRe[i] = re[i];
        bufIm[i] = im[i];
    }
    return loads(bufRe, bufIm);
}

inline void
storesTail(double *re, double *im, CVec a, std::size_t count)
{
    double bufRe[kLanes];
    double bufIm[kLanes];
    stores(bufRe, bufIm, a);
    for (std::size_t i = 0; i < count; ++i) {
        re[i] = bufRe[i];
        im[i] = bufIm[i];
    }
}

#endif

} // namespace simd
} // namespace sim
} // namespace crisc

#endif // CRISC_SIM_SIMD_HH
