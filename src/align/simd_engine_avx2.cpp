// AVX2 implementations of the Ops vocabulary (simd_vec.hpp) and the
// intrinsic pass entry points (two score widths and the traced pass). This
// is the only translation unit compiled with -mavx2 (CMake per-source flag,
// gated by SALOBA_ENABLE_AVX2 and a compiler check); callers reach it only
// after align::simd::cpu_supports_avx2 passes at runtime. Keep this TU
// lean: with -mavx2 every function body here uses VEX encodings, so nothing
// defined here may be reachable from the generic path.
#if defined(SALOBA_SIMD_AVX2)

#include <immintrin.h>

#include <cstdint>

#include "align/simd_kernel.hpp"

namespace saloba::align::simd {
namespace {

/// 32 pairs per register, 8-bit saturating score lanes.
struct OpsU8Avx2 {
  using Elem = std::uint8_t;
  static constexpr int kLanes = 32;
  static constexpr int kSatMax = 255;
  static constexpr int kIdxHalves = 2;
  static constexpr int kIdxLanes = 16;
  using Vec = __m256i;
  using IVec = __m256i;

  static Vec zero() { return _mm256_setzero_si256(); }
  static Vec splat(Elem s) { return _mm256_set1_epi8(static_cast<char>(s)); }
  static Vec load(const Elem* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static Vec load_bases(const std::uint8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static Vec adds(Vec a, Vec b) { return _mm256_adds_epu8(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm256_subs_epu8(a, b); }
  static Vec maxu(Vec a, Vec b) { return _mm256_max_epu8(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm256_cmpeq_epi8(a, b); }
  static Vec cmpgt(Vec a, Vec b) {  // unsigned a > b: a == max(a,b) and a != b
    return _mm256_andnot_si256(_mm256_cmpeq_epi8(a, b),
                               _mm256_cmpeq_epi8(_mm256_max_epu8(a, b), a));
  }
  static Vec vand(Vec a, Vec b) { return _mm256_and_si256(a, b); }
  static Vec vor(Vec a, Vec b) { return _mm256_or_si256(a, b); }
  static Vec andnot(Vec mask, Vec v) { return _mm256_andnot_si256(mask, v); }
  static Vec blend(Vec mask, Vec a, Vec b) { return _mm256_blendv_epi8(b, a, mask); }
  static bool any(Vec m) { return _mm256_testz_si256(m, m) == 0; }
  static void store(Elem* dst, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
  }
  static void store_mask(std::uint8_t* dst, Vec m) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), m);  // 0xFF = set
  }

  static IVec izero() { return _mm256_setzero_si256(); }
  static IVec isplat(std::uint16_t s) { return _mm256_set1_epi16(static_cast<short>(s)); }
  static IVec iload(const std::uint16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void istore(std::uint16_t* dst, IVec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
  }
  static IVec icmpge(IVec a, IVec b) {  // unsigned a >= b
    return _mm256_cmpeq_epi16(_mm256_max_epu16(a, b), a);
  }
  static IVec iand(IVec a, IVec b) { return _mm256_and_si256(a, b); }
  static IVec iblend(IVec mask, IVec a, IVec b) { return _mm256_blendv_epi8(b, a, mask); }
  static IVec expand_mask(Vec m, int half) {
    const __m128i bytes =
        half == 0 ? _mm256_castsi256_si128(m) : _mm256_extracti128_si256(m, 1);
    return _mm256_cvtepi8_epi16(bytes);  // sign-extends 0xFF to 0xFFFF
  }
  static Vec compress_mask(IVec m0, IVec m1) {
    // packs interleaves 128-bit halves: [m0_lo m1_lo m0_hi m1_hi]; the
    // permute restores lane order [m0 m1]. Saturating signed pack maps
    // 0xFFFF (-1) to 0xFF and 0 to 0.
    return _mm256_permute4x64_epi64(_mm256_packs_epi16(m0, m1), 0xD8);
  }
};

/// 16 pairs per register, 16-bit saturating score lanes. Index domain and
/// DP domain coincide (both 16-bit), so mask expansion/compression are
/// identities.
struct OpsU16Avx2 {
  using Elem = std::uint16_t;
  static constexpr int kLanes = 16;
  static constexpr int kSatMax = 65535;
  static constexpr int kIdxHalves = 1;
  static constexpr int kIdxLanes = 16;
  using Vec = __m256i;
  using IVec = __m256i;

  static Vec zero() { return _mm256_setzero_si256(); }
  static Vec splat(Elem s) { return _mm256_set1_epi16(static_cast<short>(s)); }
  static Vec load(const Elem* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static Vec load_bases(const std::uint8_t* p) {  // widening: 16 codes -> 16 lanes
    return _mm256_cvtepu8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static Vec adds(Vec a, Vec b) { return _mm256_adds_epu16(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm256_subs_epu16(a, b); }
  static Vec maxu(Vec a, Vec b) { return _mm256_max_epu16(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm256_cmpeq_epi16(a, b); }
  static Vec cmpgt(Vec a, Vec b) {  // unsigned a > b
    return _mm256_andnot_si256(_mm256_cmpeq_epi16(a, b),
                               _mm256_cmpeq_epi16(_mm256_max_epu16(a, b), a));
  }
  static Vec vand(Vec a, Vec b) { return _mm256_and_si256(a, b); }
  static Vec vor(Vec a, Vec b) { return _mm256_or_si256(a, b); }
  static Vec andnot(Vec mask, Vec v) { return _mm256_andnot_si256(mask, v); }
  static Vec blend(Vec mask, Vec a, Vec b) { return _mm256_blendv_epi8(b, a, mask); }
  static bool any(Vec m) { return _mm256_testz_si256(m, m) == 0; }
  static void store(Elem* dst, Vec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
  }
  static void store_mask(std::uint8_t* dst, Vec m) {
    alignas(32) std::uint16_t tmp[kLanes];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(tmp), m);
    for (int k = 0; k < kLanes; ++k) dst[k] = tmp[k] ? 1 : 0;
  }
  static void store_codes(std::uint8_t* dst, Vec v) {
    // Codes fit a byte, so the unsigned-saturating pack is exact; it packs
    // per 128-bit half, and qwords 0 and 2 hold lanes 0-7 and 8-15.
    const __m256i packed = _mm256_permute4x64_epi64(_mm256_packus_epi16(v, v), 0x08);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm256_castsi256_si128(packed));
  }

  static IVec izero() { return _mm256_setzero_si256(); }
  static IVec isplat(std::uint16_t s) { return _mm256_set1_epi16(static_cast<short>(s)); }
  static IVec iload(const std::uint16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void istore(std::uint16_t* dst, IVec v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), v);
  }
  static IVec icmpge(IVec a, IVec b) {
    return _mm256_cmpeq_epi16(_mm256_max_epu16(a, b), a);
  }
  static IVec iand(IVec a, IVec b) { return _mm256_and_si256(a, b); }
  static IVec iblend(IVec mask, IVec a, IVec b) { return _mm256_blendv_epi8(b, a, mask); }
  static IVec expand_mask(Vec m, int /*half*/) { return m; }
  static Vec compress_mask(IVec m0, IVec /*m1*/) { return m0; }
};

}  // namespace

namespace detail {

void run_pass_u8_avx2(const PassRequest& req) { run_pass<OpsU8Avx2>(req); }
void run_pass_u16_avx2(const PassRequest& req) { run_pass<OpsU16Avx2>(req); }
void run_trace_pass_avx2(const TracePassRequest& req) { run_trace_pass<OpsU16Avx2>(req); }

}  // namespace detail
}  // namespace saloba::align::simd

#endif  // SALOBA_SIMD_AVX2
