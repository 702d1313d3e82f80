/**
 * @file
 * AVX2 probe kernels. Compiled with -mavx2 via per-file CMake flags;
 * only reachable through the backend dispatch table after a runtime
 * __builtin_cpu_supports("avx2") check.
 *
 * Bit-identity notes (each pinned by Backend golden tests + BackendFuzz):
 *  - BDI: fitsSigned(v, d) <=> ((v + 2^(8d-1)) & ~(2^(8d)-1)) == 0 in
 *    the block's modular arithmetic, so a layout scan is two masked
 *    compare passes (immediates, then deltas against the first
 *    non-immediate base). Lane subtraction wraps exactly like the
 *    scalar signExtend(raw - base, 8 * BaseBytes). B2D1 (the 592-bit
 *    last resort, 16-bit lanes) stays scalar.
 *  - FPC: folded values are always non-negative, so signed lane
 *    compares reproduce the scalar unsigned thresholds; the wide-class
 *    blends apply in the scalar code's inverted priority order and the
 *    zero-run fixup loop is byte-for-byte the scalar one.
 */

#include <immintrin.h>

#include <bit>

#include "common/bit_utils.hh"
#include "compress/simd/kernels.hh"

namespace latte::simd::avx2
{

namespace
{

inline __m256i
loadVec(const std::uint8_t *line, unsigned i)
{
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(line) + i);
}

inline bool
allZero(const std::uint8_t *line)
{
    const __m256i acc = _mm256_or_si256(
        _mm256_or_si256(loadVec(line, 0), loadVec(line, 1)),
        _mm256_or_si256(loadVec(line, 2), loadVec(line, 3)));
    return _mm256_testz_si256(acc, acc);
}

inline bool
repeated8(const std::uint8_t *line)
{
    const __m256i first =
        _mm256_set1_epi64x(static_cast<long long>(loadLe(line, 8)));
    __m256i acc = _mm256_setzero_si256();
    for (unsigned i = 0; i < 4; ++i)
        acc = _mm256_or_si256(acc,
                              _mm256_xor_si256(loadVec(line, i), first));
    return _mm256_testz_si256(acc, acc);
}

/** 8-byte-base layouts: 16 blocks as 4 vectors of 4 qword lanes. */
template <unsigned DeltaBytes>
inline bool
layoutFitsB8(const std::uint8_t *line)
{
    const __m256i bias =
        _mm256_set1_epi64x(std::int64_t{1} << (8 * DeltaBytes - 1));
    const __m256i himask = _mm256_set1_epi64x(static_cast<long long>(
        ~((std::uint64_t{1} << (8 * DeltaBytes)) - 1)));
    const __m256i zero = _mm256_setzero_si256();

    __m256i v[4];
    unsigned imm_mask = 0;
    for (unsigned k = 0; k < 4; ++k) {
        v[k] = loadVec(line, k);
        const __m256i t =
            _mm256_and_si256(_mm256_add_epi64(v[k], bias), himask);
        const __m256i ok = _mm256_cmpeq_epi64(t, zero);
        imm_mask |= static_cast<unsigned>(_mm256_movemask_pd(
                        _mm256_castsi256_pd(ok)))
                    << (4 * k);
    }
    if (imm_mask == 0xffffu)
        return true;

    const unsigned base_idx = std::countr_zero(~imm_mask & 0xffffu);
    const __m256i base = _mm256_set1_epi64x(
        static_cast<long long>(loadLe(line + 8 * base_idx, 8)));
    unsigned ok_mask = imm_mask;
    for (unsigned k = 0; k < 4; ++k) {
        const __m256i t = _mm256_and_si256(
            _mm256_add_epi64(_mm256_sub_epi64(v[k], base), bias), himask);
        const __m256i ok = _mm256_cmpeq_epi64(t, zero);
        ok_mask |= static_cast<unsigned>(_mm256_movemask_pd(
                       _mm256_castsi256_pd(ok)))
                   << (4 * k);
    }
    return ok_mask == 0xffffu;
}

/** 4-byte-base layouts: 32 blocks as 4 vectors of 8 dword lanes. */
template <unsigned DeltaBytes>
inline bool
layoutFitsB4(const std::uint8_t *line)
{
    const __m256i bias = _mm256_set1_epi32(1 << (8 * DeltaBytes - 1));
    const __m256i himask = _mm256_set1_epi32(
        static_cast<int>(~((1u << (8 * DeltaBytes)) - 1)));
    const __m256i zero = _mm256_setzero_si256();

    __m256i v[4];
    std::uint32_t imm_mask = 0;
    for (unsigned k = 0; k < 4; ++k) {
        v[k] = loadVec(line, k);
        const __m256i t =
            _mm256_and_si256(_mm256_add_epi32(v[k], bias), himask);
        const __m256i ok = _mm256_cmpeq_epi32(t, zero);
        imm_mask |= static_cast<std::uint32_t>(_mm256_movemask_ps(
                        _mm256_castsi256_ps(ok)))
                    << (8 * k);
    }
    if (imm_mask == 0xffffffffu)
        return true;

    const unsigned base_idx = std::countr_zero(~imm_mask);
    const __m256i base = _mm256_set1_epi32(
        static_cast<int>(loadLe(line + 4 * base_idx, 4)));
    std::uint32_t ok_mask = imm_mask;
    for (unsigned k = 0; k < 4; ++k) {
        const __m256i t = _mm256_and_si256(
            _mm256_add_epi32(_mm256_sub_epi32(v[k], base), bias), himask);
        const __m256i ok = _mm256_cmpeq_epi32(t, zero);
        ok_mask |= static_cast<std::uint32_t>(_mm256_movemask_ps(
                       _mm256_castsi256_ps(ok)))
                   << (8 * k);
    }
    return ok_mask == 0xffffffffu;
}

} // namespace

BdiScanResult
bdiScan(const std::uint8_t *line)
{
    if (allZero(line))
        return {BdiCompressor::kEncZeros, 8};
    if (repeated8(line))
        return {BdiCompressor::kEncRep8, 64};

    // Same first-fit order as the scalar scan (ascending size, ties to
    // the earlier probe).
    if (layoutFitsB8<1>(line))
        return {BdiCompressor::kEncB8D1, bdiSizeBits(8, 1)};
    if (layoutFitsB4<1>(line))
        return {BdiCompressor::kEncB4D1, bdiSizeBits(4, 1)};
    if (layoutFitsB8<2>(line))
        return {BdiCompressor::kEncB8D2, bdiSizeBits(8, 2)};
    if (layoutFitsB4<2>(line))
        return {BdiCompressor::kEncB4D2, bdiSizeBits(4, 2)};
    if (layoutFitsB8<4>(line))
        return {BdiCompressor::kEncB8D4, bdiSizeBits(8, 4)};
    if (detail::bdiLayoutFits<2, 1>(line))
        return {BdiCompressor::kEncB2D1, bdiSizeBits(2, 1)};
    return {kRawEncoding, kLineBits};
}

std::uint32_t
fpcCountBits(const std::uint8_t *line)
{
    const __m256i zero = _mm256_setzero_si256();
    const __m256i c7 = _mm256_set1_epi32(7);
    const __m256i c127 = _mm256_set1_epi32(127);
    const __m256i c4 = _mm256_set1_epi32(4);
    const __m256i c8 = _mm256_set1_epi32(8);
    const __m256i narrow_lim = _mm256_set1_epi32(0x8000);
    const __m256i lo16 = _mm256_set1_epi32(0xffff);
    const __m256i byte_mask = _mm256_set1_epi32(0xff);
    const __m256i rep_mul = _mm256_set1_epi32(0x01010101);
    const __m256i half_bias = _mm256_set1_epi16(128);
    const __m256i half_mask =
        _mm256_set1_epi16(static_cast<short>(0xff00));
    const __m256i w35 = _mm256_set1_epi32(35);
    const __m256i w11 = _mm256_set1_epi32(11);
    const __m256i w19 = _mm256_set1_epi32(19);

    __m256i acc = zero;
    std::uint64_t zero_mask = 0;
    for (unsigned k = 0; k < 4; ++k) {
        const __m256i v = loadVec(line, k);

        // folded is non-negative in every lane, so the signed lane
        // compares below match the scalar unsigned thresholds.
        const __m256i folded =
            _mm256_xor_si256(v, _mm256_srai_epi32(v, 31));
        const __m256i is_narrow = _mm256_cmpgt_epi32(narrow_lim, folded);
        __m256i narrow = _mm256_add_epi32(
            c7, _mm256_and_si256(_mm256_cmpgt_epi32(folded, c7), c4));
        narrow = _mm256_add_epi32(
            narrow,
            _mm256_and_si256(_mm256_cmpgt_epi32(folded, c127), c8));

        const __m256i lo = _mm256_and_si256(v, lo16);
        const __m256i is_rep = _mm256_cmpeq_epi32(
            _mm256_mullo_epi32(_mm256_and_si256(v, byte_mask), rep_mul),
            v);
        // Both 16-bit halves fit a signed byte <=> (half + 128) mod
        // 2^16 has no bits above 0xff in either half of the lane.
        const __m256i is_two_half = _mm256_cmpeq_epi32(
            _mm256_and_si256(_mm256_add_epi16(v, half_bias), half_mask),
            zero);
        const __m256i is_lo_zero = _mm256_cmpeq_epi32(lo, zero);

        __m256i wide = w35;
        wide = _mm256_blendv_epi8(wide, w11, is_rep);
        wide = _mm256_blendv_epi8(wide, w19, is_two_half);
        wide = _mm256_blendv_epi8(wide, w19, is_lo_zero);

        acc = _mm256_add_epi32(
            acc, _mm256_blendv_epi8(wide, narrow, is_narrow));

        const __m256i is_zero = _mm256_cmpeq_epi32(v, zero);
        zero_mask |= static_cast<std::uint64_t>(
                         static_cast<unsigned>(_mm256_movemask_ps(
                             _mm256_castsi256_ps(is_zero))))
                     << (8 * k);
    }

    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    std::uint32_t bits =
        static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));

    // Zero-run retraction, identical to the scalar kernel.
    while (zero_mask) {
        zero_mask >>= std::countr_zero(zero_mask);
        const unsigned run = std::countr_one(zero_mask);
        zero_mask >>= run;
        bits += 6 * static_cast<std::uint32_t>(divCeil(run, 8)) -
                7 * run;
    }
    return bits;
}

} // namespace latte::simd::avx2
