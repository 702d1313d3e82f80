/**
 * @file
 * Scalar reference kernels — the exact per-line probe loops the
 * compressors ran before the backend split, moved here verbatim. Every
 * accelerated kernel is pinned bit-identical to these.
 */

#include "compress/simd/kernels.hh"

#include <bit>

#include "common/bit_utils.hh"

namespace latte::simd::scalar
{

BdiScanResult
bdiScan(const std::uint8_t *line)
{
    if (detail::bdiAllZero(line))
        return {BdiCompressor::kEncZeros, 8};
    if (detail::bdiRepeated8(line))
        return {BdiCompressor::kEncRep8, 64};

    // Layout sizes are compile-time constants, so "smallest feasible
    // layout, ties to the earlier probe" is a first-fit scan in
    // ascending size order: B8D1 (208), B4D1 (320), B8D2 (336),
    // B4D2 (576), B8D4 (592), B2D1 (592; loses the tie to B8D4 as it
    // comes later in the layout table).
    if (detail::bdiLayoutFits<8, 1>(line))
        return {BdiCompressor::kEncB8D1, bdiSizeBits(8, 1)};
    if (detail::bdiLayoutFits<4, 1>(line))
        return {BdiCompressor::kEncB4D1, bdiSizeBits(4, 1)};
    if (detail::bdiLayoutFits<8, 2>(line))
        return {BdiCompressor::kEncB8D2, bdiSizeBits(8, 2)};
    if (detail::bdiLayoutFits<4, 2>(line))
        return {BdiCompressor::kEncB4D2, bdiSizeBits(4, 2)};
    if (detail::bdiLayoutFits<8, 4>(line))
        return {BdiCompressor::kEncB8D4, bdiSizeBits(8, 4)};
    if (detail::bdiLayoutFits<2, 1>(line))
        return {BdiCompressor::kEncB2D1, bdiSizeBits(2, 1)};
    return {kRawEncoding, kLineBits};
}

std::uint32_t
fpcCountBits(const std::uint8_t *line)
{
    // Bits for one nonzero word. folded == value for positives, ~value
    // for negatives, so the narrow signed ranges become plain width
    // thresholds (width 0 is word == 0xffffffff, i.e. kSigned4's -1).
    const auto classify = [](std::uint32_t word) -> std::uint32_t {
        const std::uint32_t folded =
            word ^ static_cast<std::uint32_t>(
                       static_cast<std::int32_t>(word) >> 31);
        if (folded < 0x8000) {
            // kSigned4 (7 bits) below 8, kSigned8 (11) below 128,
            // kSigned16 (19) below 32768 — flag arithmetic keeps the
            // narrow band branch-free, with no bit-scan in the chain.
            return 7 + 4u * (folded > 7) + 8u * (folded > 127);
        }

        // Branchless pick of the wide classes — which one a noisy word
        // lands in is data-dependent, so branches here mispredict.
        // Priority order inverted: later assignments win. The only
        // overlap (kZeroPadded vs kTwoHalfSigned8 when lo == 0 and hi
        // is a small signed half) selects 19 bits either way.
        const std::uint16_t lo = word & 0xffff;
        const std::uint16_t hi = word >> 16;
        std::uint32_t wide = 35; // kUncompressed
        if (word == (word & 0xff) * 0x01010101u)
            wide = 11; // kRepeatedByte
        if (fitsSigned(signExtend(lo, 16), 1) &&
            fitsSigned(signExtend(hi, 16), 1))
            wide = 19; // kTwoHalfSigned8
        if (lo == 0)
            wide = 19; // kZeroPadded
        return wide;
    };

    // Single pass: classify every word as it streams by (each word is
    // one half of a 64-bit load) and collect a map of the zero ones.
    // Zero words classify as kSigned4 (7 bits); that contribution is
    // subtracted below and replaced by the zero-run tokens, keeping the
    // loop free of data-dependent branches.
    std::uint64_t zero_mask = 0;
    std::uint32_t bits = 0;
    for (unsigned k = 0; k < kLineBytes / 8; ++k) {
        const std::uint64_t pair = loadLe(line + 8 * k, 8);
        const auto w0 = static_cast<std::uint32_t>(pair);
        const auto w1 = static_cast<std::uint32_t>(pair >> 32);
        const std::uint64_t lo_zero = w0 == 0;
        const std::uint64_t hi_zero = w1 == 0;
        zero_mask |= (lo_zero | (hi_zero << 1)) << (2 * k);
        bits += classify(w0) + classify(w1);
    }

    // Zero runs: a maximal run of L zero words emits ceil(L/8) tokens of
    // 6 bits each (kZeroRun prefix + 3-bit length), exactly matching
    // the encoder's greedy up-to-8 scan. The "- 7 * run" retracts the
    // kSigned4 bits the branch-free loop above charged per zero word.
    while (zero_mask) {
        zero_mask >>= std::countr_zero(zero_mask);
        const unsigned run = std::countr_one(zero_mask);
        zero_mask >>= run;
        bits += 6 * static_cast<std::uint32_t>(divCeil(run, 8)) -
                7 * run;
    }
    return bits;
}

} // namespace latte::simd::scalar
