/**
 * @file
 * The two data-parallel probe kernels behind the CompressorBackend
 * dispatch table: the BDI base+delta layout scan and the FPC word
 * classifier. Each exists in a scalar reference implementation (always
 * compiled, the bit-identity anchor) and, where the build enables it,
 * an AVX2 variant compiled in its own translation unit with a per-file
 * ISA flag.
 *
 * Every variant of a kernel must return bit-identical results for every
 * input line — the golden tests and the BackendFuzz differential fuzzer
 * pin this. Kernels take a raw pointer to exactly kLineBytes; the
 * compressors' probe() calls them once per line through the active
 * backend's row.
 */

#ifndef LATTE_COMPRESS_SIMD_KERNELS_HH
#define LATTE_COMPRESS_SIMD_KERNELS_HH

#include <cstdint>

#include "compress/bdi.hh"

namespace latte::simd
{

/** Outcome of one BDI feasibility scan: first-fit encoding + size. */
struct BdiScanResult
{
    std::uint8_t encoding = kRawEncoding;
    std::uint32_t sizeBits = kLineBits;
};

/** Encoded size of a BDI (base, delta) layout; pure shape arithmetic. */
constexpr std::uint32_t
bdiSizeBits(unsigned base_bytes, unsigned delta_bytes)
{
    const std::uint32_t n_blocks = kLineBytes / base_bytes;
    return 8u * base_bytes + n_blocks + n_blocks * 8u * delta_bytes;
}

/** BDI probe over one kLineBytes line. */
using BdiScanFn = BdiScanResult (*)(const std::uint8_t *line);

/** Exact FPC encoded bit count of one kLineBytes line. */
using FpcCountBitsFn = std::uint32_t (*)(const std::uint8_t *line);

namespace detail
{

inline bool
bdiAllZero(const std::uint8_t *line)
{
    // Word-at-a-time scan; lines are a multiple of 8 bytes.
    for (unsigned off = 0; off < kLineBytes; off += 8) {
        if (loadLe(line + off, 8) != 0)
            return false;
    }
    return true;
}

inline bool
bdiRepeated8(const std::uint8_t *line)
{
    const std::uint64_t first = loadLe(line, 8);
    for (unsigned off = 8; off < kLineBytes; off += 8) {
        if (loadLe(line + off, 8) != first)
            return false;
    }
    return true;
}

/**
 * Classify each block as immediate (delta from zero fits) or
 * base-relative; the first non-immediate block defines the base.
 * Feasibility only — no outputs kept. The block and delta widths are
 * template parameters so the per-block loads and range checks compile
 * to fixed-width instructions. Shared here so the AVX2 kernel can
 * reuse it for the layout it leaves scalar (B2D1, the last-resort
 * 592-bit layout, is not worth a 16-bit-lane vector path).
 */
template <unsigned BaseBytes, unsigned DeltaBytes>
inline bool
bdiLayoutFits(const std::uint8_t *line)
{
    constexpr unsigned n_blocks = kLineBytes / BaseBytes;

    std::uint64_t base = 0;
    bool have_base = false;

    for (unsigned i = 0; i < n_blocks; ++i) {
        const std::uint64_t raw = loadLe(line + i * BaseBytes, BaseBytes);
        const std::int64_t value = signExtend(raw, 8 * BaseBytes);
        if (fitsSigned(value, DeltaBytes))
            continue;
        if (!have_base) {
            base = raw;
            have_base = true;
        }
        // Modular (wrap-around) difference, reinterpreted as a signed
        // delta of the block width; matches the hardware subtractor.
        const std::int64_t delta = signExtend(raw - base, 8 * BaseBytes);
        if (!fitsSigned(delta, DeltaBytes))
            return false;
    }
    return true;
}

} // namespace detail

namespace scalar
{
BdiScanResult bdiScan(const std::uint8_t *line);
std::uint32_t fpcCountBits(const std::uint8_t *line);
} // namespace scalar

#if defined(LATTE_SIMD_AVX2)
namespace avx2
{
BdiScanResult bdiScan(const std::uint8_t *line);
std::uint32_t fpcCountBits(const std::uint8_t *line);
} // namespace avx2
#endif

} // namespace latte::simd

#endif // LATTE_COMPRESS_SIMD_KERNELS_HH
