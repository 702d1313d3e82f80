/**
 * @file
 * The three data-parallel probe kernels behind the CompressorBackend
 * dispatch table: the BDI base+delta layout scan, the FPC word
 * classifier and the SC Huffman length lookup. Each exists in a scalar
 * reference implementation (always compiled, the bit-identity anchor)
 * and, where the build enables them, SSE4/AVX2 variants compiled in
 * their own translation units with per-file ISA flags.
 *
 * Every variant of a kernel must return bit-identical results for every
 * input line — the golden tests and the BackendFuzz differential fuzzer
 * pin this. Kernels take a raw pointer to exactly kLineBytes; batching
 * over many lines (and the span plumbing) lives in the compressors'
 * probeLines() implementations, so a kernel is just the per-line inner
 * loop body.
 */

#ifndef LATTE_COMPRESS_SIMD_KERNELS_HH
#define LATTE_COMPRESS_SIMD_KERNELS_HH

#include <cstdint>

#include "compress/bdi.hh"
#include "compress/huffman.hh"

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

/** Exact SC encoded bit count of one line against a borrowed book. */
using ScLineBitsFn = std::uint64_t (*)(const std::uint8_t *line,
                                       const HuffmanCode::LengthView &view);

/**
 * Scalar Huffman length lookup against a LengthView — the answer of
 * HuffmanCode::encodedBits(), from the same filter bit and symbol-table
 * walk over the borrowed table, so SIMD kernels can fall back to it for
 * the slot walk of unresolved lanes. The home slot is loaded before the
 * filter is tested: the two loads are independent, so a hit pays one
 * load latency instead of two.
 */
inline std::uint32_t
scLookupBits(std::uint32_t value, const HuffmanCode::LengthView &view)
{
    if (view.empty)
        return view.escapeBits;
    const std::uint32_t hash = value * 0x9e3779b9u;
    std::uint32_t i = hash & view.slotMask;
    HuffmanCode::LenSlot slot = view.slots[i];
    const std::uint32_t bit = hash & view.filterMask;
    if (!((view.filter[bit / 64] >> (bit % 64)) & 1))
        return view.escapeBits;
    while (slot.bits != 0) {
        if (slot.symbol == value)
            return slot.bits;
        i = (i + 1) & view.slotMask;
        slot = view.slots[i];
    }
    return view.escapeBits;
}

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
 * to fixed-width instructions. Shared here so the SIMD kernels can
 * reuse it for the layouts they leave scalar (B2D1, the last-resort
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
std::uint64_t scLineBits(const std::uint8_t *line,
                         const HuffmanCode::LengthView &view);
} // namespace scalar

#if defined(LATTE_SIMD_SSE4)
namespace sse4
{
BdiScanResult bdiScan(const std::uint8_t *line);
std::uint32_t fpcCountBits(const std::uint8_t *line);
// No scLineBits: the slot gather needs AVX2; the SSE4 backend reuses
// the scalar SC kernel.
} // namespace sse4
#endif

#if defined(LATTE_SIMD_AVX2)
namespace avx2
{
BdiScanResult bdiScan(const std::uint8_t *line);
std::uint32_t fpcCountBits(const std::uint8_t *line);
std::uint64_t scLineBits(const std::uint8_t *line,
                         const HuffmanCode::LengthView &view);
} // namespace avx2
#endif

} // namespace latte::simd

#endif // LATTE_COMPRESS_SIMD_KERNELS_HH
