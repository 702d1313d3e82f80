#include "bdi.hh"

#include <algorithm>
#include <array>

#include "backend.hh"
#include "common/logging.hh"

namespace latte
{

namespace
{

/** The base+delta probes, in the order they are attempted. */
constexpr std::array<BdiLayout, 6> kLayouts = {{
    {BdiCompressor::kEncB8D1, 8, 1},
    {BdiCompressor::kEncB8D2, 8, 2},
    {BdiCompressor::kEncB4D1, 4, 1},
    {BdiCompressor::kEncB8D4, 8, 4},
    {BdiCompressor::kEncB4D2, 4, 2},
    {BdiCompressor::kEncB2D1, 2, 1},
}};

/**
 * A layout's encoded size is fully determined by its shape: base,
 * immediate mask, then one delta per block. This is what makes BDI's
 * probe() a pure feasibility test.
 */
constexpr std::uint32_t
layoutSizeBits(const BdiLayout &layout)
{
    const std::uint32_t n_blocks = kLineBytes / layout.baseBytes;
    return 8u * layout.baseBytes + n_blocks +
           n_blocks * 8u * layout.deltaBytes;
}

/**
 * Classify each block as immediate (delta from zero fits) or
 * base-relative; the first non-immediate block defines the base.
 * Returns false as soon as any delta overflows the layout's width.
 * On success fills the immediate mask (bit i = block i) and the
 * per-block deltas.
 */
bool
classifyLayout(std::span<const std::uint8_t> line, const BdiLayout &layout,
               std::uint64_t &base_out, std::uint64_t &mask_out,
               std::array<std::int64_t, 64> &deltas_out)
{
    const unsigned base_bytes = layout.baseBytes;
    const unsigned delta_bytes = layout.deltaBytes;
    const unsigned n_blocks = kLineBytes / base_bytes;

    std::uint64_t base = 0;
    bool have_base = false;
    std::uint64_t mask = 0;

    for (unsigned i = 0; i < n_blocks; ++i) {
        const std::uint64_t raw = loadLe(line.data() + i * base_bytes,
                                         base_bytes);
        const std::int64_t value = signExtend(raw, 8 * base_bytes);
        if (fitsSigned(value, delta_bytes)) {
            mask |= std::uint64_t{1} << i;
            deltas_out[i] = value;
            continue;
        }
        if (!have_base) {
            base = raw;
            have_base = true;
        }
        // Modular (wrap-around) difference, reinterpreted as a signed
        // delta of the block width; matches the hardware subtractor.
        const std::int64_t delta = signExtend(raw - base, 8 * base_bytes);
        if (!fitsSigned(delta, delta_bytes))
            return false;
        deltas_out[i] = delta;
    }

    base_out = base;
    mask_out = mask;
    return true;
}

} // namespace

BdiCompressor::BdiCompressor(const CompressorTimings &timings)
    : compressLat_(timings.bdiCompress),
      decompressLat_(timings.bdiDecompress)
{}

bool
BdiCompressor::tryLayout(std::span<const std::uint8_t> line,
                         const BdiLayout &layout, CompressedLine &out) const
{
    std::uint64_t base = 0;
    std::uint64_t mask = 0;
    std::array<std::int64_t, 64> deltas;
    if (!classifyLayout(line, layout, base, mask, deltas))
        return false;

    const unsigned base_bytes = layout.baseBytes;
    const unsigned delta_bytes = layout.deltaBytes;
    const unsigned n_blocks = kLineBytes / base_bytes;

    // Serialise: base, immediate mask, then the per-block deltas.
    BitWriter bw;
    bw.write(base, 8 * base_bytes);
    bw.write(mask, n_blocks);
    for (unsigned i = 0; i < n_blocks; ++i) {
        bw.write(static_cast<std::uint64_t>(deltas[i]), 8 * delta_bytes);
    }

    out.algo = CompressorId::Bdi;
    out.encoding = layout.encoding;
    out.sizeBits = static_cast<std::uint32_t>(bw.bitSize());
    latte_assert(out.sizeBits == layoutSizeBits(layout));
    out.payload.assign(bw.bytes());
    return out.sizeBits < kLineBits;
}

LineMeta
BdiCompressor::probe(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);

    // The layout scan (zero line, repeated qword, then first-fit over
    // the base+delta layouts in ascending size order) lives in the
    // backend kernel.
    const simd::BdiScanResult r =
        activeCompressorBackend().bdiScan(line.data());
    return makeProbedMeta(CompressorId::Bdi, r.encoding, r.sizeBits);
}

CompressedLine
BdiCompressor::compress(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);

    const LineMeta meta = probe(line);
    CompressedLine out;
    static_cast<LineMeta &>(out) = meta;

    if (meta.encoding == kEncZeros)
        return out;

    if (meta.encoding == kEncRep8) {
        out.payload.assign(line.subspan(0, 8));
        return out;
    }

    if (meta.encoding == kRawEncoding)
        return makeRawLine(CompressorId::Bdi, line);

    for (const auto &layout : kLayouts) {
        if (layout.encoding != meta.encoding)
            continue;
        const bool ok = tryLayout(line, layout, out);
        latte_assert(ok, "probe-selected BDI layout no longer fits");
        return out;
    }
    latte_panic("bad BDI probe encoding {}", static_cast<int>(meta.encoding));
}

void
BdiCompressor::decompressInto(const CompressedLine &line,
                              std::span<std::uint8_t> out) const
{
    latte_assert(line.algo == CompressorId::Bdi);
    latte_assert(out.size() == kLineBytes);

    if (line.encoding == kRawEncoding) {
        decodeRawLineInto(line, out);
        return;
    }

    if (line.encoding == kEncZeros) {
        std::fill(out.begin(), out.end(), 0);
        return;
    }

    if (line.encoding == kEncRep8) {
        latte_assert(line.payload.size() >= 8);
        for (unsigned off = 0; off < kLineBytes; off += 8)
            std::copy_n(line.payload.begin(), 8, out.begin() + off);
        return;
    }

    const BdiLayout *layout = nullptr;
    for (const auto &probe : kLayouts) {
        if (probe.encoding == line.encoding)
            layout = &probe;
    }
    latte_assert(layout, "bad BDI encoding {}",
                 static_cast<int>(line.encoding));

    const unsigned base_bytes = layout->baseBytes;
    const unsigned delta_bytes = layout->deltaBytes;
    const unsigned n_blocks = kLineBytes / base_bytes;

    BitReader br(line.payload, line.sizeBits);
    const std::uint64_t base = br.read(8 * base_bytes);
    const std::uint64_t mask = br.read(n_blocks);

    for (unsigned i = 0; i < n_blocks; ++i) {
        const std::int64_t delta =
            signExtend(br.read(8 * delta_bytes), 8 * delta_bytes);
        const bool immediate = (mask >> i) & 1;
        const std::uint64_t value =
            (immediate ? 0 : base) + static_cast<std::uint64_t>(delta);
        storeLe(out.data() + i * base_bytes, value, base_bytes);
    }
}

} // namespace latte
