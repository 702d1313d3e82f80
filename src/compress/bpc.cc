#include "bpc.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace latte
{

namespace
{

// Per-plane symbol codes, written LSB-first (first bit listed is the
// first bit on the wire). Scan order is plane 32 down to plane 0 so the
// decoder always knows DBP[b+1] before decoding plane b.
//   zero-run 2..33 : 0,1        + 5-bit (run-2)
//   single zero    : 0,0,1
//   all ones       : 0,0,0,0,0
//   DBP plane zero : 0,0,0,0,1
//   two consec 1s  : 0,0,0,1,0  + 5-bit position (low bit of the pair)
//   single 1       : 0,0,0,1,1  + 5-bit position
//   uncompressed   : 1          + 31 raw bits

template <typename Sink>
void
baseEncode(Sink &sink, std::uint32_t base)
{
    const std::int64_t value = signExtend(base, 32);
    if (base == 0) {
        sink.write(0b00, 2);
    } else if (value >= -8 && value <= 7) {
        sink.write(0b01, 2);
        sink.write(base & 0xf, 4);
    } else if (fitsSigned(value, 2)) {
        sink.write(0b10, 2);
        sink.write(base & 0xffff, 16);
    } else {
        sink.write(0b11, 2);
        sink.write(base, 32);
    }
}

std::uint32_t
baseDecode(BitReader &br)
{
    const auto tag = br.read(2);
    switch (tag) {
      case 0b00: return 0;
      case 0b01:
        return static_cast<std::uint32_t>(signExtend(br.read(4), 4));
      case 0b10:
        return static_cast<std::uint32_t>(signExtend(br.read(16), 16));
      default:
        return static_cast<std::uint32_t>(br.read(32));
    }
}

constexpr std::uint64_t kPlaneMask = (std::uint64_t{1} << 31) - 1;

/**
 * The full BPC pipeline — delta, DBP transpose, DBX, plane coding —
 * emitting into @p sink. Shared by compress() (BitWriter) and probe()
 * (BitCounter).
 */
template <typename Sink>
void
encodeLine(std::span<const std::uint8_t> line, Sink &sink)
{
    constexpr unsigned kWords = BpcCompressor::kWords;
    constexpr unsigned kDeltas = BpcCompressor::kDeltas;
    constexpr unsigned kPlanes = BpcCompressor::kPlanes;

    std::array<std::uint32_t, kWords> words;
    for (unsigned i = 0; i < kWords; ++i)
        words[i] = static_cast<std::uint32_t>(loadLe(line.data() + 4 * i,
                                                     4));

    // 33-bit two's-complement deltas between consecutive words.
    std::array<std::uint64_t, kDeltas> deltas;
    for (unsigned i = 0; i < kDeltas; ++i) {
        const std::uint64_t diff =
            static_cast<std::uint64_t>(words[i + 1]) -
            static_cast<std::uint64_t>(words[i]);
        deltas[i] = diff & ((std::uint64_t{1} << 33) - 1);
    }

    // DBP: transpose -> 33 planes of 31 bits.
    std::array<std::uint64_t, kPlanes> dbp{};
    for (unsigned b = 0; b < kPlanes; ++b) {
        std::uint64_t plane = 0;
        for (unsigned i = 0; i < kDeltas; ++i)
            plane |= ((deltas[i] >> b) & 1) << i;
        dbp[b] = plane;
    }

    // DBX: XOR each plane with the plane above it.
    std::array<std::uint64_t, kPlanes> dbx{};
    dbx[kPlanes - 1] = dbp[kPlanes - 1];
    for (unsigned b = 0; b + 1 < kPlanes; ++b)
        dbx[b] = dbp[b] ^ dbp[b + 1];

    baseEncode(sink, words[0]);

    // Scan planes top-down (32 .. 0).
    int b = kPlanes - 1;
    while (b >= 0) {
        // Count a run of zero DBX planes.
        unsigned run = 0;
        while (b - static_cast<int>(run) >= 0 &&
               dbx[b - run] == 0 && run < 33) {
            ++run;
        }
        if (run >= 2) {
            sink.write(0b10, 2);          // bits 0,1
            sink.write(run - 2, 5);
            b -= static_cast<int>(run);
            continue;
        }
        if (run == 1) {
            sink.write(0b100, 3);         // bits 0,0,1
            --b;
            continue;
        }

        const std::uint64_t plane = dbx[b];
        if (plane == kPlaneMask) {
            sink.write(0b00000, 5);
        } else if (dbp[b] == 0) {
            sink.write(0b10000, 5);       // bits 0,0,0,0,1
        } else {
            // Count set bits / find positions.
            unsigned ones = 0;
            unsigned first = 0;
            for (unsigned i = 0; i < kDeltas; ++i) {
                if ((plane >> i) & 1) {
                    if (ones == 0)
                        first = i;
                    ++ones;
                }
            }
            const bool two_consec =
                ones == 2 && ((plane >> (first + 1)) & 1);
            if (ones == 1) {
                sink.write(0b11000, 5);   // bits 0,0,0,1,1
                sink.write(first, 5);
            } else if (two_consec) {
                sink.write(0b01000, 5);   // bits 0,0,0,1,0
                sink.write(first, 5);
            } else {
                sink.pushBit(true);       // uncompressed plane
                sink.write(plane, 31);
            }
        }
        --b;
    }
}

} // namespace

BpcCompressor::BpcCompressor(const CompressorTimings &timings)
    : compressLat_(timings.bpcCompress),
      decompressLat_(timings.bpcDecompress)
{}

LineMeta
BpcCompressor::probe(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);

    BitCounter counter;
    encodeLine(line, counter);
    return makeProbedMeta(
        CompressorId::Bpc, 0,
        static_cast<std::uint32_t>(
            std::min<std::uint64_t>(counter.bitSize(), kLineBits)));
}

CompressedLine
BpcCompressor::compress(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);

    BitWriter bw;
    encodeLine(line, bw);
    if (bw.bitSize() >= kLineBits)
        return makeRawLine(CompressorId::Bpc, line);

    CompressedLine out;
    out.algo = CompressorId::Bpc;
    out.encoding = 0;
    out.sizeBits = static_cast<std::uint32_t>(bw.bitSize());
    out.payload.assign(bw.bytes());
    return out;
}

void
BpcCompressor::decompressInto(const CompressedLine &line,
                              std::span<std::uint8_t> out) const
{
    latte_assert(line.algo == CompressorId::Bpc);
    latte_assert(out.size() == kLineBytes);
    if (line.encoding == kRawEncoding) {
        decodeRawLineInto(line, out);
        return;
    }

    BitReader br(line.payload, line.sizeBits);
    const std::uint32_t base = baseDecode(br);

    std::array<std::uint64_t, kPlanes> dbp{};
    int b = kPlanes - 1;
    auto dbp_above = [&](int idx) -> std::uint64_t {
        return idx + 1 < static_cast<int>(kPlanes) ? dbp[idx + 1] : 0;
    };

    while (b >= 0) {
        if (br.readBit()) {             // '1' -> uncompressed plane
            const std::uint64_t plane = br.read(31);
            dbp[b] = plane ^ dbp_above(b);
            --b;
            continue;
        }
        if (br.readBit()) {             // '01' -> zero run
            const unsigned run = static_cast<unsigned>(br.read(5)) + 2;
            for (unsigned k = 0; k < run; ++k) {
                latte_assert(b >= 0, "BPC run overruns planes");
                dbp[b] = dbp_above(b);  // DBX == 0
                --b;
            }
            continue;
        }
        if (br.readBit()) {             // '001' -> single zero plane
            dbp[b] = dbp_above(b);
            --b;
            continue;
        }
        if (br.readBit()) {             // '0001x' -> positional codes
            if (br.readBit()) {         // 00011: single one
                const unsigned pos = static_cast<unsigned>(br.read(5));
                dbp[b] = (std::uint64_t{1} << pos) ^ dbp_above(b);
            } else {                    // 00010: two consecutive ones
                const unsigned pos = static_cast<unsigned>(br.read(5));
                dbp[b] = (std::uint64_t{3} << pos) ^ dbp_above(b);
            }
            --b;
            continue;
        }
        if (br.readBit()) {             // 00001: DBP plane is zero
            dbp[b] = 0;
        } else {                        // 00000: all-ones DBX plane
            dbp[b] = kPlaneMask ^ dbp_above(b);
        }
        --b;
    }

    // Reassemble deltas from the bit planes.
    std::array<std::uint64_t, kDeltas> deltas{};
    for (unsigned bb = 0; bb < kPlanes; ++bb) {
        for (unsigned i = 0; i < kDeltas; ++i)
            deltas[i] |= ((dbp[bb] >> i) & 1) << bb;
    }

    std::uint32_t word = base;
    storeLe(out.data(), word, 4);
    for (unsigned i = 0; i < kDeltas; ++i) {
        const std::int64_t delta = signExtend(deltas[i], 33);
        word = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(word) +
            static_cast<std::uint64_t>(delta));
        storeLe(out.data() + 4 * (i + 1), word, 4);
    }
}

} // namespace latte
