#include "cpack.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"

namespace latte
{

namespace
{

// Code words from the C-PACK paper (pattern -> (code, code length)):
//   zzzz : 00                      (2)  zero word
//   xxxx : 01   + 32-bit word      (34) no match, push to dictionary
//   mmmm : 10   + 4-bit index      (6)  full dictionary match
//   mmxx : 1100 + idx + 16 bits    (24) upper-half match
//   zzzx : 1101 + 8 bits           (12) zero except low byte
//   mmmx : 1110 + idx + 8 bits     (16) match except low byte
constexpr unsigned kIdxBits = 4;

/** Fixed-capacity FIFO dictionary (no heap, rebuilt per line). */
struct Dict
{
    std::array<std::uint32_t, CpackCompressor::kDictWords> words;
    unsigned size = 0;
    unsigned fifoHead = 0;

    void
    push(std::uint32_t word)
    {
        if (size < CpackCompressor::kDictWords) {
            words[size++] = word;
        } else {
            words[fifoHead] = word;
            fifoHead = (fifoHead + 1) % CpackCompressor::kDictWords;
        }
    }
};

/**
 * Stream the line through the dictionary, emitting codes into @p sink.
 * Shared by compress() (BitWriter) and probe() (BitCounter): the
 * dictionary evolution is part of the encoding, so the probe must run
 * the identical match loop to get the exact size.
 */
template <typename Sink>
void
encodeWords(std::span<const std::uint8_t> line, Sink &sink)
{
    const unsigned n_words = kLineBytes / 4;
    Dict dict;

    for (unsigned i = 0; i < n_words; ++i) {
        const std::uint32_t word =
            static_cast<std::uint32_t>(loadLe(line.data() + 4 * i, 4));

        if (word == 0) {
            sink.write(0b00, 2);
            continue;
        }

        // Look for the best dictionary match.
        int full = -1, upper24 = -1, upper16 = -1;
        for (unsigned d = 0; d < dict.size; ++d) {
            if (dict.words[d] == word && full < 0)
                full = static_cast<int>(d);
            else if ((dict.words[d] >> 8) == (word >> 8) && upper24 < 0)
                upper24 = static_cast<int>(d);
            else if ((dict.words[d] >> 16) == (word >> 16) && upper16 < 0)
                upper16 = static_cast<int>(d);
        }

        if (full >= 0) {
            sink.write(0b01, 2); // 'mmmm' (10 LSB-first)
            sink.write(static_cast<std::uint64_t>(full), kIdxBits);
        } else if ((word & 0xffffff00u) == 0) {
            sink.write(0b0111, 4); // 'zzzx': bits 1,1,1,0
            sink.write(word & 0xff, 8);
        } else if (upper24 >= 0) {
            sink.write(0b1011, 4); // 'mmmx': bits 1,1,0,1
            sink.write(static_cast<std::uint64_t>(upper24), kIdxBits);
            sink.write(word & 0xff, 8);
            dict.push(word);
        } else if (upper16 >= 0) {
            sink.write(0b0011, 4); // 'mmxx' (1100 LSB-first)
            sink.write(static_cast<std::uint64_t>(upper16), kIdxBits);
            sink.write(word & 0xffff, 16);
            dict.push(word);
        } else {
            sink.write(0b10, 2); // 'xxxx' (01 LSB-first)
            sink.write(word, 32);
            dict.push(word);
        }
    }
}

bool
allZero(std::span<const std::uint8_t> line)
{
    return std::all_of(line.begin(), line.end(),
                       [](std::uint8_t b) { return b == 0; });
}

} // namespace

CpackCompressor::CpackCompressor(const CompressorTimings &timings)
    : decompressLat_(timings.cpackDecompress)
{}

LineMeta
CpackCompressor::probe(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);

    if (allZero(line))
        return makeProbedMeta(CompressorId::CpackZ, kEncZeroLine, 8);
    BitCounter counter;
    encodeWords(line, counter);
    return makeProbedMeta(
        CompressorId::CpackZ, kEncPacked,
        static_cast<std::uint32_t>(
            std::min<std::uint64_t>(counter.bitSize(), kLineBits)));
}

CompressedLine
CpackCompressor::compress(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);

    if (allZero(line)) {
        CompressedLine out;
        out.algo = CompressorId::CpackZ;
        out.encoding = kEncZeroLine;
        out.sizeBits = 8;
        return out;
    }

    BitWriter bw;
    encodeWords(line, bw);
    if (bw.bitSize() >= kLineBits)
        return makeRawLine(CompressorId::CpackZ, line);

    CompressedLine out;
    out.algo = CompressorId::CpackZ;
    out.encoding = kEncPacked;
    out.sizeBits = static_cast<std::uint32_t>(bw.bitSize());
    out.payload.assign(bw.bytes());
    return out;
}

void
CpackCompressor::decompressInto(const CompressedLine &line,
                                std::span<std::uint8_t> out) const
{
    latte_assert(line.algo == CompressorId::CpackZ);
    latte_assert(out.size() == kLineBytes);
    if (line.encoding == kRawEncoding) {
        decodeRawLineInto(line, out);
        return;
    }
    if (line.encoding == kEncZeroLine) {
        std::fill(out.begin(), out.end(), 0);
        return;
    }

    const unsigned n_words = kLineBytes / 4;
    Dict dict;

    BitReader br(line.payload, line.sizeBits);
    for (unsigned i = 0; i < n_words; ++i) {
        std::uint32_t word = 0;
        const bool b0 = br.readBit();
        const bool b1 = br.readBit();
        if (!b0 && !b1) {               // 00: zero
            word = 0;
        } else if (b0 && !b1) {         // 01 LSB-first = code 10: mmmm
            const auto idx = br.read(kIdxBits);
            latte_assert(idx < dict.size, "CPACK index out of range");
            word = dict.words[idx];
        } else if (!b0 && b1) {         // 10 LSB-first = code 01: xxxx
            word = static_cast<std::uint32_t>(br.read(32));
            dict.push(word);
        } else {                        // 11..: 4-bit codes
            const bool b2 = br.readBit();
            const bool b3 = br.readBit();
            if (!b2 && !b3) {           // 1100: mmxx
                const auto idx = br.read(kIdxBits);
                latte_assert(idx < dict.size);
                word = (dict.words[idx] & 0xffff0000u) |
                       static_cast<std::uint32_t>(br.read(16));
                dict.push(word);
            } else if (b2 && !b3) {     // 1101: zzzx
                word = static_cast<std::uint32_t>(br.read(8));
            } else if (!b2 && b3) {     // 1110: mmmx
                const auto idx = br.read(kIdxBits);
                latte_assert(idx < dict.size);
                word = (dict.words[idx] & 0xffffff00u) |
                       static_cast<std::uint32_t>(br.read(8));
                dict.push(word);
            } else {
                latte_panic("bad CPACK code 1111");
            }
        }
        storeLe(out.data() + 4 * i, word, 4);
    }
}

} // namespace latte
