#include "fpc.hh"

#include "backend.hh"
#include "common/logging.hh"

namespace latte
{

namespace
{

/**
 * Encode every word of @p line into @p sink. Shared by compress()
 * (sink = BitWriter) and probe() (sink = BitCounter) so the two can
 * never disagree on a size.
 */
template <typename Sink>
void
encodeWords(std::span<const std::uint8_t> line, Sink &sink)
{
    const unsigned n_words = kLineBytes / 4;
    unsigned i = 0;
    while (i < n_words) {
        const std::uint32_t word =
            static_cast<std::uint32_t>(loadLe(line.data() + 4 * i, 4));

        if (word == 0) {
            // Zero run of up to 8 words.
            unsigned run = 1;
            while (i + run < n_words && run < 8 &&
                   loadLe(line.data() + 4 * (i + run), 4) == 0) {
                ++run;
            }
            sink.write(FpcCompressor::kZeroRun, 3);
            sink.write(run - 1, 3);
            i += run;
            continue;
        }

        const std::int64_t value = signExtend(word, 32);
        const std::uint16_t lo = word & 0xffff;
        const std::uint16_t hi = word >> 16;

        if (value >= -8 && value <= 7) {
            sink.write(FpcCompressor::kSigned4, 3);
            sink.write(static_cast<std::uint64_t>(value) & 0xf, 4);
        } else if (fitsSigned(value, 1)) {
            sink.write(FpcCompressor::kSigned8, 3);
            sink.write(static_cast<std::uint64_t>(value) & 0xff, 8);
        } else if (fitsSigned(value, 2)) {
            sink.write(FpcCompressor::kSigned16, 3);
            sink.write(static_cast<std::uint64_t>(value) & 0xffff, 16);
        } else if (lo == 0) {
            sink.write(FpcCompressor::kZeroPadded, 3);
            sink.write(hi, 16);
        } else if (fitsSigned(signExtend(lo, 16), 1) &&
                   fitsSigned(signExtend(hi, 16), 1)) {
            sink.write(FpcCompressor::kTwoHalfSigned8, 3);
            sink.write(lo & 0xff, 8);
            sink.write(hi & 0xff, 8);
        } else if (word == (word & 0xff) * 0x01010101u) {
            sink.write(FpcCompressor::kRepeatedByte, 3);
            sink.write(word & 0xff, 8);
        } else {
            sink.write(FpcCompressor::kUncompressed, 3);
            sink.write(word, 32);
        }
        ++i;
    }
}

} // namespace

FpcCompressor::FpcCompressor(const CompressorTimings &timings)
    : decompressLat_(timings.fpcDecompress)
{}

LineMeta
FpcCompressor::probe(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);

    // The size-only twin of encodeWords() is the backend's word
    // classifier kernel; test_properties pins probe() == compress()
    // across all profiles and backends.
    return makeProbedMeta(CompressorId::Fpc, 0,
                          activeCompressorBackend().fpcCountBits(
                              line.data()));
}

CompressedLine
FpcCompressor::compress(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);

    BitWriter bw;
    encodeWords(line, bw);
    if (bw.bitSize() >= kLineBits)
        return makeRawLine(CompressorId::Fpc, line);

    CompressedLine out;
    out.algo = CompressorId::Fpc;
    out.encoding = 0;
    out.sizeBits = static_cast<std::uint32_t>(bw.bitSize());
    out.payload.assign(bw.bytes());
    return out;
}

void
FpcCompressor::decompressInto(const CompressedLine &line,
                              std::span<std::uint8_t> out) const
{
    latte_assert(line.algo == CompressorId::Fpc);
    latte_assert(out.size() == kLineBytes);
    if (line.encoding == kRawEncoding) {
        decodeRawLineInto(line, out);
        return;
    }

    const unsigned n_words = kLineBytes / 4;
    BitReader br(line.payload, line.sizeBits);

    unsigned i = 0;
    while (i < n_words) {
        const auto prefix = static_cast<Prefix>(br.read(3));
        switch (prefix) {
          case kZeroRun: {
            const unsigned run = static_cast<unsigned>(br.read(3)) + 1;
            latte_assert(i + run <= n_words);
            for (unsigned k = 0; k < run; ++k)
                storeLe(out.data() + 4 * (i + k), 0, 4);
            i += run;
            break;
          }
          case kSigned4: {
            const auto v = signExtend(br.read(4), 4);
            storeLe(out.data() + 4 * i,
                    static_cast<std::uint64_t>(v), 4);
            ++i;
            break;
          }
          case kSigned8: {
            const auto v = signExtend(br.read(8), 8);
            storeLe(out.data() + 4 * i,
                    static_cast<std::uint64_t>(v), 4);
            ++i;
            break;
          }
          case kSigned16: {
            const auto v = signExtend(br.read(16), 16);
            storeLe(out.data() + 4 * i,
                    static_cast<std::uint64_t>(v), 4);
            ++i;
            break;
          }
          case kZeroPadded: {
            const std::uint32_t hi =
                static_cast<std::uint32_t>(br.read(16));
            storeLe(out.data() + 4 * i, hi << 16, 4);
            ++i;
            break;
          }
          case kTwoHalfSigned8: {
            const std::uint16_t lo = static_cast<std::uint16_t>(
                signExtend(br.read(8), 8));
            const std::uint16_t hi = static_cast<std::uint16_t>(
                signExtend(br.read(8), 8));
            storeLe(out.data() + 4 * i,
                    (static_cast<std::uint32_t>(hi) << 16) | lo, 4);
            ++i;
            break;
          }
          case kRepeatedByte: {
            const std::uint32_t b =
                static_cast<std::uint32_t>(br.read(8));
            storeLe(out.data() + 4 * i,
                    b | (b << 8) | (b << 16) | (b << 24), 4);
            ++i;
            break;
          }
          case kUncompressed: {
            storeLe(out.data() + 4 * i, br.read(32), 4);
            ++i;
            break;
          }
          default:
            latte_panic("bad FPC prefix");
        }
    }
}

} // namespace latte
