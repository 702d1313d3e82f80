#include "compressor.hh"

#include "common/logging.hh"

namespace latte
{

CompressedLine
makeRawLine(CompressorId id, std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);
    CompressedLine out;
    static_cast<LineMeta &>(out) = makeRawMeta(id);
    out.payload.assign(line);
    return out;
}

LineMeta
makeRawMeta(CompressorId id)
{
    LineMeta meta;
    meta.algo = id;
    meta.encoding = kRawEncoding;
    meta.sizeBits = kLineBits;
    return meta;
}

void
decodeRawLineInto(const CompressedLine &line, std::span<std::uint8_t> out)
{
    latte_assert(line.encoding == kRawEncoding);
    latte_assert(line.payload.size() == kLineBytes);
    latte_assert(out.size() == kLineBytes);
    std::memcpy(out.data(), line.payload.data(), kLineBytes);
}

} // namespace latte
