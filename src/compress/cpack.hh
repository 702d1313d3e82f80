/**
 * @file
 * C-PACK (Cache Packer, Chen et al., TVLSI 2010) with zero-line
 * detection, the CPACK-Z configuration of the paper. Words are matched
 * against a small FIFO dictionary built while the line streams through the
 * compressor; full/partial matches and zero patterns are emitted as short
 * codes. The dictionary is rebuilt per line so every line decompresses
 * independently.
 */

#ifndef LATTE_COMPRESS_CPACK_HH
#define LATTE_COMPRESS_CPACK_HH

#include "common/config.hh"
#include "compressor.hh"

namespace latte
{

/** C-PACK + zero-line compressor/decompressor engine. */
class CpackCompressor : public Compressor
{
  public:
    explicit CpackCompressor(const CompressorTimings &timings = {});

    CompressorId id() const override { return CompressorId::CpackZ; }

    CompressedLine compress(std::span<const std::uint8_t> line) override;
    LineMeta probe(std::span<const std::uint8_t> line) override;
    void decompressInto(const CompressedLine &line,
                        std::span<std::uint8_t> out) const override;

    Cycles compressLatency() const override { return 8; }
    Cycles decompressLatency() const override { return decompressLat_; }

    /** Dictionary capacity in 32-bit words (64 B, per the C-PACK paper). */
    static constexpr unsigned kDictWords = 16;

    /** Encoding ids. */
    static constexpr std::uint8_t kEncZeroLine = 0x0;
    static constexpr std::uint8_t kEncPacked = 0x1;

  private:
    Cycles decompressLat_;
};

} // namespace latte

#endif // LATTE_COMPRESS_CPACK_HH
