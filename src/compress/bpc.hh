/**
 * @file
 * Bit-Plane Compression (Kim et al., ISCA 2016). The line is viewed as 32
 * consecutive 32-bit words; 31 inter-word deltas are bit-plane transposed
 * (DBP) and adjacent planes XORed (DBX), turning the low-variance bits
 * common in GPU data into long zero runs that compress with short codes.
 */

#ifndef LATTE_COMPRESS_BPC_HH
#define LATTE_COMPRESS_BPC_HH

#include "common/config.hh"
#include "compressor.hh"

namespace latte
{

/** BPC compressor/decompressor engine. */
class BpcCompressor : public Compressor
{
  public:
    explicit BpcCompressor(const CompressorTimings &timings = {});

    CompressorId id() const override { return CompressorId::Bpc; }

    CompressedLine compress(std::span<const std::uint8_t> line) override;
    LineMeta probe(std::span<const std::uint8_t> line) override;
    void decompressInto(const CompressedLine &line,
                        std::span<std::uint8_t> out) const override;

    Cycles compressLatency() const override { return compressLat_; }
    Cycles decompressLatency() const override { return decompressLat_; }

    static constexpr unsigned kWords = kLineBytes / 4;   // 32
    static constexpr unsigned kDeltas = kWords - 1;      // 31
    static constexpr unsigned kPlanes = 33;              // 33-bit deltas

  private:
    Cycles compressLat_;
    Cycles decompressLat_;
};

} // namespace latte

#endif // LATTE_COMPRESS_BPC_HH
