/**
 * @file
 * Frequent Pattern Compression (Alameldeen & Wood, ISCA 2004). Each
 * 32-bit word is encoded with a 3-bit prefix naming one of seven frequent
 * patterns, or stored verbatim. Zero words are run-length encoded.
 */

#ifndef LATTE_COMPRESS_FPC_HH
#define LATTE_COMPRESS_FPC_HH

#include "common/config.hh"
#include "compressor.hh"

namespace latte
{

/** FPC compressor/decompressor engine. */
class FpcCompressor : public Compressor
{
  public:
    explicit FpcCompressor(const CompressorTimings &timings = {});

    CompressorId id() const override { return CompressorId::Fpc; }

    CompressedLine compress(std::span<const std::uint8_t> line) override;
    LineMeta probe(std::span<const std::uint8_t> line) override;
    void decompressInto(const CompressedLine &line,
                        std::span<std::uint8_t> out) const override;

    Cycles compressLatency() const override { return 5; }
    Cycles decompressLatency() const override { return decompressLat_; }

    /** 3-bit word prefixes. */
    enum Prefix : std::uint8_t
    {
        kZeroRun = 0,       //!< run of 1..8 zero words (3-bit length)
        kSigned4 = 1,       //!< 4-bit sign-extended
        kSigned8 = 2,       //!< 8-bit sign-extended
        kSigned16 = 3,      //!< 16-bit sign-extended
        kZeroPadded = 4,    //!< lower 16 bits zero, upper half stored
        kTwoHalfSigned8 = 5,//!< two halfwords, each 8-bit sign-extended
        kRepeatedByte = 6,  //!< all four bytes identical
        kUncompressed = 7,  //!< raw 32-bit word
    };

  private:
    Cycles decompressLat_;
};

} // namespace latte

#endif // LATTE_COMPRESS_FPC_HH
