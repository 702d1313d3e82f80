/**
 * @file
 * Base-Delta-Immediate compression (Pekhimenko et al., PACT 2012), the
 * paper's low-latency compression mode. A line is represented as one
 * arbitrary base plus per-block narrow deltas; blocks whose value is small
 * enough are stored as "immediates" (deltas from an implicit zero base),
 * selected by a per-block mask. Ten encodings are probed and the smallest
 * is kept (Section IV-C1 of the LATTE-CC paper).
 */

#ifndef LATTE_COMPRESS_BDI_HH
#define LATTE_COMPRESS_BDI_HH

#include "common/config.hh"
#include "compressor.hh"

namespace latte
{

/** One (base size, delta size) probe of the BDI family. */
struct BdiLayout
{
    std::uint8_t encoding;      //!< value of the 4-bit compression_enc
    std::uint8_t baseBytes;     //!< base width
    std::uint8_t deltaBytes;    //!< delta width (0 = all blocks repeat base)
};

/** BDI compressor/decompressor engine. */
class BdiCompressor : public Compressor
{
  public:
    explicit BdiCompressor(const CompressorTimings &timings = {});

    CompressorId id() const override { return CompressorId::Bdi; }

    CompressedLine compress(std::span<const std::uint8_t> line) override;
    LineMeta probe(std::span<const std::uint8_t> line) override;
    void decompressInto(const CompressedLine &line,
                        std::span<std::uint8_t> out) const override;

    Cycles compressLatency() const override { return compressLat_; }
    Cycles decompressLatency() const override { return decompressLat_; }

    /** Encoding ids (stored in the 4-bit compression_enc tag field). */
    static constexpr std::uint8_t kEncZeros = 0x0;
    static constexpr std::uint8_t kEncRep8 = 0x1;
    static constexpr std::uint8_t kEncB8D1 = 0x2;
    static constexpr std::uint8_t kEncB8D2 = 0x3;
    static constexpr std::uint8_t kEncB8D4 = 0x4;
    static constexpr std::uint8_t kEncB4D1 = 0x5;
    static constexpr std::uint8_t kEncB4D2 = 0x6;
    static constexpr std::uint8_t kEncB2D1 = 0x7;

  private:
    /** Try one base/delta layout; returns nullopt-equivalent via ok flag. */
    bool tryLayout(std::span<const std::uint8_t> line,
                   const BdiLayout &layout, CompressedLine &out) const;

    Cycles compressLat_;
    Cycles decompressLat_;
};

} // namespace latte

#endif // LATTE_COMPRESS_BDI_HH
