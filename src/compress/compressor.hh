/**
 * @file
 * Abstract interface for cache-line compression algorithms. All five
 * algorithms studied in the paper (Table I) implement this interface with
 * bit-exact, round-trippable encoders so compression ratios are measured
 * on real bytes rather than assumed.
 *
 * The interface splits size determination from payload materialisation
 * (the same split Pekhimenko et al. make in hardware): probe() computes
 * the exact encoded bit count without building the bit stream, and
 * compress() additionally materialises the payload. Most simulated fills
 * only ever need the size — admission checks, sampler votes, sub-block
 * accounting — so the cache calls probe() on its hot path and reserves
 * compress() for lines whose bytes must actually round-trip. An engine
 * models bytes and latency only: EnergyModel prices its events from
 * CompressorTimings.
 */

#ifndef LATTE_COMPRESS_COMPRESSOR_HH
#define LATTE_COMPRESS_COMPRESSOR_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/bit_utils.hh"
#include "common/compress_id.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace latte
{

/** Uncompressed cache-line size used throughout the paper. */
constexpr std::uint32_t kLineBytes = 128;
constexpr std::uint32_t kLineBits = kLineBytes * 8;

/** Encoding id shared by all algorithms for the raw fallback. */
constexpr std::uint8_t kRawEncoding = 0xf;

/**
 * True when a line @p algo encoded as @p encoding is held in compressed
 * form; an uncompressed line and every raw fallback are held as the
 * plain 128 B line (no decompression, a full line of sub-blocks).
 */
constexpr bool
storedEncoded(CompressorId algo, std::uint8_t encoding)
{
    return algo != CompressorId::None && encoding != kRawEncoding;
}

/**
 * Size-only description of one compressed line: everything the cache
 * needs for admission, replacement and sub-block accounting, without the
 * encoded payload. probe() returns exactly this; CompressedLine extends
 * it with the bit stream.
 */
struct LineMeta
{
    CompressorId algo = CompressorId::None;
    /** Algorithm-specific encoding id (e.g. BDI's 4-bit compression_enc). */
    std::uint8_t encoding = 0;
    /** Exact encoded size in bits, including per-line metadata. */
    std::uint32_t sizeBits = kLineBits;
    /**
     * Compressor-state generation the line was encoded under. Only SC uses
     * this: lines encoded with a retired Huffman code generation can no
     * longer be decoded and must be invalidated (Section IV-C2).
     */
    std::uint32_t generation = 0;

    std::uint32_t
    sizeBytes() const
    {
        return static_cast<std::uint32_t>(divCeil(sizeBits, 8));
    }

    /** Held in compressed form (see storedEncoded()). */
    bool encoded() const { return storedEncoded(algo, encoding); }

    /** Compression ratio vs. the 128 B uncompressed line. */
    double
    ratio() const
    {
        return static_cast<double>(kLineBits) /
               static_cast<double>(sizeBits == 0 ? 1 : sizeBits);
    }
};

/**
 * Fixed-capacity inline byte buffer for encoded payloads. A cache line
 * is 128 B and every encoder falls back to raw at kLineBits, so the
 * worst payload is the raw line itself; 160 B of headroom keeps the
 * whole CompressedLine allocation-free.
 */
class InlineBytes
{
  public:
    static constexpr std::size_t kCapacity = 160;

    InlineBytes() = default;

    void
    assign(std::span<const std::uint8_t> bytes)
    {
        latte_assert(bytes.size() <= kCapacity,
                     "payload overflows inline capacity");
        std::memcpy(data_.data(), bytes.data(), bytes.size());
        size_ = bytes.size();
    }

    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const std::uint8_t *data() const { return data_.data(); }
    std::uint8_t *data() { return data_.data(); }
    const std::uint8_t *begin() const { return data_.data(); }
    const std::uint8_t *end() const { return data_.data() + size_; }
    std::uint8_t operator[](std::size_t i) const { return data_[i]; }

    std::span<const std::uint8_t> span() const { return {data(), size_}; }
    operator std::span<const std::uint8_t>() const { return span(); }

    bool
    operator==(const InlineBytes &other) const
    {
        return size_ == other.size_ &&
               std::memcmp(data_.data(), other.data_.data(), size_) == 0;
    }

  private:
    std::array<std::uint8_t, kCapacity> data_{};
    std::size_t size_ = 0;
};

/**
 * The result of compressing one cache line: the exact encoded bit count
 * plus the payload needed to reverse the encoding. Payload storage is
 * inline — copying a CompressedLine never touches the heap.
 */
struct CompressedLine : LineMeta
{
    /** Encoded payload (LSB-first bit stream packed into bytes). */
    InlineBytes payload;

    /** The size-only view of this line. */
    const LineMeta &meta() const { return *this; }
};

/** Abstract cache-line compressor. */
class Compressor
{
  public:
    virtual ~Compressor() = default;

    virtual CompressorId id() const = 0;

    /**
     * Compress one 128 B line. Implementations must fall back to a raw
     * encoding (sizeBits == kLineBits) when the algorithm would expand
     * the line.
     */
    virtual CompressedLine compress(std::span<const std::uint8_t> line) = 0;

    /**
     * The size-only fast path: the exact LineMeta compress() would
     * produce for @p line (kLineBytes, no alignment requirement) —
     * same algo, encoding, sizeBits and generation — without
     * materialising any bit stream. BDI and FPC run the active
     * backend's kernel; every backend gives the same answer. Pinned
     * to compress() by the ProbeMatchesCompress property test.
     */
    virtual LineMeta probe(std::span<const std::uint8_t> line) = 0;

    /**
     * Reverse compress() into caller-provided storage (exactly
     * kLineBytes). @pre line.algo == id() and, for stateful algorithms,
     * line.generation is still decodable.
     */
    virtual void decompressInto(const CompressedLine &line,
                                std::span<std::uint8_t> out) const = 0;

    /** Pipeline latency of the compression engine in core cycles. */
    virtual Cycles compressLatency() const = 0;

    /** Pipeline latency of the decompression engine in core cycles. */
    virtual Cycles decompressLatency() const = 0;
};

/** Produce a raw (uncompressed) encoding of @p line. */
CompressedLine makeRawLine(CompressorId id,
                           std::span<const std::uint8_t> line);

/** The LineMeta of a raw encoding (what probe() returns on fallback). */
LineMeta makeRawMeta(CompressorId id);

/**
 * The LineMeta of a probe that measured @p size_bits: the shared
 * reject-path helper. Every compressor funnels its probe results
 * through here so the raw fallback (anything at or above kLineBits)
 * can't drift between algorithms — one place owns the uncompressed
 * size and tag. @p generation is threaded through for SC.
 */
inline LineMeta
makeProbedMeta(CompressorId id, std::uint8_t encoding,
               std::uint32_t size_bits, std::uint32_t generation = 0)
{
    LineMeta meta;
    if (size_bits >= kLineBits) {
        meta = makeRawMeta(id);
    } else {
        meta.algo = id;
        meta.encoding = encoding;
        meta.sizeBits = size_bits;
    }
    meta.generation = generation;
    return meta;
}

/** Recover the bytes of a raw encoding into caller storage. */
void decodeRawLineInto(const CompressedLine &line,
                       std::span<std::uint8_t> out);

} // namespace latte

#endif // LATTE_COMPRESS_COMPRESSOR_HH
