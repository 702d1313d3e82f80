/**
 * @file
 * Data-value generators. Section II-A of the paper ties each benchmark's
 * compressibility to the value locality of its data: integer/pointer data
 * has low bit-variance (spatial locality, BDI/BPC-friendly), repeated
 * floating-point values have temporal locality (SC-friendly). These
 * generators synthesise backing-store bytes with those statistics so the
 * real compressors reproduce the paper's per-algorithm affinities.
 */

#ifndef LATTE_WORKLOADS_VALUE_GENS_HH
#define LATTE_WORKLOADS_VALUE_GENS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "mem/memory_image.hh"

namespace latte
{

/** Deterministic per-line hash for value generation. */
std::uint64_t mixHash(std::uint64_t a, std::uint64_t b,
                      std::uint64_t c = 0x243f6a8885a308d3ull);

/** All bytes zero (freshly-allocated buffers, sparse matrices). */
class ZeroGen : public LineGenerator
{
  public:
    void generate(Addr, std::span<std::uint8_t> out) override;
};

/** Uniformly random bytes: incompressible under every algorithm. */
class RandomGen : public LineGenerator
{
  public:
    explicit RandomGen(std::uint64_t seed) : seed_(seed) {}
    void generate(Addr line_addr, std::span<std::uint8_t> out) override;

  private:
    std::uint64_t seed_;
};

/**
 * 32-bit integers that grow slowly with the address plus small noise:
 * strong *spatial* value locality (BDI's narrow deltas, BPC's quiet bit
 * planes). Models index arrays, degree counts, coordinates.
 */
class IntArrayGen : public LineGenerator
{
  public:
    IntArrayGen(std::uint64_t seed, std::uint32_t base,
                std::uint32_t addr_scale, std::uint32_t noise)
        : seed_(seed), base_(base), addrScale_(addr_scale), noise_(noise)
    {}

    void generate(Addr line_addr, std::span<std::uint8_t> out) override;

  private:
    std::uint64_t seed_;
    std::uint32_t base_;
    std::uint32_t addrScale_;   //!< value increase per 4 B element
    std::uint32_t noise_;       //!< uniform per-element jitter
};

/**
 * 64-bit pointers into a small heap: one large shared base with small
 * deltas (BDI's 8-byte-base encodings). Models linked structures.
 */
class PointerArrayGen : public LineGenerator
{
  public:
    PointerArrayGen(std::uint64_t seed, std::uint64_t heap_base,
                    std::uint64_t heap_span)
        : seed_(seed), heapBase_(heap_base), heapSpan_(heap_span)
    {}

    void generate(Addr line_addr, std::span<std::uint8_t> out) override;

  private:
    std::uint64_t seed_;
    std::uint64_t heapBase_;
    std::uint64_t heapSpan_;
};

/**
 * 32-bit words drawn from a small palette of distinct values: strong
 * *temporal* value locality (SC's Huffman table captures the palette)
 * with poor spatial locality when palette values are far apart. Models
 * quantised floating-point data, categorical codes, lookup tables.
 */
class PaletteGen : public LineGenerator
{
  public:
    /**
     * @param noise_fraction fraction of words replaced by random values
     *        (escape pressure for SC; caps the achievable ratio at
     *        realistic levels — the paper reports ~3.2x for SS).
     */
    PaletteGen(std::uint64_t seed, std::uint32_t palette_size,
               bool float_values, double zipf_s = 1.2,
               double noise_fraction = 0.0);

    void generate(Addr line_addr, std::span<std::uint8_t> out) override;

    const std::vector<std::uint32_t> &palette() const { return palette_; }
    const std::vector<double> &cdf() const { return cdf_; }

    /**
     * The palette index a draw of @p u picks: the first @p cdf entry
     * >= u among all but the last, else the last. A branch-free
     * halving search; @p cdf is non-empty and, but for its last entry,
     * non-decreasing.
     */
    static std::size_t pick(std::span<const double> cdf, double u);

  private:
    std::uint64_t seed_;
    std::vector<std::uint32_t> palette_;
    std::vector<double> cdf_;   //!< Zipf-like popularity skew
    double noiseFraction_;
};

/**
 * IEEE-754 floats around a mean with relative jitter: high mantissa
 * entropy, few repeated values — resists all algorithms except partially
 * BPC (shared exponents). Models raw sensor/simulation data.
 */
class FloatNoiseGen : public LineGenerator
{
  public:
    FloatNoiseGen(std::uint64_t seed, float mean, float rel_noise)
        : seed_(seed), mean_(mean), relNoise_(rel_noise)
    {}

    void generate(Addr line_addr, std::span<std::uint8_t> out) override;

  private:
    std::uint64_t seed_;
    float mean_;
    float relNoise_;
};

/**
 * Blend of two generators: each line comes from A with probability
 * @p a_fraction, else from B. Models structures-of-arrays with mixed
 * member types.
 */
class MixGen : public LineGenerator
{
  public:
    MixGen(std::uint64_t seed, std::shared_ptr<LineGenerator> a,
           std::shared_ptr<LineGenerator> b, double a_fraction)
        : seed_(seed), a_(std::move(a)), b_(std::move(b)),
          aFraction_(a_fraction)
    {}

    void generate(Addr line_addr, std::span<std::uint8_t> out) override;

  private:
    std::uint64_t seed_;
    std::shared_ptr<LineGenerator> a_;
    std::shared_ptr<LineGenerator> b_;
    double aFraction_;
};

} // namespace latte

#endif // LATTE_WORKLOADS_VALUE_GENS_HH
