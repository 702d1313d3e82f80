#include "value_gens.hh"

#include <cmath>
#include <cstring>

#include "common/bit_utils.hh"
#include "common/logging.hh"

namespace latte
{

std::uint64_t
mixHash(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    std::uint64_t x = a * 0x9e3779b97f4a7c15ull + b;
    x ^= c + 0x9e3779b97f4a7c15ull + (x << 6) + (x >> 2);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
ZeroGen::generate(Addr, std::span<std::uint8_t> out)
{
    std::fill(out.begin(), out.end(), 0);
}

void
RandomGen::generate(Addr line_addr, std::span<std::uint8_t> out)
{
    Rng rng(mixHash(seed_, line_addr));
    for (std::size_t i = 0; i < out.size(); i += 8)
        storeLe(out.data() + i, rng.next(),
                static_cast<unsigned>(std::min<std::size_t>(
                    8, out.size() - i)));
}

void
IntArrayGen::generate(Addr line_addr, std::span<std::uint8_t> out)
{
    Rng rng(mixHash(seed_, line_addr));
    for (std::size_t i = 0; i + 4 <= out.size(); i += 4) {
        const std::uint64_t element = (line_addr + i) / 4;
        std::uint32_t value = base_ +
            static_cast<std::uint32_t>(element * addrScale_);
        if (noise_ > 0)
            value += static_cast<std::uint32_t>(rng.below(noise_));
        storeLe(out.data() + i, value, 4);
    }
}

void
PointerArrayGen::generate(Addr line_addr, std::span<std::uint8_t> out)
{
    Rng rng(mixHash(seed_, line_addr));
    for (std::size_t i = 0; i + 8 <= out.size(); i += 8) {
        const std::uint64_t ptr =
            heapBase_ + (rng.below(heapSpan_ / 8) * 8);
        storeLe(out.data() + i, ptr, 8);
    }
}

PaletteGen::PaletteGen(std::uint64_t seed, std::uint32_t palette_size,
                       bool float_values, double zipf_s,
                       double noise_fraction)
    : seed_(seed), noiseFraction_(noise_fraction)
{
    latte_assert(palette_size >= 1);
    Rng rng(mixHash(seed, 0x9a1e));
    palette_.reserve(palette_size);
    for (std::uint32_t i = 0; i < palette_size; ++i) {
        if (float_values) {
            // Distinct float values spread over a couple of decades.
            const float value = 0.001f +
                static_cast<float>(rng.uniform()) * 1000.0f;
            std::uint32_t bits;
            std::memcpy(&bits, &value, 4);
            palette_.push_back(bits);
        } else {
            palette_.push_back(static_cast<std::uint32_t>(rng.next()));
        }
    }

    // Zipf-like CDF so a few palette entries dominate (as real data does).
    cdf_.resize(palette_size);
    double sum = 0;
    for (std::uint32_t i = 0; i < palette_size; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i + 1), zipf_s);
    double acc = 0;
    for (std::uint32_t i = 0; i < palette_size; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), zipf_s) / sum;
        cdf_[i] = acc;
    }
    cdf_.back() = 1.0;
}

void
PaletteGen::generate(Addr line_addr, std::span<std::uint8_t> out)
{
    Rng rng(mixHash(seed_, line_addr));
    for (std::size_t i = 0; i + 4 <= out.size(); i += 4) {
        if (noiseFraction_ > 0 && rng.chance(noiseFraction_)) {
            storeLe(out.data() + i,
                    static_cast<std::uint32_t>(rng.next()), 4);
            continue;
        }
        storeLe(out.data() + i, palette_[pick(cdf_, rng.uniform())], 4);
    }
}

std::size_t
PaletteGen::pick(std::span<const double> cdf, double u)
{
    // Lower bound over cdf[0, n): the answer stays in [base, base + n]
    // while n halves, each step one compare and a conditional move.
    std::size_t n = cdf.size() - 1;
    if (n == 0)
        return 0;
    const double *base = cdf.data();
    while (n > 1) {
        const std::size_t half = n / 2;
        base = base[half] < u ? base + half : base;
        n -= half;
    }
    return static_cast<std::size_t>(base - cdf.data()) + (*base < u);
}

void
FloatNoiseGen::generate(Addr line_addr, std::span<std::uint8_t> out)
{
    Rng rng(mixHash(seed_, line_addr));
    for (std::size_t i = 0; i + 4 <= out.size(); i += 4) {
        const float value = mean_ *
            (1.0f + relNoise_ *
                        (static_cast<float>(rng.uniform()) - 0.5f));
        std::uint32_t bits;
        std::memcpy(&bits, &value, 4);
        storeLe(out.data() + i, bits, 4);
    }
}

void
MixGen::generate(Addr line_addr, std::span<std::uint8_t> out)
{
    const bool use_a =
        (mixHash(seed_, line_addr, 0x77) % 1000) <
        static_cast<std::uint64_t>(aFraction_ * 1000.0);
    (use_a ? a_ : b_)->generate(line_addr, out);
}

} // namespace latte
