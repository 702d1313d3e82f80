/**
 * @file
 * The compression-algorithm identifier, shared by every layer. Lives in
 * common/ (not compress/) because configuration types below the
 * compressor library — CacheLevelConfig's static-algorithm knob, the
 * link-compression channel setting — name algorithms without depending
 * on the encoder implementations.
 */

#ifndef LATTE_COMMON_COMPRESS_ID_HH
#define LATTE_COMMON_COMPRESS_ID_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace latte
{

/** Identifier of a compression algorithm / operating mode. */
enum class CompressorId : std::uint8_t
{
    None = 0,
    Bdi,
    Fpc,
    CpackZ,
    Bpc,
    Sc,
};

/** Number of CompressorId values (for per-mode arrays). */
constexpr std::size_t kNumCompressorIds = 6;

/** Every CompressorId in enum order: None, then the five algorithms. */
inline constexpr std::array<CompressorId, kNumCompressorIds>
    kCompressorIds = {CompressorId::None, CompressorId::Bdi,
                      CompressorId::Fpc,  CompressorId::CpackZ,
                      CompressorId::Bpc,  CompressorId::Sc};

/** The five algorithms studied in the paper, in Table I order. */
inline constexpr std::span<const CompressorId, kNumCompressorIds - 1>
    kAlgorithmIds = std::span(kCompressorIds).subspan<1>();

/** Human-readable algorithm name. */
const char *compressorName(CompressorId id);

} // namespace latte

#endif // LATTE_COMMON_COMPRESS_ID_HH
