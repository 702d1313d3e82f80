/**
 * @file
 * Runtime-dispatched compression kernel backends. Each backend is a
 * descriptor naming an ISA tier and the two probe kernels it
 * accelerates (BDI layout scan, FPC word classifier); the scalar
 * backend is always compiled and every accelerated backend is pinned
 * bit-identical to it, so switching backends can never change a
 * simulation result — only how fast probes run. SC has no kernel
 * here: its probe is one walk of the code book's symbol table
 * (HuffmanCode::encodedBits), on every backend.
 *
 * Dispatch is process-wide: one atomic pointer, resolved lazily on
 * first use to the best ISA the host supports (overridable with the
 * LATTE_COMPRESS_BACKEND environment variable or --compress-backend).
 * Another ISA is one more table row — callers go through the
 * descriptor and never name an ISA directly.
 */

#ifndef LATTE_COMPRESS_BACKEND_HH
#define LATTE_COMPRESS_BACKEND_HH

#include <span>
#include <string>
#include <string_view>

#include "compress/simd/kernels.hh"

namespace latte
{

/** Instruction-set tier a backend's kernels are compiled for. */
enum class IsaLevel : std::uint8_t
{
    Scalar = 0,
    Avx2,
};

/** One row of the kernel dispatch table. */
struct CompressorBackend
{
    const char *name;             //!< CLI / env / metadata identifier
    IsaLevel isa;                 //!< host support requirement
    simd::BdiScanFn bdiScan;
    simd::FpcCountBitsFn fpcCountBits;
};

/** Every compiled-in backend, scalar first, fastest last. */
std::span<const CompressorBackend> compressorBackends();

/** True if the host CPU can execute @p backend's kernels. */
bool compressorBackendSupported(const CompressorBackend &backend);

/**
 * Look up a backend by name; "auto" (or empty) picks the fastest
 * supported one. Returns nullptr for unknown or unsupported names,
 * with a human-readable reason in @p error when provided.
 */
const CompressorBackend *resolveCompressorBackend(std::string_view name,
                                                  std::string *error);

/**
 * The backend every compressor probe dispatches through. Initialised
 * lazily: LATTE_COMPRESS_BACKEND if set and valid (invalid values warn
 * and fall back), otherwise the fastest supported backend.
 */
const CompressorBackend &activeCompressorBackend();

/** Install @p backend process-wide (--compress-backend, tests). */
void setCompressorBackend(const CompressorBackend &backend);

} // namespace latte

#endif // LATTE_COMPRESS_BACKEND_HH
