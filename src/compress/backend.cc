#include "backend.hh"

#include <atomic>
#include <cstdlib>

#include "common/logging.hh"

namespace latte
{

namespace
{

/**
 * The dispatch table. Scalar is unconditional; the AVX2 row exists
 * only when CMake compiled its translation unit (per-file ISA flag +
 * LATTE_SIMD_AVX2), so a non-x86 build degrades to a scalar-only table
 * instead of failing to link.
 */
constexpr CompressorBackend kBackends[] = {
    {"scalar", IsaLevel::Scalar, &simd::scalar::bdiScan,
     &simd::scalar::fpcCountBits},
#if defined(LATTE_SIMD_AVX2)
    {"avx2", IsaLevel::Avx2, &simd::avx2::bdiScan,
     &simd::avx2::fpcCountBits},
#endif
};

bool
isaSupported(IsaLevel isa)
{
    switch (isa) {
      case IsaLevel::Scalar:
        return true;
      case IsaLevel::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        return __builtin_cpu_supports("avx2");
#else
        return false;
#endif
    }
    return false;
}

const CompressorBackend *
bestSupported()
{
    const CompressorBackend *best = &kBackends[0];
    for (const auto &backend : kBackends) {
        if (compressorBackendSupported(backend))
            best = &backend;
    }
    return best;
}

const CompressorBackend *
initialBackend()
{
    if (const char *env = std::getenv("LATTE_COMPRESS_BACKEND")) {
        std::string error;
        if (const CompressorBackend *backend =
                resolveCompressorBackend(env, &error)) {
            return backend;
        }
        latte_warn("LATTE_COMPRESS_BACKEND: {}; using auto", error);
    }
    return bestSupported();
}

std::atomic<const CompressorBackend *> &
activeSlot()
{
    // Lazy so the env override applies no matter which binary's main()
    // we are in; atomic so concurrent sweep cells flipping backends
    // stay TSan-clean (all backends are bit-identical, so a racing
    // probe is benign either way).
    static std::atomic<const CompressorBackend *> active{
        initialBackend()};
    return active;
}

} // namespace

std::span<const CompressorBackend>
compressorBackends()
{
    return kBackends;
}

bool
compressorBackendSupported(const CompressorBackend &backend)
{
    return isaSupported(backend.isa);
}

const CompressorBackend *
resolveCompressorBackend(std::string_view name, std::string *error)
{
    if (name.empty() || name == "auto")
        return bestSupported();
    for (const auto &backend : kBackends) {
        if (name != backend.name)
            continue;
        if (!compressorBackendSupported(backend)) {
            if (error) {
                *error = "compress backend '" + std::string(name) +
                         "' is not supported on this host";
            }
            return nullptr;
        }
        return &backend;
    }
    if (error) {
        std::string known = "auto";
        for (const auto &backend : kBackends)
            known += std::string("|") + backend.name;
        *error = "unknown compress backend '" + std::string(name) +
                 "' (expected " + known + ")";
    }
    return nullptr;
}

const CompressorBackend &
activeCompressorBackend()
{
    return *activeSlot().load(std::memory_order_relaxed);
}

void
setCompressorBackend(const CompressorBackend &backend)
{
    activeSlot().store(&backend, std::memory_order_relaxed);
}

} // namespace latte
