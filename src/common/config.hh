/**
 * @file
 * Simulated GPU configuration. Defaults reproduce Table II of the
 * LATTE-CC paper (a GTX480/Fermi-class device as configured in
 * GPGPU-Sim 3.2.2) plus the compression latencies/energies of Section IV-C.
 *
 * Per-level cache parameters live in CacheLevelConfig values rather than
 * flat fields, so pointing the compression machinery at another level
 * (a compressed L2 today, an L3 or an LCP-style memory controller
 * tomorrow) is a config row, not a new class.
 */

#ifndef LATTE_COMMON_CONFIG_HH
#define LATTE_COMMON_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>

#include "compress_id.hh"
#include "types.hh"

namespace latte
{

/** Per-compressor pipeline latencies and per-event energies (Sec IV-C). */
struct CompressorTimings
{
    Cycles bdiCompress = 2;
    Cycles bdiDecompress = 2;
    Cycles fpcDecompress = 5;
    Cycles cpackDecompress = 8;
    Cycles bpcCompress = 6;
    Cycles bpcDecompress = 11;
    Cycles scCompress = 6;
    Cycles scDecompress = 14;

    double bdiCompressNj = 0.192;
    double bdiDecompressNj = 0.056;
    double scCompressNj = 0.42;
    double scDecompressNj = 0.336;
    // BPC energies are not published in the paper; scaled between BDI and
    // SC proportionally to decompression latency.
    double bpcCompressNj = 0.35;
    double bpcDecompressNj = 0.26;
};

/** LATTE-CC controller parameters (Section IV-C3). */
struct LatteParams
{
    /** L1 accesses per experimental phase. */
    std::uint32_t epAccesses = 256;
    /** EPs per period (1 learning + (periodEps-1) adaptive). */
    std::uint32_t periodEps = 10;
    /** Learning EPs per period. */
    std::uint32_t learningEps = 1;
    /** Dedicated sample sets per compression mode. */
    std::uint32_t dedicatedSetsPerMode = 4;
    /** Value-frequency table entries for SC code construction. */
    std::uint32_t vftEntries = 1024;
    /** VFT counter width in bits (counters saturate). */
    std::uint32_t vftCounterBits = 12;
};

/** How a cache level stores its lines. */
enum class LevelCompress : std::uint8_t
{
    Off,    //!< uncompressed tags + full lines
    Static, //!< every insertion probed with one fixed algorithm
    Latte,  //!< per-EP adaptive mode selection at that level
};

/**
 * Geometry, timing and compression knobs of one cache level. The L1
 * instance leaves `compress` at Off because the per-SM policy catalogue
 * owns the L1 mode decision; the L2 instance is driven directly by
 * these knobs (`--l2-compress`).
 */
struct CacheLevelConfig
{
    std::uint32_t sizeBytes = 0;
    std::uint32_t lineBytes = 128;
    std::uint32_t assoc = 0;
    std::uint32_t banks = 1;
    /** Load-to-use latency of a hit at this level (L1 use). */
    Cycles hitLatency = 1;
    /** Minimum latency from the level above's miss to data (L2 use). */
    Cycles minLatency = 0;
    /** Bank busy time per request once arbitration grants it. */
    Cycles bankServiceCycles = 2;
    /**
     * Added to minLatency as the pessimistic miss-latency estimate the
     * policy uses before real miss samples arrive.
     */
    Cycles missPenaltyCycles = 40;
    /** Tag-array expansion factor for the compressed cache. */
    std::uint32_t tagFactor = 4;
    /** Compressed-data allocation granule. */
    std::uint32_t subBlockBytes = 32;
    std::uint32_t mshrEntries = 32;
    /** How lines at this level are stored. */
    LevelCompress compress = LevelCompress::Off;
    /** Algorithm used when compress == Static. */
    CompressorId staticAlgo = CompressorId::Bdi;

    std::uint32_t numSets() const
    {
        return sizeBytes / (lineBytes * assoc);
    }

    /**
     * First structural inconsistency, or nullopt. @p level prefixes the
     * message field names ("l1", "l2") so errors read like the old flat
     * configuration ("l1SizeBytes (...) must be ...").
     */
    std::optional<std::string> validationError(const char *level) const;

    /** Table II L1D: 16 KB, 128 B lines, 4-way. */
    static constexpr CacheLevelConfig l1Defaults()
    {
        CacheLevelConfig level;
        level.sizeBytes = 16 * 1024;
        level.assoc = 4;
        return level;
    }

    /** Table II L2: 768 KB, 128 B lines, 8-way, 12 banks. */
    static constexpr CacheLevelConfig l2Defaults()
    {
        CacheLevelConfig level;
        level.sizeBytes = 768 * 1024;
        level.assoc = 8;
        level.banks = 12;
        level.minLatency = 120;
        return level;
    }
};

/**
 * Parse an "off" | "static:<algo>" | "latte" compression spec into
 * @p level (algo one of bdi|fpc|cpack|bpc|sc). False on syntax errors;
 * semantic restrictions (e.g. no SC below the L1) are reported by
 * GpuConfig::validationError() so they surface as structured outcomes.
 */
bool parseLevelCompressSpec(const std::string &spec,
                            CacheLevelConfig &level);

/** Render @p level's compression knobs back to the spec string. */
std::string levelCompressSpec(const CacheLevelConfig &level);

/** Parse an "off" | "<algo>" link-compression spec. False on error. */
bool parseLinkCompressSpec(const std::string &spec, CompressorId &algo);

/** Render a link-compression setting back to the spec string. */
std::string linkCompressSpec(CompressorId algo);

/** Whole-GPU configuration (Table II defaults). */
struct GpuConfig
{
    // --- SM organisation ---
    std::uint32_t numSms = 15;
    std::uint32_t maxWarpsPerSm = 48;
    std::uint32_t maxBlocksPerSm = 8;
    std::uint32_t schedulersPerSm = 2;
    /** The latency-tolerance meter tracks issue runs of this many. */
    static constexpr std::uint32_t kMaxSchedulersPerSm = 4;
    std::uint32_t sharedMemBytes = 48 * 1024;

    // --- Cache hierarchy ---
    CacheLevelConfig l1 = CacheLevelConfig::l1Defaults();
    CacheLevelConfig l2 = CacheLevelConfig::l2Defaults();

    // --- DRAM / NoC ---
    /** Minimum L1-miss-to-DRAM-data latency. */
    Cycles dramMinLatency = 230;
    /** Peak DRAM bandwidth in bytes per SM core cycle (aggregate). */
    double dramBytesPerCycle = 128.0;
    /** Peak NoC bandwidth in bytes/cycle (aggregate, each direction). */
    double nocBytesPerCycle = 256.0;
    /** Link compression on the L2↔DRAM channel (None = off). */
    CompressorId linkCompress = CompressorId::None;

    // --- Scheduling ---
    enum class SchedPolicy { GTO, LRR };
    SchedPolicy schedPolicy = SchedPolicy::GTO;

    // --- L1 replacement ---
    enum class ReplPolicy { LRU, FIFO, SRRIP };
    ReplPolicy l1Repl = ReplPolicy::LRU;

    CompressorTimings timings;
    LatteParams latte;

    std::uint32_t l1NumSets() const { return l1.numSets(); }
    std::uint32_t l2NumSets() const { return l2.numSets(); }

    /**
     * First structural inconsistency in the configuration, or nullopt
     * if the configuration is sound. Checked: nonzero organisation
     * parameters, 1..kMaxSchedulersPerSm warp schedulers, per-level
     * cache geometry (CacheLevelConfig, 128 B lines), finite positive
     * NoC and DRAM bandwidths, a DRAM latency no shorter than the L2's,
     * the LATTE controller's dedicated sample sets fitting in the
     * sampled levels, and the level/link compression settings.
     */
    std::optional<std::string> validationError() const;

    /** latte_fatal() with the validation error, if any. */
    void validate() const;
};

} // namespace latte

#endif // LATTE_COMMON_CONFIG_HH
