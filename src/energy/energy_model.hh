/**
 * @file
 * GPU energy model in the spirit of GPUWattch (the paper's Section IV-A
 * methodology): per-event dynamic energies for the core, caches,
 * interconnect and DRAM, the paper's published compressor/decompressor
 * energies (Section IV-C), and a leakage term proportional to execution
 * time. Absolute joules are representative of a Fermi-class part; the
 * evaluation uses energy *normalised to the uncompressed baseline*, as
 * the paper does.
 */

#ifndef LATTE_ENERGY_ENERGY_MODEL_HH
#define LATTE_ENERGY_ENERGY_MODEL_HH

#include <cstdint>
#include <iterator>

#include "common/config.hh"
#include "sim/gpu.hh"

namespace latte
{

/** Event totals harvested from a run (or the delta between snapshots). */
struct UsageCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t nocBytes = 0;
    std::uint64_t dramBytes = 0;
    std::uint64_t bdiCompressions = 0;
    std::uint64_t scCompressions = 0;
    std::uint64_t bpcCompressions = 0;
    std::uint64_t bdiDecompressions = 0;
    std::uint64_t scDecompressions = 0;
    std::uint64_t bpcDecompressions = 0;
    // L2-level compression events (zero unless --l2-compress is on).
    std::uint64_t l2BdiCompressions = 0;
    std::uint64_t l2BpcCompressions = 0;
    std::uint64_t l2BdiDecompressions = 0;
    std::uint64_t l2BpcDecompressions = 0;
    std::uint64_t l2FpcCompressions = 0;
    std::uint64_t l2CpackCompressions = 0;
    std::uint64_t l2FpcDecompressions = 0;
    std::uint64_t l2CpackDecompressions = 0;
    /** Compressed L2<->DRAM transfers (zero unless --link-compress). */
    std::uint64_t linkTransfers = 0;

    UsageCounts operator-(const UsageCounts &rhs) const;
    UsageCounts &operator+=(const UsageCounts &rhs);
};

/** One UsageCounts counter: its document name and its member. */
struct UsageCounter
{
    const char *name;
    std::uint64_t UsageCounts::*member;
    /** L2 or link event: zero unless those levels compress. */
    bool belowL1;
};

/**
 * Every counter, once. Drives operator-, operator+= and the JSON field
 * list, which leaves out a zero below-L1 counter.
 */
inline constexpr UsageCounter kUsageCounters[] = {
    {"cycles", &UsageCounts::cycles, false},
    {"instructions", &UsageCounts::instructions, false},
    {"l1Accesses", &UsageCounts::l1Accesses, false},
    {"l2Accesses", &UsageCounts::l2Accesses, false},
    {"nocBytes", &UsageCounts::nocBytes, false},
    {"dramBytes", &UsageCounts::dramBytes, false},
    {"bdiCompressions", &UsageCounts::bdiCompressions, false},
    {"scCompressions", &UsageCounts::scCompressions, false},
    {"bpcCompressions", &UsageCounts::bpcCompressions, false},
    {"bdiDecompressions", &UsageCounts::bdiDecompressions, false},
    {"scDecompressions", &UsageCounts::scDecompressions, false},
    {"bpcDecompressions", &UsageCounts::bpcDecompressions, false},
    {"l2BdiCompressions", &UsageCounts::l2BdiCompressions, true},
    {"l2BpcCompressions", &UsageCounts::l2BpcCompressions, true},
    {"l2BdiDecompressions", &UsageCounts::l2BdiDecompressions, true},
    {"l2BpcDecompressions", &UsageCounts::l2BpcDecompressions, true},
    {"l2FpcCompressions", &UsageCounts::l2FpcCompressions, true},
    {"l2CpackCompressions", &UsageCounts::l2CpackCompressions, true},
    {"l2FpcDecompressions", &UsageCounts::l2FpcDecompressions, true},
    {"l2CpackDecompressions", &UsageCounts::l2CpackDecompressions, true},
    {"linkTransfers", &UsageCounts::linkTransfers, true},
};

static_assert(sizeof(UsageCounts) ==
                  std::size(kUsageCounters) * sizeof(std::uint64_t),
              "every UsageCounts member needs a kUsageCounters entry");

/** Pull current totals out of the simulated GPU. */
UsageCounts harvestUsage(Gpu &gpu);

/** Energy in millijoules, with the Figure 14 style breakdown. */
struct EnergyReport
{
    double coreDynamicMj = 0;
    double l1Mj = 0;
    double l2Mj = 0;
    double nocMj = 0;
    double dramMj = 0;
    double compressionMj = 0;    //!< L1 compress + decompress events
    double l2CompressionMj = 0;  //!< compressed-L2 events
    double linkCompressionMj = 0; //!< L2<->DRAM link (de)compression
    double staticMj = 0;         //!< leakage over execution time

    double
    totalMj() const
    {
        return coreDynamicMj + l1Mj + l2Mj + nocMj + dramMj +
               compressionMj + l2CompressionMj + linkCompressionMj +
               staticMj;
    }

    /** Data-movement slice (L2 + NoC + DRAM), as Figure 14 groups it. */
    double dataMovementMj() const { return l2Mj + nocMj + dramMj; }
};

/** Per-event energy constants (nJ) and the leakage rate. */
struct EnergyParams
{
    double instructionNj = 0.8;      //!< warp instruction, 32 lanes
    double l1AccessNj = 0.06;
    double l2AccessNj = 0.35;
    double nocByteNj = 0.012;
    double dramByteNj = 0.16;
    double staticNjPerCycle = 18.0;  //!< chip leakage at core clock
};

/** The energy model proper. */
class EnergyModel
{
  public:
    explicit EnergyModel(const GpuConfig &cfg, EnergyParams params = {})
        : cfg_(cfg), params_(params)
    {}

    EnergyReport compute(const UsageCounts &usage) const;

  private:
    GpuConfig cfg_;
    EnergyParams params_;
};

} // namespace latte

#endif // LATTE_ENERGY_ENERGY_MODEL_HH
