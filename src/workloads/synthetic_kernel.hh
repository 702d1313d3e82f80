/**
 * @file
 * A parameterised kernel program. Each warp executes a sequence of
 * phases; each phase repeats a loop body of loads, dependent ALU work and
 * stores over an address pattern. Everything is a pure function of
 * (warp, pc), so execution is deterministic and replayable. The phase
 * structure is what gives workloads the *time-varying* latency tolerance
 * and compression affinity that LATTE-CC exploits (Section II-C).
 */

#ifndef LATTE_WORKLOADS_SYNTHETIC_KERNEL_HH
#define LATTE_WORKLOADS_SYNTHETIC_KERNEL_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/instruction.hh"

namespace latte
{

/** Memory reference pattern of one phase. */
enum class PatternKind : std::uint8_t
{
    Streaming,  //!< sweep the region once per pass; no reuse
    HotReuse,   //!< per-CTA slice with a hot subset; coalesced
    Irregular,  //!< divergent (multi-line) accesses within the slice
    Tiled,      //!< sequential sweep of the slice; heavy short-term reuse
};

/** Address-pattern parameters. */
struct Pattern
{
    PatternKind kind = PatternKind::HotReuse;
    Addr base = 0x10000000;
    std::uint64_t sizeBytes = 1ull << 20;
    /** Per-CTA private working slice (HotReuse/Irregular/Tiled). */
    std::uint64_t sliceBytes = 8 * 1024;
    /** Hot subset within the slice (HotReuse/Irregular). */
    std::uint64_t hotBytes = 2 * 1024;
    double hotFraction = 0.8;
    /** Distinct lines touched per divergent load (1..32, Irregular). */
    std::uint32_t divergentLanes = 8;
    /** Per-thread element size (Streaming). */
    std::uint32_t elemBytes = 4;
};

/** One phase of the loop nest. */
struct PhaseSpec
{
    std::uint32_t iterations = 100;
    std::uint32_t loadsPerIter = 1;
    std::uint32_t aluPerIter = 4;
    Cycles aluLatency = 4;
    std::uint32_t storesPerIter = 0;
    Pattern pattern;
};

/** Full kernel description. */
struct KernelSpec
{
    std::string name = "kernel";
    std::uint32_t ctas = 120;
    std::uint32_t warpsPerCta = 8;
    std::uint64_t seed = 1;
    std::vector<PhaseSpec> phases;
};

/** KernelProgram driven by a KernelSpec. */
class SyntheticKernel : public KernelProgram
{
  public:
    explicit SyntheticKernel(KernelSpec spec);

    std::string name() const override { return spec_.name; }
    std::uint32_t numCtas() const override { return spec_.ctas; }
    std::uint32_t warpsPerCta() const override
    {
        return spec_.warpsPerCta;
    }

    DecodedInstr fetch(std::uint32_t global_warp,
                       std::uint64_t pc) override;

    /** Instructions each warp executes (excluding Exit). */
    std::uint64_t instructionsPerWarp() const { return totalInstrs_; }

    const KernelSpec &spec() const { return spec_; }

  private:
    /**
     * Insert into @p lines every line that memory instruction @p mem_idx
     * of iteration @p iter touches in @p global_warp. Lane l of a warp
     * addresses line_base + 4·l (Streaming: element tid·elemBytes of the
     * region), so lanes fall into spans that each reach less than one
     * line, and a span's lines are those of its first and last lane.
     */
    void addLines(LineList &lines, const Pattern &pattern,
                  std::uint32_t global_warp, std::uint64_t iter,
                  std::uint32_t mem_idx) const;

    KernelSpec spec_;
    std::vector<std::uint64_t> phaseInstrStart_;
    std::vector<std::uint64_t> phaseIterStart_;
    std::uint64_t totalInstrs_ = 0;
};

} // namespace latte

#endif // LATTE_WORKLOADS_SYNTHETIC_KERNEL_HH
