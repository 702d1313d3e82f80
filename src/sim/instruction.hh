/**
 * @file
 * The abstract instruction stream executed by warps. Workloads supply a
 * KernelProgram that deterministically produces each warp's instructions;
 * the SIMT core model executes them against the timing model. This plays
 * the role GPGPU-Sim's PTX front end plays for the paper, at the
 * granularity that matters for the study: ALU work, the memory lines a
 * warp's lanes address, and control of warp-level parallelism over time.
 */

#ifndef LATTE_SIM_INSTRUCTION_HH
#define LATTE_SIM_INSTRUCTION_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace latte
{

/** Instruction classes the timing model distinguishes. */
enum class Op : std::uint8_t
{
    Alu,    //!< arithmetic; completes after `latency` cycles
    Sfu,    //!< special function; like Alu but typically longer latency
    Load,   //!< global load; warp waits for all of its line accesses
    Store,  //!< global store; fire-and-forget (write-avoid L1)
    Exit,   //!< warp terminates
};

/**
 * The distinct 128 B line addresses one warp instruction touches, kept
 * in ascending order. A warp has 32 lanes, so 32 lines is the most it
 * can hold; the storage is inline, so building one never allocates.
 * Lines past size() are never set nor read: a fetch neither zero-fills
 * the 256 B array nor copies more than size() lines.
 */
class LineList
{
  public:
    static constexpr std::size_t kCapacity = 32;

    // User-provided, so even a value-initialised LineList{} (as in
    // DecodedInstr{}) leaves the array unset.
    LineList() {}
    LineList(const LineList &other) : size_(other.size_)
    {
        std::copy(other.begin(), other.end(), lines_.data());
    }
    LineList &
    operator=(const LineList &other)
    {
        if (this != &other) {
            size_ = other.size_;
            std::copy(other.begin(), other.end(), lines_.data());
        }
        return *this;
    }

    /** Add line address @p line unless present; the order stays ascending. */
    void
    insert(Addr line)
    {
        std::size_t pos = size_;
        while (pos > 0 && lines_[pos - 1] > line)
            --pos;
        if (pos > 0 && lines_[pos - 1] == line)
            return;
        latte_assert(size_ < kCapacity, "more lines than warp lanes");
        std::copy_backward(begin() + pos, end(), lines_.data() + size_ + 1);
        lines_[pos] = line;
        ++size_;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const Addr *begin() const { return lines_.data(); }
    const Addr *end() const { return lines_.data() + size_; }
    operator std::span<const Addr>() const { return {begin(), size_}; }

    friend bool
    operator==(const LineList &a, const LineList &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    std::array<Addr, kCapacity> lines_;
    std::size_t size_ = 0;
};

/** One decoded warp instruction. */
struct DecodedInstr
{
    Op op = Op::Exit;
    /** Completion latency for Alu/Sfu. */
    Cycles latency = 1;
    /** Load/Store: the distinct lines the warp's lanes address. */
    LineList laneAddrs;
};

/**
 * A kernel: a grid of CTAs, each of `warpsPerCta` warps, whose
 * instruction stream is a deterministic function of (global warp id, pc).
 */
class KernelProgram
{
  public:
    virtual ~KernelProgram() = default;

    virtual std::string name() const = 0;
    virtual std::uint32_t numCtas() const = 0;
    virtual std::uint32_t warpsPerCta() const = 0;

    /**
     * Produce the instruction at @p pc of @p global_warp. Must be
     * deterministic: re-fetching the same (warp, pc) yields the same
     * instruction.
     */
    virtual DecodedInstr fetch(std::uint32_t global_warp,
                               std::uint64_t pc) = 0;
};

} // namespace latte

#endif // LATTE_SIM_INSTRUCTION_HH
