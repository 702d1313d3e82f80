/**
 * @file
 * Functional memory state. The simulator splits function from timing:
 * caches and DRAM model *when* data arrives, while the MemoryImage holds
 * *what* the bytes are. Workload generators install LineGenerators over
 * address regions so lines materialise lazily with the value-locality
 * characteristics of the benchmark being modelled — the compressors then
 * operate on those real bytes.
 */

#ifndef LATTE_MEM_MEMORY_IMAGE_HH
#define LATTE_MEM_MEMORY_IMAGE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hh"

namespace latte
{

/** Cache-line granular backing-data synthesiser. */
class LineGenerator
{
  public:
    virtual ~LineGenerator() = default;

    /** Fill the 128 bytes of the line at @p line_addr. */
    virtual void generate(Addr line_addr, std::span<std::uint8_t> out) = 0;
};

/**
 * Sparse, lazily materialised byte-addressable memory. One run owns and
 * steps each image on one thread, so it takes no lock. Lines live in
 * fixed-size chunks that never move, found through an open-addressing
 * index that grows by rehashing. Simulations never write the image;
 * writeBytes patches a line where it lies.
 */
class MemoryImage
{
  public:
    static constexpr std::uint32_t kLineBytes = 128;
    using Line = std::array<std::uint8_t, kLineBytes>;

    /**
     * Route lines in [base, base+size) to @p gen. Regions must not
     * overlap; later registrations take precedence if they do.
     */
    void addRegion(Addr base, Addr size, std::shared_ptr<LineGenerator> gen);

    /**
     * Read the full line containing @p addr (materialising it). The
     * reference stays valid, and shows later writes, for the image's
     * lifetime. Line content is a pure function of the address and the
     * writes so far, so materialisation order cannot change what any
     * reader sees.
     */
    const Line &line(Addr addr) { return materialise(lineAddr(addr)); }

    /** Read @p out.size() bytes starting at @p addr. */
    void readBytes(Addr addr, std::span<std::uint8_t> out);

    /** Write bytes starting at @p addr. */
    void writeBytes(Addr addr, std::span<const std::uint8_t> in);

    /** Number of lines materialised so far. */
    std::size_t residentLines() const { return resident_; }

    /** Align @p addr down to its line base. */
    static Addr lineAddr(Addr addr) { return addr & ~Addr{kLineBytes - 1}; }

  private:
    /** Index slots at first; the index doubles when half full. */
    static constexpr std::size_t kMinSlots = 256;
    /** Lines per storage chunk (32 KiB). */
    static constexpr std::size_t kChunkLines = 256;
    /** An empty index slot's address; no line address is odd. */
    static constexpr Addr kNoLine = ~Addr{0};

    struct Region
    {
        Addr base;
        Addr size;
        std::shared_ptr<LineGenerator> gen;
    };

    struct Slot
    {
        Addr addr = kNoLine;
        Line *line = nullptr;
    };

    /** The line at @p line_addr, filled from its region on first touch. */
    Line &materialise(Addr line_addr);
    /** First slot to probe for @p line_addr in an index of @p slots. */
    static std::size_t home(Addr line_addr, std::size_t slots);
    void growIndex();

    std::vector<Region> regions_;
    std::vector<std::unique_ptr<Line[]>> chunks_;
    std::size_t resident_ = 0;
    /** Linear-probing index over chunks_; its size is a power of two. */
    std::vector<Slot> index_ = std::vector<Slot>(kMinSlots);
};

} // namespace latte

#endif // LATTE_MEM_MEMORY_IMAGE_HH
