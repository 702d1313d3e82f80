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
#include <shared_mutex>
#include <span>
#include <unordered_map>
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

/** Sparse, lazily materialised byte-addressable memory. */
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
     * Read the full line containing @p addr (materialising it). Safe to
     * call from several threads at once: resident lines are found
     * under a shared lock, first-touch materialisation takes the lock
     * exclusively, and node-based map storage keeps the returned
     * reference stable across later insertions. Line content is a pure
     * function of the address, so materialisation order cannot change
     * what any reader sees.
     */
    const Line &line(Addr addr);

    /** Read @p out.size() bytes starting at @p addr. */
    void readBytes(Addr addr, std::span<std::uint8_t> out);

    /** Write bytes starting at @p addr. */
    void writeBytes(Addr addr, std::span<const std::uint8_t> in);

    /** Number of lines materialised so far. */
    std::size_t
    residentLines() const
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        return lines_.size();
    }

    /** Align @p addr down to its line base. */
    static Addr lineAddr(Addr addr) { return addr & ~Addr{kLineBytes - 1}; }

  private:
    /** Find-or-fill under an exclusive lock held by the caller. */
    Line &materialiseLocked(Addr line_addr);
    Line &materialise(Addr line_addr);

    struct Region
    {
        Addr base;
        Addr size;
        std::shared_ptr<LineGenerator> gen;
    };

    std::vector<Region> regions_;
    std::unordered_map<Addr, Line> lines_;
    /** Guards lines_ so line() may be called concurrently. */
    mutable std::shared_mutex mutex_;
};

} // namespace latte

#endif // LATTE_MEM_MEMORY_IMAGE_HH
