/**
 * @file
 * A per-SM memo of probe() results, asked once per compressed L1 fill.
 * GPU workloads re-fetch the same line contents over and over (working
 * sets cycle through the small L1, and many lines share a handful of
 * value patterns), so most insertions re-encode bytes the SM has
 * already seen. The memo is a direct-mapped table keyed by (line
 * content, mode, SC code generation); a hit skips the encoder entirely.
 * An entry points at the memory-image line it was filled from (the
 * image never changes or frees a line's bytes), so the table holds no
 * line copies: 2048 entries of 32 B, 64 KiB per SM. A hit needs the
 * same line or one with equal bytes, compared exactly, so a hash
 * collision can never change a simulation result — the memo is purely
 * an execution shortcut.
 */

#ifndef LATTE_CACHE_COMPRESS_MEMO_HH
#define LATTE_CACHE_COMPRESS_MEMO_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/stats.hh"
#include "compress/compressor.hh"
#include "mem/memory_image.hh"

namespace latte
{

/** Direct-mapped probe-result memo with StatGroup-visible hit rates. */
class CompressMemo : public StatGroup
{
  public:
    using Line = MemoryImage::Line;
    static constexpr std::size_t kEntries = 2048;

    explicit CompressMemo(StatGroup *parent)
        : StatGroup("compress_memo", parent),
          hits(this, "hits", "probe results served from the memo"),
          misses(this, "misses", "probe results computed and cached"),
          entries_(kEntries)
    {}

    /**
     * The LineMeta @p engine.probe(line) would return, memoised.
     * @p generation is the engine's current state generation (SC's code
     * book generation; 0 for the stateless algorithms) — it both keys
     * the lookup and invalidates entries from retired generations.
     * @p line must keep its address and bytes for the memo's lifetime,
     * as MemoryImage::line() references do: a miss stores its address,
     * not a copy.
     */
    LineMeta
    probe(Compressor &engine, const Line &line, std::uint32_t generation)
    {
        const CompressorId mode = engine.id();
        Entry &entry = entries_[indexOf(line, mode, generation)];
        if (entry.line && entry.mode == mode &&
            entry.generation == generation &&
            (entry.line == &line ||
             std::memcmp(entry.line->data(), line.data(), kLineBytes) == 0)) {
            ++hits;
            return entry.meta;
        }
        ++misses;
        entry = {&line, mode, generation, engine.probe(line)};
        return entry.meta;
    }

    Counter hits;
    Counter misses;

  private:
    struct Entry
    {
        /** The bytes the entry was probed from; nullptr while unused. */
        const Line *line = nullptr;
        CompressorId mode = CompressorId::None;
        std::uint32_t generation = 0;
        LineMeta meta;
    };
    static_assert(sizeof(Entry) <= 32);

    static std::size_t
    indexOf(const Line &line, CompressorId mode, std::uint32_t generation)
    {
        // splitmix64-style mix over the line's 16 words plus the key.
        std::uint64_t h = 0x9e3779b97f4a7c15ull ^
                          (static_cast<std::uint64_t>(mode) << 32) ^
                          generation;
        for (unsigned off = 0; off < kLineBytes; off += 8) {
            std::uint64_t word;
            std::memcpy(&word, line.data() + off, 8);
            h ^= word;
            h *= 0xbf58476d1ce4e5b9ull;
            h ^= h >> 27;
        }
        h ^= h >> 31;
        return static_cast<std::size_t>(h % kEntries);
    }

    std::vector<Entry> entries_;
};

} // namespace latte

#endif // LATTE_CACHE_COMPRESS_MEMO_HH
