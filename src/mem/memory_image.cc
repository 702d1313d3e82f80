#include "memory_image.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.hh"

namespace latte
{

void
MemoryImage::addRegion(Addr base, Addr size,
                       std::shared_ptr<LineGenerator> gen)
{
    latte_assert(gen != nullptr);
    latte_assert(base % kLineBytes == 0, "region base must be line aligned");
    regions_.push_back({base, size, std::move(gen)});
}

std::size_t
MemoryImage::home(Addr line_addr, std::size_t slots)
{
    std::uint64_t h = (line_addr / kLineBytes) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 32;
    return static_cast<std::size_t>(h) & (slots - 1);
}

MemoryImage::Line &
MemoryImage::materialise(Addr line_addr)
{
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(line_addr, index_.size());
    for (; index_[i].addr != kNoLine; i = (i + 1) & mask) {
        if (index_[i].addr == line_addr)
            return *index_[i].line;
    }

    if (resident_ % kChunkLines == 0)
        chunks_.push_back(std::make_unique_for_overwrite<Line[]>(kChunkLines));
    Line &line = chunks_.back()[resident_ % kChunkLines];
    ++resident_;
    line.fill(0);
    // Later registrations take precedence: scan back to front.
    for (auto rit = regions_.rbegin(); rit != regions_.rend(); ++rit) {
        if (line_addr >= rit->base && line_addr < rit->base + rit->size) {
            rit->gen->generate(line_addr, line);
            break;
        }
    }
    index_[i] = {line_addr, &line};
    if (2 * resident_ > index_.size())
        growIndex();
    return line;
}

void
MemoryImage::growIndex()
{
    const std::vector<Slot> old =
        std::exchange(index_, std::vector<Slot>(index_.size() * 2));
    const std::size_t mask = index_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.addr == kNoLine)
            continue;
        std::size_t i = home(slot.addr, index_.size());
        while (index_[i].addr != kNoLine)
            i = (i + 1) & mask;
        index_[i] = slot;
    }
}

void
MemoryImage::readBytes(Addr addr, std::span<std::uint8_t> out)
{
    std::size_t done = 0;
    while (done < out.size()) {
        const Addr cur = addr + done;
        const Addr base = lineAddr(cur);
        const std::size_t offset = cur - base;
        const std::size_t chunk =
            std::min(out.size() - done, std::size_t{kLineBytes} - offset);
        const Line &src = materialise(base);
        std::memcpy(out.data() + done, src.data() + offset, chunk);
        done += chunk;
    }
}

void
MemoryImage::writeBytes(Addr addr, std::span<const std::uint8_t> in)
{
    std::size_t done = 0;
    while (done < in.size()) {
        const Addr cur = addr + done;
        const Addr base = lineAddr(cur);
        const std::size_t offset = cur - base;
        const std::size_t chunk =
            std::min(in.size() - done, std::size_t{kLineBytes} - offset);
        Line &dst = materialise(base);
        std::memcpy(dst.data() + offset, in.data() + done, chunk);
        done += chunk;
    }
}

} // namespace latte
