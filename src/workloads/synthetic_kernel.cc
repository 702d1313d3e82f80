#include "synthetic_kernel.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mem/memory_image.hh"
#include "value_gens.hh"

namespace latte
{

namespace
{

constexpr std::uint32_t kWarpLanes = 32;
constexpr std::uint64_t kLine = 128;

std::uint64_t
bodyLength(const PhaseSpec &phase)
{
    return phase.loadsPerIter + phase.aluPerIter + phase.storesPerIter;
}

/** Byte offset of @p lane within its line (HotReuse, Irregular, Tiled). */
constexpr std::uint64_t
laneOffset(std::uint32_t lane)
{
    return (lane * 4) % kLine;
}

/**
 * Line index within the slice drawn by @p hash: from the hot subset
 * with probability hotFraction, else from the whole slice.
 */
std::uint64_t
hotLine(const Pattern &pattern, std::uint64_t hash, std::uint64_t salt)
{
    const bool hot =
        (hash % 1024) <
        static_cast<std::uint64_t>(pattern.hotFraction * 1024.0);
    const std::uint64_t span = std::max<std::uint64_t>(
        kLine, hot ? pattern.hotBytes : pattern.sliceBytes);
    return mixHash(hash, salt) % (span / kLine);
}

/** Lanes addressing bytes @p first..@p last (under one line apart). */
void
addSpan(LineList &lines, Addr first, Addr last)
{
    lines.insert(MemoryImage::lineAddr(first));
    lines.insert(MemoryImage::lineAddr(last));
}

} // namespace

SyntheticKernel::SyntheticKernel(KernelSpec spec)
    : spec_(std::move(spec))
{
    latte_assert(!spec_.phases.empty(), "kernel needs at least one phase");
    latte_assert(spec_.warpsPerCta >= 1 && spec_.ctas >= 1);

    std::uint64_t instr = 0;
    std::uint64_t iter = 0;
    for (const auto &phase : spec_.phases) {
        latte_assert(bodyLength(phase) > 0,
                     "phase body must not be empty");
        latte_assert(phase.pattern.sizeBytes >= kLine);
        phaseInstrStart_.push_back(instr);
        phaseIterStart_.push_back(iter);
        instr += bodyLength(phase) * phase.iterations;
        iter += phase.iterations;
    }
    totalInstrs_ = instr;
}

DecodedInstr
SyntheticKernel::fetch(std::uint32_t global_warp, std::uint64_t pc)
{
    if (pc >= totalInstrs_)
        return DecodedInstr{}; // Op::Exit

    // Locate the phase containing pc.
    std::size_t p = phaseInstrStart_.size() - 1;
    while (phaseInstrStart_[p] > pc)
        --p;
    const PhaseSpec &phase = spec_.phases[p];
    const std::uint64_t body = bodyLength(phase);
    const std::uint64_t rel = pc - phaseInstrStart_[p];
    const std::uint64_t iter = phaseIterStart_[p] + rel / body;
    const std::uint64_t slot = rel % body;

    DecodedInstr instr;
    if (slot < phase.loadsPerIter) {
        instr.op = Op::Load;
        addLines(instr.laneAddrs, phase.pattern, global_warp, iter,
                 static_cast<std::uint32_t>(slot));
    } else if (slot < phase.loadsPerIter + phase.aluPerIter) {
        instr.op = Op::Alu;
        instr.latency = phase.aluLatency;
    } else {
        instr.op = Op::Store;
        addLines(instr.laneAddrs, phase.pattern, global_warp, iter,
                 static_cast<std::uint32_t>(slot) + 64);
    }
    return instr;
}

void
SyntheticKernel::addLines(LineList &lines, const Pattern &pattern,
                          std::uint32_t global_warp, std::uint64_t iter,
                          std::uint32_t mem_idx) const
{
    // All but Streaming address a per-CTA slice; lane l reads byte 4·l
    // of the line chosen for it.
    const auto slice_base = [&] {
        const std::uint32_t cta = global_warp / spec_.warpsPerCta;
        const std::uint64_t slices = std::max<std::uint64_t>(
            1, pattern.sizeBytes / pattern.sliceBytes);
        return pattern.base + (cta % slices) * pattern.sliceBytes;
    };
    // HotReuse and Irregular draw their lines from this hash.
    const auto instr_hash = [&] {
        return mixHash(spec_.seed + mem_idx * 0x1000193u,
                       (static_cast<std::uint64_t>(global_warp) << 24) ^
                           iter);
    };

    switch (pattern.kind) {
      case PatternKind::Streaming: {
        // Lane l reads element tid0 + l of the region. A span holds the
        // lanes whose elements lie within one line's reach, split where
        // the sweep wraps at sizeBytes. In-span offsets add up as the
        // per-lane products would, short of a 2^64 wrap that no
        // simulable kernel reaches.
        const std::uint64_t total_threads =
            static_cast<std::uint64_t>(spec_.ctas) * spec_.warpsPerCta *
            kWarpLanes;
        const std::uint64_t tid0 =
            static_cast<std::uint64_t>(global_warp) * kWarpLanes;
        const std::uint64_t elem = pattern.elemBytes;
        const std::uint64_t size = pattern.sizeBytes;
        const auto span_lanes = static_cast<std::uint32_t>(
            elem == 0 ? kWarpLanes
                      : std::min<std::uint64_t>(kWarpLanes,
                                                1 + (kLine - 1) / elem));
        for (std::uint32_t lane = 0; lane < kWarpLanes;
             lane += span_lanes) {
            const std::uint64_t off =
                (tid0 + lane + iter * total_threads + mem_idx * 977) *
                elem % size;
            const Addr first = pattern.base + off;
            const std::uint64_t reach =
                (std::min(lane + span_lanes, kWarpLanes) - 1 - lane) *
                elem;
            if (off + reach < size) {
                addSpan(lines, first, first + reach);
                continue;
            }
            // Elements [0, wrapped) precede the wrap.
            const std::uint64_t wrapped = (size - off + elem - 1) / elem;
            addSpan(lines, first, first + (wrapped - 1) * elem);
            addSpan(lines, first + wrapped * elem - size,
                    first + reach - size);
        }
        return;
      }

      case PatternKind::HotReuse: {
        const Addr line =
            slice_base() + hotLine(pattern, instr_hash(), 0x51u) * kLine;
        addSpan(lines, line, line + laneOffset(kWarpLanes - 1));
        return;
      }

      case PatternKind::Irregular: {
        // Each group of lanes picks its own line.
        const Addr slice = slice_base();
        const std::uint64_t h = instr_hash();
        const std::uint32_t lanes_per_group = std::max<std::uint32_t>(
            1, kWarpLanes / std::max<std::uint32_t>(
                   1, pattern.divergentLanes));
        std::uint32_t group = 0;
        for (std::uint32_t lane = 0; lane < kWarpLanes;
             lane += lanes_per_group, ++group) {
            const std::uint64_t hg = mixHash(h, group + 11);
            const Addr line = slice + hotLine(pattern, hg, 0x7fu) * kLine;
            const std::uint32_t last =
                std::min(lane + lanes_per_group, kWarpLanes) - 1;
            addSpan(lines, line + laneOffset(lane),
                    line + laneOffset(last));
        }
        return;
      }

      case PatternKind::Tiled: {
        const std::uint64_t lines_in_slice =
            std::max<std::uint64_t>(1, pattern.sliceBytes / kLine);
        const std::uint64_t line_idx =
            (iter + mem_idx * 7 +
             (global_warp % spec_.warpsPerCta) * 3) % lines_in_slice;
        const Addr line = slice_base() + line_idx * kLine;
        addSpan(lines, line, line + laneOffset(kWarpLanes - 1));
        return;
      }
    }
    latte_panic("unknown pattern kind");
}

} // namespace latte
