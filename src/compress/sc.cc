#include "sc.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace latte
{

ValueFrequencyTable::ValueFrequencyTable(std::uint32_t entries,
                                         std::uint32_t counter_bits)
    : capacity_(entries),
      counterMax_((1u << counter_bits) - 1),
      slots_(16), shift_(64 - 4)
{
    latte_assert(entries > 0 && counter_bits > 0 && counter_bits <= 31);
}

void
ValueFrequencyTable::record(std::uint32_t value)
{
    ++samples_;
    // Lines repeat words: try the slot of the last value first.
    if (slots_[last_].value != value || slots_[last_].count == 0) {
        std::size_t i = find(value);
        if (slots_[i].count == 0) {
            if (size_ >= capacity_) {
                // A hardware VFT drops values once full; the table is
                // rebuilt every period so the staleness window is
                // bounded.
                ++misses_;
                return;
            }
            if (2 * (size_ + 1) > slots_.size()) {
                grow();
                i = find(value);
            }
            slots_[i].value = value;
            ++size_;
        }
        last_ = i;
    }
    if (slots_[last_].count < counterMax_)
        ++slots_[last_].count;
}

void
ValueFrequencyTable::grow()
{
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot &slot : old) {
        if (slot.count != 0)
            slots_[find(slot.value)] = slot;
    }
}

void
ValueFrequencyTable::recordLine(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() % 4 == 0);
    for (std::size_t off = 0; off < line.size(); off += 4)
        record(static_cast<std::uint32_t>(loadLe(line.data() + off, 4)));
}

void
ValueFrequencyTable::clear()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
    misses_ = 0;
    samples_ = 0;
}

std::vector<HuffmanCode::Freq>
ValueFrequencyTable::snapshot() const
{
    // Every slot is written and only full ones kept, without a branch
    // per slot; the spare element takes the writes past the last one.
    std::vector<HuffmanCode::Freq> freqs(size_ + 1);
    std::size_t n = 0;
    for (const Slot &slot : slots_) {
        freqs[n] = {slot.value, slot.count};
        n += slot.count != 0;
    }
    freqs.pop_back();
    return freqs;
}

ScCompressor::ScCompressor(const CompressorTimings &timings,
                           const LatteParams &params)
    : vft_(params.vftEntries, params.vftCounterBits),
      compressLat_(timings.scCompress),
      decompressLat_(timings.scDecompress)
{}

void
ScCompressor::trainLine(std::span<const std::uint8_t> line)
{
    vft_.recordLine(line);
}

std::uint32_t
ScCompressor::rebuildCodes()
{
    const std::uint64_t escape_weight = std::max<std::uint64_t>(
        1, vft_.misses() / 4);
    // build() does not depend on the order of its input.
    codes_.rebuild(vft_.snapshot(), escape_weight);
    vft_.clear();
    return ++generation_;
}

bool
ScCompressor::codeDivergenceAbove(double limit) const
{
    if (!codes_.valid())
        return 1.0 > limit;
    if (vft_.size() == 0)
        return 0.0 > limit;
    const std::size_t top = std::min(vft_.size(), kTopValues);
    const auto above = [&](std::size_t missing) {
        return static_cast<double>(missing) / static_cast<double>(top) >
               limit;
    };

    // The top-th largest count: values above it are in the top however
    // the sort orders ties; of those tied at it, the sort takes `need`.
    std::vector<HuffmanCode::Freq> freqs = vft_.snapshot();
    const auto by_count = [](const auto &a, const auto &b) {
        return a.second > b.second;
    };
    std::nth_element(freqs.begin(), freqs.begin() + (top - 1), freqs.end(),
                     by_count);
    const std::uint64_t cut = freqs[top - 1].second;
    std::size_t above_cut = 0, missing = 0, tied = 0, tied_missing = 0;
    for (const auto &[value, count] : freqs) {
        if (count < cut)
            continue;
        const bool coded = codes_.hasCode(value);
        if (count > cut) {
            ++above_cut;
            missing += !coded;
        } else {
            ++tied;
            tied_missing += !coded;
        }
    }
    const std::size_t need = top - above_cut;
    const std::size_t tied_coded = tied - tied_missing;
    const std::size_t fewest =
        missing + (need > tied_coded ? need - tied_coded : 0);
    const std::size_t most = missing + std::min(need, tied_missing);
    if (above(fewest) == above(most))
        return above(fewest);
    return above(fullSortMissing(std::move(freqs)));
}

std::size_t
ScCompressor::fullSortMissing(std::vector<HuffmanCode::Freq> freqs) const
{
    std::sort(freqs.begin(), freqs.end());
    std::sort(freqs.begin(), freqs.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    const std::size_t top = std::min(freqs.size(), kTopValues);
    std::size_t missing = 0;
    for (std::size_t i = 0; i < top; ++i) {
        if (!codes_.hasCode(freqs[i].first))
            ++missing;
    }
    return missing;
}

LineMeta
ScCompressor::probe(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);

    if (!codes_.valid())
        return makeProbedMeta(CompressorId::Sc, 0, kLineBits, generation_);

    // No per-word early exit: the running size is monotone, so the
    // total crosses kLineBits iff compress()'s capped stream does, and
    // both sides then report the same raw line.
    const auto word_bits = [this](std::uint64_t word) {
        return codes_.encodedBits(static_cast<std::uint32_t>(word));
    };
    // Four accumulators so the adds of neighbouring lookups don't
    // serialise behind one register.
    std::uint32_t bits0 = 0, bits1 = 0, bits2 = 0, bits3 = 0;
    for (unsigned off = 0; off < kLineBytes; off += 16) {
        const std::uint64_t pa = loadLe(line.data() + off, 8);
        const std::uint64_t pb = loadLe(line.data() + off + 8, 8);
        bits0 += word_bits(pa);
        bits1 += word_bits(pa >> 32);
        bits2 += word_bits(pb);
        bits3 += word_bits(pb >> 32);
    }
    const std::uint32_t bits = (bits0 + bits1) + (bits2 + bits3);
    return makeProbedMeta(CompressorId::Sc, 0, std::min(bits, kLineBits),
                          generation_);
}

CompressedLine
ScCompressor::compress(std::span<const std::uint8_t> line)
{
    latte_assert(line.size() == kLineBytes);
    if (!codes_.valid()) {
        auto out = makeRawLine(CompressorId::Sc, line);
        out.generation = generation_;
        return out;
    }

    BitWriter bw;
    for (unsigned off = 0; off < kLineBytes; off += 4) {
        // Bail before the stream can outgrow the writer's inline
        // capacity — a stream at >= kLineBits falls back to raw anyway.
        if (bw.bitSize() >= kLineBits)
            break;
        codes_.encode(
            static_cast<std::uint32_t>(loadLe(line.data() + off, 4)), bw);
    }

    if (bw.bitSize() >= kLineBits) {
        auto out = makeRawLine(CompressorId::Sc, line);
        out.generation = generation_;
        return out;
    }

    CompressedLine out;
    out.algo = CompressorId::Sc;
    out.encoding = 0;
    out.sizeBits = static_cast<std::uint32_t>(bw.bitSize());
    out.payload.assign(bw.bytes());
    out.generation = generation_;
    return out;
}

void
ScCompressor::decompressInto(const CompressedLine &line,
                             std::span<std::uint8_t> out) const
{
    latte_assert(line.algo == CompressorId::Sc);
    latte_assert(out.size() == kLineBytes);
    if (line.encoding == kRawEncoding) {
        decodeRawLineInto(line, out);
        return;
    }

    latte_assert(line.generation == generation_,
                 "decoding an SC line from a retired code generation");

    BitReader br(line.payload, line.sizeBits);
    for (unsigned off = 0; off < kLineBytes; off += 4)
        storeLe(out.data() + off, codes_.decode(br), 4);
}

} // namespace latte
