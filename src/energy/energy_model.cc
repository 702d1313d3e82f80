#include "energy_model.hh"

namespace latte
{

UsageCounts
UsageCounts::operator-(const UsageCounts &rhs) const
{
    UsageCounts out = *this;
    for (const UsageCounter &counter : kUsageCounters)
        out.*counter.member -= rhs.*counter.member;
    return out;
}

UsageCounts &
UsageCounts::operator+=(const UsageCounts &rhs)
{
    for (const UsageCounter &counter : kUsageCounters)
        this->*counter.member += rhs.*counter.member;
    return *this;
}

UsageCounts
harvestUsage(Gpu &gpu)
{
    UsageCounts usage;
    usage.cycles = gpu.cyclesElapsed.count();
    usage.instructions = gpu.totalInstructions();
    usage.l2Accesses = gpu.l2().reads.count() + gpu.l2().writes.count();
    usage.nocBytes = gpu.noc().bytesMoved.count();
    usage.dramBytes = gpu.dram().bytesTransferred.count();
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        auto &cache = gpu.sm(i).cache();
        usage.l1Accesses += cache.loads.count() + cache.stores.count();
        usage.bdiCompressions += cache.bdiCompressions.count();
        usage.scCompressions += cache.scCompressions.count();
        usage.bpcCompressions += cache.bpcCompressions.count();
        usage.bdiDecompressions +=
            cache.domain().queueFor(CompressorId::Bdi).requests.count();
        usage.scDecompressions +=
            cache.domain().queueFor(CompressorId::Sc).requests.count();
        usage.bpcDecompressions +=
            cache.domain().queueFor(CompressorId::Bpc).requests.count();
    }
    if (const auto *stats = gpu.l2().compressStats()) {
        usage.l2BdiCompressions = stats->bdiCompressions.count();
        usage.l2BpcCompressions = stats->bpcCompressions.count();
        usage.l2FpcCompressions = stats->fpcCompressions.count();
        usage.l2CpackCompressions = stats->cpackCompressions.count();
    }
    if (const CompressionDomain *domain = gpu.l2().domain()) {
        const auto decompressions = [domain](CompressorId id) {
            return domain->queueFor(id).requests.count();
        };
        usage.l2BdiDecompressions = decompressions(CompressorId::Bdi);
        usage.l2BpcDecompressions = decompressions(CompressorId::Bpc);
        usage.l2FpcDecompressions = decompressions(CompressorId::Fpc);
        usage.l2CpackDecompressions = decompressions(CompressorId::CpackZ);
    }
    if (const auto *link = gpu.l2().linkStats())
        usage.linkTransfers = link->transfers.count();
    return usage;
}

EnergyReport
EnergyModel::compute(const UsageCounts &usage) const
{
    constexpr double kNjToMj = 1e-6;
    const auto &t = cfg_.timings;

    EnergyReport report;
    report.coreDynamicMj =
        usage.instructions * params_.instructionNj * kNjToMj;
    report.l1Mj = usage.l1Accesses * params_.l1AccessNj * kNjToMj;
    report.l2Mj = usage.l2Accesses * params_.l2AccessNj * kNjToMj;
    report.nocMj = usage.nocBytes * params_.nocByteNj * kNjToMj;
    report.dramMj = usage.dramBytes * params_.dramByteNj * kNjToMj;
    report.compressionMj =
        (usage.bdiCompressions * t.bdiCompressNj +
         usage.bdiDecompressions * t.bdiDecompressNj +
         usage.scCompressions * t.scCompressNj +
         usage.scDecompressions * t.scDecompressNj +
         usage.bpcCompressions * t.bpcCompressNj +
         usage.bpcDecompressions * t.bpcDecompressNj) *
        kNjToMj;
    // Only BDI and SC have published energies (BPC's are scaled
    // between them); FPC and C-Pack are priced at BPC's, at the L2 as
    // on the link.
    report.l2CompressionMj =
        (usage.l2BdiCompressions * t.bdiCompressNj +
         usage.l2BdiDecompressions * t.bdiDecompressNj +
         (usage.l2BpcCompressions + usage.l2FpcCompressions +
          usage.l2CpackCompressions) * t.bpcCompressNj +
         (usage.l2BpcDecompressions + usage.l2FpcDecompressions +
          usage.l2CpackDecompressions) * t.bpcDecompressNj) *
        kNjToMj;
    if (usage.linkTransfers) {
        // One compress (memory side) and one decompress (L2 side) per
        // transfer, at the configured link algorithm's energies.
        double per_transfer = t.bpcCompressNj + t.bpcDecompressNj;
        switch (cfg_.linkCompress) {
          case CompressorId::Bdi:
            per_transfer = t.bdiCompressNj + t.bdiDecompressNj;
            break;
          case CompressorId::Sc:
            per_transfer = t.scCompressNj + t.scDecompressNj;
            break;
          default:
            break;
        }
        report.linkCompressionMj =
            usage.linkTransfers * per_transfer * kNjToMj;
    }
    report.staticMj = usage.cycles * params_.staticNjPerCycle * kNjToMj;
    return report;
}

} // namespace latte
