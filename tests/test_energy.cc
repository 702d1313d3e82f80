/**
 * @file
 * Tests for the energy model: per-event accounting, breakdown
 * consistency, the paper's compressor energies, and end-to-end
 * integration (compression must reduce data-movement energy when it
 * reduces misses).
 */

#include <gtest/gtest.h>

#include <utility>

#include "core/driver.hh"
#include "energy/energy_model.hh"
#include "workloads/zoo.hh"

using namespace latte;

TEST(Energy, ZeroUsageZeroEnergy)
{
    GpuConfig cfg;
    EnergyModel model(cfg);
    const EnergyReport report = model.compute(UsageCounts{});
    EXPECT_DOUBLE_EQ(report.totalMj(), 0.0);
}

TEST(Energy, ComponentsScaleLinearly)
{
    GpuConfig cfg;
    EnergyModel model(cfg);

    UsageCounts usage;
    usage.instructions = 1000;
    usage.cycles = 500;
    const EnergyReport base = model.compute(usage);

    usage.instructions = 2000;
    usage.cycles = 1000;
    const EnergyReport doubled = model.compute(usage);
    EXPECT_NEAR(doubled.totalMj(), 2.0 * base.totalMj(), 1e-12);
    EXPECT_NEAR(doubled.coreDynamicMj, 2.0 * base.coreDynamicMj, 1e-12);
    EXPECT_NEAR(doubled.staticMj, 2.0 * base.staticMj, 1e-12);
}

TEST(Energy, CompressionEventsUsePaperNumbers)
{
    GpuConfig cfg;
    EnergyModel model(cfg);

    UsageCounts usage;
    usage.bdiCompressions = 1000;
    usage.bdiDecompressions = 1000;
    const double bdi_mj = model.compute(usage).compressionMj;
    // 1000 * (0.192 + 0.056) nJ = 0.248 uJ = 2.48e-4 mJ.
    EXPECT_NEAR(bdi_mj, 1000 * (0.192 + 0.056) * 1e-6, 1e-12);

    UsageCounts sc_usage;
    sc_usage.scCompressions = 1000;
    sc_usage.scDecompressions = 1000;
    const double sc_mj = model.compute(sc_usage).compressionMj;
    EXPECT_NEAR(sc_mj, 1000 * (0.42 + 0.336) * 1e-6, 1e-12);
    EXPECT_GT(sc_mj, bdi_mj) << "SC events cost more than BDI events";
}

TEST(Energy, UsageSubtractionIsComponentWise)
{
    UsageCounts a, b;
    a.cycles = 100;
    a.dramBytes = 5000;
    a.scDecompressions = 7;
    b.cycles = 40;
    b.dramBytes = 2000;
    b.scDecompressions = 3;
    const UsageCounts d = a - b;
    EXPECT_EQ(d.cycles, 60u);
    EXPECT_EQ(d.dramBytes, 3000u);
    EXPECT_EQ(d.scDecompressions, 4u);
}

TEST(Energy, HarvestMatchesGpuCounters)
{
    MemoryImage mem;
    const Workload *workload = findWorkload("PTH");
    ASSERT_NE(workload, nullptr);
    workload->setup(mem);

    GpuConfig cfg;
    Gpu gpu(cfg, &mem);
    auto kernels = makeKernels(*workload);
    gpu.runKernel(*kernels[0], 50000);

    const UsageCounts usage = harvestUsage(gpu);
    EXPECT_EQ(usage.cycles, gpu.cyclesElapsed.count());
    EXPECT_EQ(usage.instructions, gpu.totalInstructions());
    EXPECT_EQ(usage.dramBytes, gpu.dram().bytesTransferred.count());
    EXPECT_GT(usage.l1Accesses, 0u);
}

TEST(Energy, DataMovementFallsWithMissReduction)
{
    const Workload *workload = findWorkload("KM");
    ASSERT_NE(workload, nullptr);

    RunRequest base_request;
    base_request.workload = workload;
    base_request.policy = PolicyKind::Baseline;
    const WorkloadRunResult base = run(base_request).value();

    RunRequest sc_request = base_request;
    sc_request.policy = PolicyKind::StaticSc;
    const WorkloadRunResult sc = run(sc_request).value();

    ASSERT_LT(sc.misses, base.misses);
    EXPECT_LT(sc.energy.dataMovementMj(), base.energy.dataMovementMj())
        << "fewer misses must mean less data moved";
    EXPECT_GT(sc.energy.compressionMj, base.energy.compressionMj);
}

TEST(Energy, LinkTransfersArePricedAtTheLinkAlgorithm)
{
    // One compress (memory side) and one decompress (L2 side) per
    // compressed fetch. Only BDI and SC have energies of their own, and
    // SC cannot run on the link, so FPC, C-Pack and BPC cost BPC's.
    const CompressorTimings t;
    const std::pair<const char *, double> links[] = {
        {"bdi", t.bdiCompressNj + t.bdiDecompressNj},
        {"fpc", t.bpcCompressNj + t.bpcDecompressNj},
        {"cpack", t.bpcCompressNj + t.bpcDecompressNj},
        {"bpc", t.bpcCompressNj + t.bpcDecompressNj},
    };
    for (const auto &[algo, per_transfer_nj] : links) {
        RunRequest request;
        request.workload = findWorkload("DJK");
        request.policy = PolicyKind::Baseline;
        request.options.cfg.numSms = 2;
        request.options.maxInstructionsPerKernel = 20'000;
        ASSERT_TRUE(
            parseLinkCompressSpec(algo, request.options.cfg.linkCompress));
        const WorkloadRunResult result = run(request).value();

        UsageCounts usage;
        for (const KernelSnapshot &kernel : result.kernels)
            usage += kernel.usage;
        EXPECT_GT(usage.linkTransfers, 0u) << algo;
        EXPECT_EQ(static_cast<double>(usage.linkTransfers),
                  result.stats.at("gpu.l2.link.transfers"))
            << algo;
        EXPECT_NEAR(result.energy.linkCompressionMj,
                    usage.linkTransfers * per_transfer_nj * 1e-6, 1e-12)
            << algo;
    }
}

TEST(Energy, BreakdownSumsToTotal)
{
    GpuConfig cfg;
    EnergyModel model(cfg);
    UsageCounts usage;
    usage.cycles = 12345;
    usage.instructions = 678;
    usage.l1Accesses = 90;
    usage.l2Accesses = 12;
    usage.nocBytes = 3456;
    usage.dramBytes = 789;
    usage.bdiCompressions = 5;
    usage.scDecompressions = 6;

    const EnergyReport report = model.compute(usage);
    const double sum = report.coreDynamicMj + report.l1Mj + report.l2Mj +
                       report.nocMj + report.dramMj +
                       report.compressionMj + report.staticMj;
    EXPECT_NEAR(report.totalMj(), sum, 1e-15);
    EXPECT_GT(report.totalMj(), 0.0);
}
