/**
 * @file
 * Unit tests for the memory substrate: functional memory image, MSHR
 * file, DRAM/interconnect queueing and the L2 cache.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "mem/dram.hh"
#include "mem/interconnect.hh"
#include "mem/l2cache.hh"
#include "mem/memory_image.hh"
#include "mem/mshr.hh"

using namespace latte;

namespace
{

/** Fills each byte with a function of the line address. */
class StampGen : public LineGenerator
{
  public:
    void
    generate(Addr line_addr, std::span<std::uint8_t> out) override
    {
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = static_cast<std::uint8_t>(line_addr / 128 + i);
    }
};

} // namespace

// ------------------------------------------------------- MemoryImage

TEST(MemoryImage, DefaultsToZero)
{
    MemoryImage mem;
    const auto &line = mem.line(0x1000);
    for (const auto byte : line)
        EXPECT_EQ(byte, 0);
}

TEST(MemoryImage, GeneratorFillsRegion)
{
    MemoryImage mem;
    mem.addRegion(0x1000, 0x1000, std::make_shared<StampGen>());
    const auto &line = mem.line(0x1080);
    EXPECT_EQ(line[0], static_cast<std::uint8_t>(0x1080 / 128));
    EXPECT_EQ(line[5], static_cast<std::uint8_t>(0x1080 / 128 + 5));
    // Outside the region: zero.
    EXPECT_EQ(mem.line(0x0)[3], 0);
}

TEST(MemoryImage, LaterRegionsTakePrecedence)
{
    MemoryImage mem;
    mem.addRegion(0x0, 0x10000, std::make_shared<StampGen>());
    mem.addRegion(0x1000, 0x100,
                  std::make_shared<StampGen>()); // same gen, same value
    const auto &line = mem.line(0x1000);
    EXPECT_EQ(line[0], static_cast<std::uint8_t>(0x1000 / 128));
}

TEST(MemoryImage, WriteThenReadBack)
{
    MemoryImage mem;
    const std::uint8_t data[4] = {1, 2, 3, 4};
    mem.writeBytes(0x12c, data); // crosses into line at 0x100
    std::uint8_t out[4] = {};
    mem.readBytes(0x12c, out);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[3], 4);
}

TEST(MemoryImage, CrossLineAccess)
{
    MemoryImage mem;
    std::vector<std::uint8_t> data(200, 0xab);
    mem.writeBytes(0x70, data); // spans two lines
    std::vector<std::uint8_t> out(200);
    mem.readBytes(0x70, out);
    for (const auto byte : out)
        EXPECT_EQ(byte, 0xab);
    EXPECT_EQ(mem.residentLines(), 3u);
}

TEST(MemoryImage, GeneratedLinesAreStable)
{
    MemoryImage mem;
    mem.addRegion(0, 1 << 20, std::make_shared<StampGen>());
    const auto first = mem.line(0x4000);
    const auto second = mem.line(0x4000);
    EXPECT_EQ(first, second);
}

// ------------------------------------------------------------- MSHRs

TEST(Mshr, AllocateMergeRetire)
{
    StatGroup root("root");
    MshrFile mshrs(4, &root);

    EXPECT_TRUE(mshrs.hasFree());
    mshrs.allocate(0x100, 500);
    EXPECT_TRUE(mshrs.outstanding(0x100));
    EXPECT_EQ(mshrs.merge(0x100), 500u);
    EXPECT_EQ(mshrs.fillCycle(0x100), 500u);

    mshrs.allocate(0x200, 600);
    EXPECT_EQ(mshrs.inUse(), 2u);

    mshrs.retire(499);
    EXPECT_TRUE(mshrs.outstanding(0x100));
    EXPECT_EQ(mshrs.inUse(), 2u);
    mshrs.retire(500);
    EXPECT_FALSE(mshrs.outstanding(0x100));
    EXPECT_TRUE(mshrs.outstanding(0x200));
    EXPECT_EQ(mshrs.inUse(), 1u);
}

TEST(Mshr, CapacityEnforced)
{
    StatGroup root("root");
    MshrFile mshrs(2, &root);
    mshrs.allocate(0x100, 10);
    mshrs.allocate(0x200, 20);
    EXPECT_FALSE(mshrs.hasFree());
    EXPECT_EQ(mshrs.nextFillCycle(), 10u);
    mshrs.retire(10);
    EXPECT_TRUE(mshrs.hasFree());
    EXPECT_EQ(mshrs.nextFillCycle(), 20u);
}

TEST(MshrDeath, DoubleAllocatePanics)
{
    StatGroup root("root");
    MshrFile mshrs(2, &root);
    mshrs.allocate(0x100, 10);
    EXPECT_DEATH(mshrs.allocate(0x100, 20), "assertion");
}

// ------------------------------------------------------ DRAM and NoC

TEST(Dram, UnloadedLatencyIsMinimum)
{
    GpuConfig cfg;
    StatGroup root("root");
    DramModel dram(cfg, &root);
    const Cycles ready = dram.access(1000, 128);
    // extra latency beyond the L2 path plus the transfer itself.
    EXPECT_EQ(ready, 1000 + (cfg.dramMinLatency - cfg.l2.minLatency) + 1);
}

TEST(Dram, BandwidthQueuesBuildUp)
{
    GpuConfig cfg;
    cfg.dramBytesPerCycle = 1.0; // 128 cycles per line
    StatGroup root("root");
    DramModel dram(cfg, &root);
    const Cycles first = dram.access(0, 128);
    const Cycles second = dram.access(0, 128);
    EXPECT_GT(second, first);
    EXPECT_GE(second - first, 100u);
}

TEST(Noc, ChannelsAreIndependent)
{
    GpuConfig cfg;
    cfg.nocBytesPerCycle = 1.0;
    StatGroup root("root");
    Interconnect noc(cfg, &root);

    // Saturate the reply channel far in the future.
    noc.transfer(100000, 4096, Interconnect::Channel::Reply);
    // Requests at t=0 must not queue behind that reply.
    const Cycles req = noc.transfer(0, 8,
                                    Interconnect::Channel::Request);
    EXPECT_LE(req, noc.traversalLatency() + 8);
}

TEST(Noc, BandwidthDelaysSuccessors)
{
    GpuConfig cfg;
    cfg.nocBytesPerCycle = 2.0;
    StatGroup root("root");
    Interconnect noc(cfg, &root);
    const Cycles a = noc.transfer(0, 256,
                                  Interconnect::Channel::Request);
    const Cycles b = noc.transfer(0, 256,
                                  Interconnect::Channel::Request);
    EXPECT_EQ(a + 128, b);
}

// ---------------------------------------------------------------- L2

class L2Fixture : public ::testing::Test
{
  protected:
    L2Fixture()
        : root("root"), noc(cfg, &root), dram(cfg, &root),
          l2(cfg, &noc, &dram, &mem, &root)
    {}

    GpuConfig cfg;
    StatGroup root;
    MemoryImage mem;
    Interconnect noc;
    DramModel dram;
    L2Cache l2;
};

TEST_F(L2Fixture, MissThenHit)
{
    const auto miss = l2.access(0, 0x1000, false);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(l2.misses.count(), 1u);
    // Unloaded miss observed from the SM ~ dramMinLatency.
    EXPECT_GE(miss.readyCycle, cfg.dramMinLatency);
    EXPECT_LE(miss.readyCycle, cfg.dramMinLatency + 40);

    const auto hit = l2.access(10000, 0x1000, false);
    EXPECT_TRUE(hit.hit);
    EXPECT_GE(hit.readyCycle - 10000, cfg.l2.minLatency);
    EXPECT_LE(hit.readyCycle - 10000, cfg.l2.minLatency + 20);
}

TEST_F(L2Fixture, LruEvictionWithinSet)
{
    // Fill one set (8 ways) plus one more; the first line must evict.
    const Addr set_stride =
        static_cast<Addr>(cfg.l2NumSets()) * cfg.l2.lineBytes;
    for (unsigned i = 0; i <= cfg.l2.assoc; ++i)
        l2.access(i * 1000, 0x2000 + i * set_stride, false);

    const auto again = l2.access(1000000, 0x2000, false);
    EXPECT_FALSE(again.hit) << "LRU victim should have been evicted";
}

TEST_F(L2Fixture, InvalidateAllDropsLines)
{
    l2.access(0, 0x3000, false);
    l2.invalidateAll();
    const auto res = l2.access(10000, 0x3000, false);
    EXPECT_FALSE(res.hit);
}

TEST_F(L2Fixture, WritesCountSeparately)
{
    l2.access(0, 0x4000, true);
    EXPECT_EQ(l2.writes.count(), 1u);
    EXPECT_EQ(l2.reads.count(), 0u);
}
