/**
 * @file
 * Tests for the L1 replacement policies (LRU / FIFO / SRRIP) in the
 * compressed cache.
 */

#include <gtest/gtest.h>

#include "cache/compressed_cache.hh"

using namespace latte;

namespace
{

class ReplFixture
{
  public:
    explicit ReplFixture(GpuConfig::ReplPolicy policy)
    {
        cfg.l1Repl = policy;
        root = std::make_unique<StatGroup>("root");
        noc = std::make_unique<Interconnect>(cfg, root.get());
        dram = std::make_unique<DramModel>(cfg, root.get());
        l2 = std::make_unique<L2Cache>(cfg, noc.get(), dram.get(), &mem,
                                       root.get());
        engines = std::make_unique<CompressionEngines>(cfg);
        cache = std::make_unique<CompressedCache>(
            cfg, 0, engines.get(), l2.get(), &mem, root.get());
    }

    void
    install(Addr addr, Cycles &now)
    {
        const auto res = cache->access(now, addr, false);
        now = std::max(now + 1, res.readyCycle + 1);
        cache->processFills(now);
    }

    Addr
    addrInSet(std::uint32_t set, std::uint32_t tag) const
    {
        return (static_cast<Addr>(tag) * cache->numSets() + set) * 128;
    }

    GpuConfig cfg;
    MemoryImage mem;
    std::unique_ptr<StatGroup> root;
    std::unique_ptr<Interconnect> noc;
    std::unique_ptr<DramModel> dram;
    std::unique_ptr<L2Cache> l2;
    std::unique_ptr<CompressionEngines> engines;
    std::unique_ptr<CompressedCache> cache;
};

} // namespace

TEST(Replacement, LruKeepsRecentlyTouchedLine)
{
    ReplFixture rig(GpuConfig::ReplPolicy::LRU);
    Cycles now = 0;
    for (std::uint32_t t = 1; t <= 4; ++t)
        rig.install(rig.addrInSet(3, t), now);
    // Touch the oldest line, then overflow the set: line 2 (now LRU)
    // must be the victim, line 1 must survive.
    rig.cache->access(now, rig.addrInSet(3, 1), false);
    rig.install(rig.addrInSet(3, 5), now);
    EXPECT_TRUE(rig.cache->access(now, rig.addrInSet(3, 1), false).hit);
    EXPECT_FALSE(rig.cache->access(now, rig.addrInSet(3, 2), false).hit);
}

TEST(Replacement, FifoIgnoresTouches)
{
    ReplFixture rig(GpuConfig::ReplPolicy::FIFO);
    Cycles now = 0;
    for (std::uint32_t t = 1; t <= 4; ++t)
        rig.install(rig.addrInSet(3, t), now);
    // Touching line 1 must not save it: FIFO evicts by fill order.
    rig.cache->access(now, rig.addrInSet(3, 1), false);
    rig.install(rig.addrInSet(3, 5), now);
    EXPECT_FALSE(rig.cache->access(now, rig.addrInSet(3, 1), false).hit);
    EXPECT_TRUE(rig.cache->access(now, rig.addrInSet(3, 2), false).hit);
}

TEST(Replacement, SrripProtectsReusedLines)
{
    ReplFixture rig(GpuConfig::ReplPolicy::SRRIP);
    Cycles now = 0;
    for (std::uint32_t t = 1; t <= 4; ++t)
        rig.install(rig.addrInSet(3, t), now);
    // Promote line 1 to rrpv 0 by hitting it; evicting should pick one
    // of the never-reused lines instead.
    rig.cache->access(now, rig.addrInSet(3, 1), false);
    rig.install(rig.addrInSet(3, 5), now);
    EXPECT_TRUE(rig.cache->access(now, rig.addrInSet(3, 1), false).hit);
}

TEST(Replacement, AllPoliciesFillWholeSet)
{
    for (const auto policy :
         {GpuConfig::ReplPolicy::LRU, GpuConfig::ReplPolicy::FIFO,
          GpuConfig::ReplPolicy::SRRIP}) {
        ReplFixture rig(policy);
        Cycles now = 0;
        for (std::uint32_t t = 1; t <= 4; ++t)
            rig.install(rig.addrInSet(6, t), now);
        EXPECT_EQ(rig.cache->evictions.count(), 0u);
        for (std::uint32_t t = 1; t <= 4; ++t) {
            EXPECT_TRUE(
                rig.cache->access(now, rig.addrInSet(6, t), false).hit);
        }
    }
}
