/**
 * @file
 * Tests for the load/store unit: one L1 access per cycle, warp wakeup
 * (reported back with its ready cycle) on the last outstanding access,
 * the Eq. 3 decompression wait of a compressed hit in the L1 and in the
 * L2, MSHR-full back-off, and store fire-and-forget behaviour.
 */

#include <gtest/gtest.h>

#include <optional>

#include "sim/lsu.hh"

using namespace latte;

namespace
{

/** One SM's LSU and L1 over an L2, DRAM and NoC built from one config. */
struct LsuRig
{
    explicit LsuRig(const GpuConfig &config = {})
        : cfg(config), root("root"), noc(cfg, &root), dram(cfg, &root),
          l2(cfg, &noc, &dram, &mem, &root), engines(cfg),
          cache(cfg, 0, &engines, &l2, &mem, &root), lsu(&root),
          warps(4)
    {
        for (unsigned i = 0; i < warps.size(); ++i) {
            warps[i].slot = i;
            warps[i].state = WarpState::Active;
        }
    }

    /** Put warp @p slot into WaitMem expecting @p n accesses. */
    void
    startLoad(std::uint32_t slot, std::vector<Addr> lines)
    {
        warps[slot].state = WarpState::WaitMem;
        warps[slot].pendingAccesses =
            static_cast<std::uint32_t>(lines.size());
        warps[slot].memReady = 0;
        lsu.enqueueLoad(slot, lines);
    }

    GpuConfig cfg;
    StatGroup root;
    MemoryImage mem;
    Interconnect noc;
    DramModel dram;
    L2Cache l2;
    CompressionEngines engines;
    CompressedCache cache;
    LoadStoreUnit lsu;
    std::vector<Warp> warps;
};

class LsuFixture : public ::testing::Test, protected LsuRig
{};

/** Stores every fill BDI-compressed. */
class BdiEverywhere : public CompressionModeProvider
{
  public:
    CompressorId
    modeForInsertion(std::uint32_t) override
    {
        return CompressorId::Bdi;
    }
};

} // namespace

TEST_F(LsuFixture, OneAccessPerCycle)
{
    startLoad(0, {0x1000, 0x2000, 0x3000});
    EXPECT_EQ(lsu.depth(), 3u);
    lsu.tick(0, cache, warps);
    EXPECT_EQ(lsu.depth(), 2u);
    lsu.tick(1, cache, warps);
    lsu.tick(2, cache, warps);
    EXPECT_FALSE(lsu.busy());
    EXPECT_EQ(lsu.accessesIssued.count(), 3u);
}

TEST_F(LsuFixture, WarpWakesAfterLastAccess)
{
    startLoad(0, {0x1000, 0x2000});
    EXPECT_FALSE(lsu.tick(0, cache, warps));
    EXPECT_EQ(warps[0].state, WarpState::WaitMem);
    const auto wake = lsu.tick(1, cache, warps);
    EXPECT_EQ(warps[0].state, WarpState::Active);
    ASSERT_TRUE(wake);
    EXPECT_EQ(wake->slot, 0u);
    // Both are misses: the wakeup is the slower of the two fills.
    EXPECT_EQ(wake->readyAt, warps[0].memReady);
    EXPECT_GE(wake->readyAt, cfg.l2.minLatency);
}

TEST_F(LsuFixture, CompressedHitWakesAfterDecompression)
{
    BdiEverywhere bdi;
    cache.setModeProvider(&bdi);

    // Miss, then issue the hit once the fill has landed: the (all-zero)
    // line sits BDI-compressed by then.
    startLoad(0, {0x1000});
    const auto fill = lsu.tick(0, cache, warps);
    ASSERT_TRUE(fill);
    const Cycles issue = fill->readyAt;
    const Cycles hit = cfg.l1.hitLatency;
    const Cycles decompress = cfg.timings.bdiDecompress;

    startLoad(1, {0x1000});
    const auto first = lsu.tick(issue, cache, warps);
    ASSERT_TRUE(first);
    EXPECT_EQ(cache.hits.count(), 1u);
    EXPECT_EQ(cache.compressedInsertions.count(), 1u);
    EXPECT_EQ(first->readyAt, issue + hit + decompress + 1);

    // A second hit one cycle later finds the first still decompressing
    // and queues behind it by its Eq. 3 insertion position.
    const DecompressionQueue &queue =
        cache.domain().queueFor(CompressorId::Bdi);
    const Cycles position = queue.expectedPos(issue + 1 + hit);
    EXPECT_EQ(position, 1u);
    startLoad(2, {0x1000});
    const auto second = lsu.tick(issue + 1, cache, warps);
    ASSERT_TRUE(second);
    EXPECT_EQ(second->slot, 2u);
    EXPECT_EQ(second->readyAt, issue + 1 + hit + decompress + 1 + position);
    EXPECT_EQ(queue.requests.count(), 2u);
}

TEST_F(LsuFixture, CompressedL2HitWakesAfterL2Decompression)
{
    // The same two loads against this fixture's uncompressed L2 and
    // against a static:bdi one. Each line is already in the L2 (zero
    // lines: BDI-compressed there) and misses the L1, so the compressed
    // L2 adds exactly its Eq. 3 decompression wait to each wake.
    GpuConfig l2_bdi = cfg;
    l2_bdi.l2.compress = LevelCompress::Static;
    l2_bdi.l2.staticAlgo = CompressorId::Bdi;
    LsuRig bdi(l2_bdi);

    // Two lines in neighbouring banks, so the loads share no bank.
    const Addr first_line = 0x1000;
    const Addr second_line = first_line + cfg.l2.lineBytes;
    constexpr Cycles kIssue = 10000;
    std::optional<LoadWake> wakes[2][2];
    LsuRig *rigs[2] = {this, &bdi};
    for (unsigned r = 0; r < 2; ++r) {
        LsuRig &rig = *rigs[r];
        rig.l2.access(0, first_line, false);
        rig.l2.access(0, second_line, false);
        rig.startLoad(0, {first_line});
        wakes[r][0] = rig.lsu.tick(kIssue, rig.cache, rig.warps);
        rig.startLoad(1, {second_line});
        wakes[r][1] = rig.lsu.tick(kIssue + 1, rig.cache, rig.warps);
        for (const auto &wake : wakes[r])
            ASSERT_TRUE(wake);
        EXPECT_EQ(rig.cache.misses.count(), 2u);
        EXPECT_EQ(rig.l2.hits.count(), 2u);
    }

    const Cycles decompress = cfg.timings.bdiDecompress;
    EXPECT_EQ(wakes[1][0]->readyAt, wakes[0][0]->readyAt + decompress + 1);
    // The second load reaches the L2 a cycle after the first, while the
    // first still decompresses: it queues at Eq. 3 position 1.
    const DecompressionQueue &queue =
        bdi.l2.domain()->queueFor(CompressorId::Bdi);
    const Cycles position = 1;
    EXPECT_EQ(queue.requests.count(), 2u);
    EXPECT_EQ(queue.queuePos.sum(), 0.0 + position);
    EXPECT_EQ(wakes[1][1]->readyAt,
              wakes[0][1]->readyAt + decompress + 1 + position);
}

TEST_F(LsuFixture, StoresDoNotTouchWarps)
{
    lsu.enqueueStore(std::vector<Addr>{0x4000});
    EXPECT_FALSE(lsu.tick(0, cache, warps));
    EXPECT_FALSE(lsu.busy());
    for (const auto &warp : warps)
        EXPECT_EQ(warp.state, WarpState::Active);
    EXPECT_EQ(cache.stores.count(), 1u);
}

TEST_F(LsuFixture, MshrFullBacksOffUntilFill)
{
    // Exhaust the MSHRs with distinct-line loads from warp 1.
    std::vector<Addr> lines;
    for (std::uint32_t i = 0; i < cfg.l1.mshrEntries; ++i)
        lines.push_back(0x100000 + i * 128);
    startLoad(1, lines);
    Cycles now = 0;
    for (std::uint32_t i = 0; i < cfg.l1.mshrEntries; ++i)
        lsu.tick(now++, cache, warps);
    EXPECT_FALSE(lsu.busy());

    // The next access is rejected and the LSU must sleep, not spin.
    startLoad(0, {0x900000});
    lsu.tick(now, cache, warps);
    EXPECT_TRUE(lsu.busy());
    EXPECT_GT(lsu.nextEvent(now), now + 1)
        << "after a rejection the LSU sleeps until the next fill";
    EXPECT_EQ(lsu.retries.count(), 1u);

    // At the fill time the retry succeeds.
    const Cycles retry = lsu.nextEvent(now);
    lsu.tick(retry, cache, warps);
    EXPECT_FALSE(lsu.busy());
}

TEST_F(LsuFixture, InterleavedWarpsTrackIndependently)
{
    startLoad(0, {0x1000});
    startLoad(2, {0x5000});
    EXPECT_EQ(lsu.tick(0, cache, warps)->slot, 0u);
    EXPECT_EQ(warps[0].state, WarpState::Active);
    EXPECT_EQ(warps[2].state, WarpState::WaitMem);
    EXPECT_EQ(lsu.tick(1, cache, warps)->slot, 2u);
    EXPECT_EQ(warps[2].state, WarpState::Active);
}

TEST_F(LsuFixture, ClearDropsQueueAndBackoff)
{
    startLoad(0, {0x1000, 0x2000});
    lsu.clear();
    EXPECT_FALSE(lsu.busy());
    EXPECT_EQ(lsu.depth(), 0u);
}
