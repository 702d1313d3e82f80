/**
 * @file
 * Tests for the decompression-queue contention model (Eq. 3): effective
 * hit latency, queue build-up under bursts, and drain behaviour.
 */

#include <gtest/gtest.h>

#include "compress/decomp_queue.hh"

using namespace latte;

TEST(DecompQueue, UnloadedLatencyIsEqThree)
{
    StatGroup root("root");
    DecompressionQueue queue("q", &root);
    // effective = latency + (pos 0 + 1)
    EXPECT_EQ(queue.enqueue(100, 14), 100u + 14 + 0 + 1);
}

TEST(DecompQueue, BurstBuildsPositions)
{
    StatGroup root("root");
    DecompressionQueue queue("q", &root);
    const Cycles first = queue.enqueue(0, 14);
    const Cycles second = queue.enqueue(0, 14);
    const Cycles third = queue.enqueue(0, 14);
    EXPECT_EQ(first, 15u);
    EXPECT_EQ(second, 16u);
    EXPECT_EQ(third, 17u);
    EXPECT_EQ(queue.depth(0), 3u);
}

TEST(DecompQueue, DrainsByCompletionTime)
{
    StatGroup root("root");
    DecompressionQueue queue("q", &root);
    queue.enqueue(0, 14);   // done at 15
    queue.enqueue(0, 14);   // done at 16
    EXPECT_EQ(queue.depth(10), 2u);
    EXPECT_EQ(queue.depth(15), 1u);
    EXPECT_EQ(queue.depth(16), 0u);

    // A late arrival sees an empty queue again.
    EXPECT_EQ(queue.enqueue(100, 2), 100u + 2 + 0 + 1);
}

TEST(DecompQueue, ExpectedPosMatchesDepth)
{
    StatGroup root("root");
    DecompressionQueue queue("q", &root);
    queue.enqueue(0, 10);
    queue.enqueue(0, 10);
    EXPECT_EQ(queue.expectedPos(5), queue.depth(5));
    EXPECT_EQ(queue.expectedPos(50), 0u);
}

TEST(DecompQueue, StatsTrackUsage)
{
    StatGroup root("root");
    DecompressionQueue queue("q", &root);
    for (int i = 0; i < 5; ++i)
        queue.enqueue(0, 8);
    EXPECT_EQ(queue.requests.count(), 5u);
    EXPECT_GT(queue.peakDepth.count(), 0u);
    EXPECT_GT(queue.queuePos.value(), 0.0);
}

TEST(DecompQueue, SteadyArrivalRateReachesEquilibrium)
{
    StatGroup root("root");
    DecompressionQueue queue("q", &root);
    // Arrivals every 2 cycles with 14-cycle latency: the queue must
    // stabilise rather than grow without bound (pos ~ rL/(1-r)).
    std::size_t depth_at_end = 0;
    for (Cycles t = 0; t < 4000; t += 2)
        queue.enqueue(t, 14);
    depth_at_end = queue.depth(4000);
    EXPECT_LT(depth_at_end, 32u);
}
