/**
 * @file
 * Tests for the observability layer: ring-buffer flight-recorder
 * semantics, Chrome trace-event export validity, reconciliation of
 * event counts against the StatGroup counters, the bit-identity of
 * traced vs untraced runs, the per-EP timeline export and the
 * StatVisitor-based JSON serialisation of a stat hierarchy.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/driver.hh"
#include "runner/json.hh"
#include "trace/sink.hh"
#include "trace/tracer.hh"
#include "workloads/zoo.hh"

using namespace latte;

namespace
{

/** A cut-down machine so each traced run costs milliseconds. */
DriverOptions
tinyOptions()
{
    DriverOptions options;
    options.cfg.numSms = 2;
    options.maxInstructionsPerKernel = 20'000;
    return options;
}

WorkloadRunResult
runTraced(PolicyKind kind, Tracer *tracer)
{
    const Workload *workload = findWorkload("KM");
    EXPECT_NE(workload, nullptr);
    RunRequest request;
    request.workload = workload;
    request.policy = kind;
    request.options = tinyOptions();
    request.tracer = tracer;
    return run(request).value();
}

} // namespace

TEST(Tracer, RingOverwritesOldestButCountsStayExact)
{
    Tracer tracer(8);
    EXPECT_EQ(tracer.capacity(), 8u);

    for (std::uint64_t i = 0; i < 20; ++i) {
        TraceEvent ev = makeTraceEvent(i, TraceEventKind::L1Hit, 0);
        ev.arg0 = i;
        tracer.record(ev);
    }
    TraceEvent ep = makeTraceEvent(20, TraceEventKind::EpBoundary, 0);
    tracer.record(ep);

    EXPECT_EQ(tracer.recorded(), 21u);
    EXPECT_EQ(tracer.size(), 8u);
    EXPECT_EQ(tracer.dropped(), 13u);
    // Drops never corrupt the per-kind totals.
    EXPECT_EQ(tracer.countOf(TraceEventKind::L1Hit), 20u);
    EXPECT_EQ(tracer.countOf(TraceEventKind::EpBoundary), 1u);
    EXPECT_EQ(tracer.countOf(TraceEventKind::L1Miss), 0u);

    // forEach walks the retained window oldest-to-newest.
    std::vector<Cycles> stamps;
    tracer.forEach([&](const TraceEvent &ev) { stamps.push_back(ev.ts); });
    ASSERT_EQ(stamps.size(), 8u);
    for (std::size_t i = 0; i < stamps.size(); ++i)
        EXPECT_EQ(stamps[i], 13 + i);

    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.countOf(TraceEventKind::L1Hit), 0u);
}

TEST(Tracer, DisabledTracerRecordsNothing)
{
    Tracer tracer(8);
    tracer.setEnabled(false);
    tracer.record(makeTraceEvent(1, TraceEventKind::L1Hit, 0));
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.size(), 0u);
}

TEST(Trace, EventCountsReconcileWithRunCounters)
{
    Tracer tracer;
    const WorkloadRunResult result =
        runTraced(PolicyKind::LatteCc, &tracer);

    // One event per counted access, independent of ring drops. The
    // run's miss counter folds merged secondary misses in.
    EXPECT_EQ(tracer.countOf(TraceEventKind::L1Hit), result.hits);
    EXPECT_EQ(tracer.countOf(TraceEventKind::L1Miss) +
                  tracer.countOf(TraceEventKind::L1MissMerged),
              result.misses);

    // Every primary miss allocates exactly one MSHR.
    EXPECT_EQ(tracer.countOf(TraceEventKind::MshrAlloc),
              tracer.countOf(TraceEventKind::L1Miss));
    // Every primary miss eventually fills one line.
    EXPECT_LE(tracer.countOf(TraceEventKind::L1Insert),
              tracer.countOf(TraceEventKind::L1Miss));
    EXPECT_GT(tracer.countOf(TraceEventKind::L1Insert), 0u);

    // Kernel bracketing matches the result's kernel list.
    EXPECT_EQ(tracer.countOf(TraceEventKind::KernelBegin),
              result.kernels.size());
    EXPECT_EQ(tracer.countOf(TraceEventKind::KernelEnd),
              result.kernels.size());

    // Each SM's policy closes EPs; the result keeps SM 0's series.
    EXPECT_GE(tracer.countOf(TraceEventKind::EpBoundary),
              result.trace.size());
    EXPECT_GT(tracer.countOf(TraceEventKind::WarpIssue), 0u);
}

TEST(Trace, EvictionsNameLinesTheirSmHolds)
{
    // An L2 small enough for a short run to fill, so both levels evict.
    DriverOptions options = tinyOptions();
    options.cfg.l2.sizeBytes = 96 * 1024;
    RunRequest request;
    request.workload = findWorkload("KM");
    request.policy = PolicyKind::L2StaticBdi;
    request.options = options;
    Tracer tracer;
    request.tracer = &tracer;
    ASSERT_TRUE(run(request).ok());
    ASSERT_EQ(tracer.dropped(), 0u);

    // An eviction's arg0 is the byte address an insert on the same SM
    // (or the L2) put there, and not since written over or evicted.
    std::map<std::uint16_t, std::set<std::uint64_t>> resident;
    std::uint64_t l1_evicts = 0, l2_evicts = 0;
    tracer.forEach([&](const TraceEvent &ev) {
        std::set<std::uint64_t> &lines = resident[ev.sm];
        switch (ev.kind) {
          case TraceEventKind::L1Insert:
          case TraceEventKind::L2Insert:
            lines.insert(ev.arg0);
            break;
          case TraceEventKind::L1WriteInval:
          case TraceEventKind::L2WriteInval:
            lines.erase(ev.arg0);
            break;
          case TraceEventKind::L1Evict:
          case TraceEventKind::L2Evict:
            ++(ev.kind == TraceEventKind::L1Evict ? l1_evicts : l2_evicts);
            EXPECT_EQ(lines.erase(ev.arg0), 1u)
                << traceEventKindName(ev.kind) << " of 0x" << std::hex
                << ev.arg0 << " at cycle " << std::dec << ev.ts;
            break;
          default:
            break;
        }
    });
    EXPECT_GT(l1_evicts, 0u);
    EXPECT_GT(l2_evicts, 0u);
}

TEST(Trace, ChromeExportIsValidJson)
{
    Tracer tracer;
    const WorkloadRunResult result =
        runTraced(PolicyKind::LatteCc, &tracer);

    std::ostringstream os;
    ChromeTraceSink sink(os);
    sink.writeRun(result.workload + "/" + result.policyLabel, tracer);
    sink.finish();

    std::string error;
    const runner::Json parsed = runner::Json::parse(os.str(), &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(parsed.contains("traceEvents"));
    const auto &events = parsed.at("traceEvents").asArray();
    ASSERT_FALSE(events.empty());

    // A process_name metadata record labels the run, and every event
    // carries the mandatory Chrome fields.
    bool saw_process_name = false;
    for (const auto &event : events) {
        ASSERT_TRUE(event.contains("ph"));
        ASSERT_TRUE(event.contains("pid"));
        if (event.at("ph").asString() == "M" &&
            event.at("name").asString() == "process_name") {
            saw_process_name = true;
        }
    }
    EXPECT_TRUE(saw_process_name);
}

TEST(Trace, TracedRunIsBitIdenticalToUntraced)
{
    Tracer tracer;
    const WorkloadRunResult traced =
        runTraced(PolicyKind::LatteCc, &tracer);
    const WorkloadRunResult untraced =
        runTraced(PolicyKind::LatteCc, nullptr);

    // Tracing is purely observational: the canonical JSON of the run
    // result must not change by a byte.
    EXPECT_EQ(runner::toJson(traced).dump(),
              runner::toJson(untraced).dump());
    EXPECT_GT(tracer.recorded(), 0u);
}

TEST(Trace, TimelineExportRoundTrips)
{
    const WorkloadRunResult result =
        runTraced(PolicyKind::LatteCc, nullptr);
    ASSERT_FALSE(result.trace.empty());

    const runner::Json timeline = runner::timelineToJson({result});
    std::string error;
    const runner::Json parsed =
        runner::Json::parse(timeline.dump(2), &error);
    ASSERT_TRUE(error.empty()) << error;

    EXPECT_EQ(parsed.at("schema").asUint(), 1u);
    const auto &runs = parsed.at("runs").asArray();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].at("workload").asString(), result.workload);
    EXPECT_EQ(runs[0].at("policy").asString(), result.policyLabel);
    const auto &points = runs[0].at("points").asArray();
    ASSERT_EQ(points.size(), result.trace.size());
    for (const char *key :
         {"cycle", "tolerance", "mode", "capacityBytes",
          "decompQueueDepth", "samplerHits", "samplerMisses"}) {
        EXPECT_TRUE(points[0].contains(key)) << key;
    }
}

TEST(Trace, EventKindNamesAreStable)
{
    for (std::size_t k = 0; k < kNumTraceEventKinds; ++k) {
        const auto kind = static_cast<TraceEventKind>(k);
        ASSERT_NE(traceEventKindName(kind), nullptr);
        ASSERT_NE(traceEventKindCategory(kind), nullptr);
        EXPECT_GT(std::string(traceEventKindName(kind)).size(), 0u);
    }
}

TEST(Stats, VisitorJsonMatchesCollect)
{
    StatGroup root("gpu");
    Counter a(&root, "cycles", "elapsed cycles");
    StatGroup child("l1d0", &root);
    Counter b(&child, "hits", "read hits");
    Average c(&child, "ratio", "mean compression ratio");
    ++a;
    b += 3;
    c.sample(2.0);
    c.sample(4.0);

    // collect() flattens the visit() traversal into dotted paths.
    std::map<std::string, double> flat;
    root.collect(flat);
    EXPECT_EQ(flat.at("gpu.cycles"), 1.0);
    EXPECT_EQ(flat.at("gpu.l1d0.hits"), 3.0);
    EXPECT_EQ(flat.at("gpu.l1d0.ratio"), 3.0);
}
