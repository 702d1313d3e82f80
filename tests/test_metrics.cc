/**
 * @file
 * Tests for the metrics subsystem: LatencyHistogram bucket-boundary
 * semantics and percentile queries, the Prometheus Exposition writer,
 * MetricRegistry sampling and exports, the zone self-profiler, and the
 * metrics <-> trace reconciliation invariant (metric counters equal
 * the corresponding TraceEvent counts).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "compress/compressor.hh"
#include "core/driver.hh"
#include "metrics/exposition.hh"
#include "metrics/latency_histogram.hh"
#include "metrics/profiler.hh"
#include "metrics/registry.hh"
#include "runner/json.hh"
#include "trace/tracer.hh"
#include "workloads/zoo.hh"

using namespace latte;
using namespace latte::metrics;

namespace
{

// --- LatencyHistogram bucket boundaries (pinned semantics) -------------

TEST(LatencyHistogram, BucketBoundaries)
{
    const LatencyHistogram h;

    // Bucket 0 covers [0, 1); negatives clamp to 0.
    EXPECT_EQ(h.bucketIndexFor(0.0), 0u);
    EXPECT_EQ(h.bucketIndexFor(0.5), 0u);
    EXPECT_EQ(h.bucketIndexFor(-3.0), 0u);

    // Bucket i >= 1 covers [2^(i-1), 2^i): an exact power of two lands
    // in the bucket it lower-bounds.
    EXPECT_EQ(h.bucketIndexFor(1.0), 1u);
    EXPECT_EQ(h.bucketIndexFor(1.999), 1u);
    EXPECT_EQ(h.bucketIndexFor(2.0), 2u);
    EXPECT_EQ(h.bucketIndexFor(3.999), 2u);
    EXPECT_EQ(h.bucketIndexFor(4.0), 3u);
    EXPECT_EQ(h.bucketIndexFor(1024.0), 11u);
    EXPECT_EQ(h.bucketIndexFor(1023.999), 10u);

    // Bounds agree with the index function at every edge.
    for (unsigned i = 0; i < h.numBuckets(); ++i) {
        EXPECT_EQ(h.bucketIndexFor(h.bucketLowerBound(i)), i);
        EXPECT_LT(h.bucketLowerBound(i), h.bucketUpperBound(i));
        if (i + 1 < h.numBuckets()) {
            EXPECT_EQ(h.bucketUpperBound(i), h.bucketLowerBound(i + 1));
        }
    }
    EXPECT_EQ(h.bucketLowerBound(0), 0.0);
    EXPECT_EQ(h.bucketUpperBound(0), 1.0);
    EXPECT_EQ(h.bucketLowerBound(1), 1.0);
}

TEST(LatencyHistogram, OverflowBucket)
{
    // 4 regular buckets: [0,1) [1,2) [2,4) [4,8); >= 8 overflows.
    LatencyHistogram h(4);
    EXPECT_EQ(h.bucketIndexFor(7.999), 3u);
    EXPECT_EQ(h.bucketIndexFor(8.0), h.numBuckets());

    h.record(7.999);
    h.record(8.0);
    h.record(1e12);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(LatencyHistogram, PercentileQueries)
{
    LatencyHistogram empty;
    EXPECT_EQ(empty.percentile(50), 0.0);
    EXPECT_EQ(empty.percentile(99), 0.0);

    LatencyHistogram single;
    single.record(37.0);
    // Clamped to [min, max]: a single-sample histogram returns exactly
    // that sample at every percentile.
    EXPECT_DOUBLE_EQ(single.percentile(0), 37.0);
    EXPECT_DOUBLE_EQ(single.percentile(50), 37.0);
    EXPECT_DOUBLE_EQ(single.percentile(100), 37.0);

    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    const double p50 = h.percentile(50);
    const double p90 = h.percentile(90);
    const double p99 = h.percentile(99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // Log buckets are coarse but must stay in the right neighbourhood.
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1024.0);
    EXPECT_GE(p99, 512.0);
    EXPECT_LE(p99, 1000.0); // clamped to max()

    // Overflow samples resolve to max().
    LatencyHistogram tiny(2);
    tiny.record(0.5);
    tiny.record(100.0);
    tiny.record(200.0);
    EXPECT_DOUBLE_EQ(tiny.percentile(99), 200.0);
}

TEST(LatencyHistogram, StatsAndReset)
{
    LatencyHistogram h;
    h.record(2.0);
    h.record(6.0);
    h.record(-1.0); // clamps to 0
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 6.0);
    EXPECT_DOUBLE_EQ(h.sum(), 8.0);
    EXPECT_NEAR(h.mean(), 8.0 / 3.0, 1e-12);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(LatencyHistogram, MergePreservesMoments)
{
    LatencyHistogram a;
    LatencyHistogram b;
    for (int i = 1; i <= 50; ++i)
        a.record(static_cast<double>(i));
    for (int i = 51; i <= 100; ++i)
        b.record(static_cast<double>(i));

    LatencyHistogram whole;
    for (int i = 1; i <= 100; ++i)
        whole.record(static_cast<double>(i));

    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_DOUBLE_EQ(a.sum(), whole.sum());
    EXPECT_EQ(a.min(), whole.min());
    EXPECT_EQ(a.max(), whole.max());
    EXPECT_EQ(a.percentile(50), whole.percentile(50));
    EXPECT_EQ(a.percentile(99), whole.percentile(99));

    // Merging an empty histogram is a no-op in both directions.
    LatencyHistogram empty;
    const std::uint64_t count = a.count();
    a.merge(empty);
    EXPECT_EQ(a.count(), count);
    empty.merge(a);
    EXPECT_EQ(empty.count(), count);
}

// --- MetricRegistry sampling and exports -------------------------------

TEST(MetricRegistry, SamplesStatsAndGauges)
{
    StatGroup root("gpu");
    Counter hits(&root, "hits", "test counter");
    ++hits;
    ++hits;

    MetricRegistry registry(100);
    registry.attachStats(&root);
    double gauge_value = 7.0;
    registry.addGauge("my_gauge",
                      [&](Cycles) { return gauge_value; });

    EXPECT_FALSE(registry.due(99));
    EXPECT_TRUE(registry.due(100));
    registry.sample(100);
    EXPECT_FALSE(registry.due(150));
    EXPECT_TRUE(registry.due(200));

    ++hits;
    gauge_value = 8.0;
    registry.sample(200);
    // finalSample dedupes an existing row for the same cycle...
    registry.finalSample(200);
    ASSERT_EQ(registry.rows().size(), 2u);
    // ...but appends when the run ended between samples.
    registry.finalSample(250);
    ASSERT_EQ(registry.rows().size(), 3u);

    const auto names = registry.seriesNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "gpu.hits");
    EXPECT_EQ(names[1], "my_gauge");

    EXPECT_EQ(registry.rows()[0].cycle, 100u);
    EXPECT_DOUBLE_EQ(registry.rows()[0].values[0], 2.0);
    EXPECT_DOUBLE_EQ(registry.rows()[0].values[1], 7.0);
    EXPECT_DOUBLE_EQ(registry.rows()[1].values[0], 3.0);
    EXPECT_DOUBLE_EQ(registry.rows()[1].values[1], 8.0);
    EXPECT_DOUBLE_EQ(registry.lastValue("gpu.hits").value(), 3.0);
    EXPECT_DOUBLE_EQ(registry.lastValue("my_gauge").value(), 8.0);
    EXPECT_FALSE(registry.lastValue("no_such_series").has_value());
}

TEST(MetricRegistry, ExportFormatsParse)
{
    StatGroup root("gpu");
    Counter hits(&root, "hits", "test counter");
    ++hits;

    MetricRegistry registry(100);
    registry.attachStats(&root);
    registry.addGauge("g", [](Cycles) { return 1.5; });
    registry.histogram("lat").record(3.0);
    registry.sample(100);
    registry.sample(200);

    // writeMetricsOut picks the format by extension: .prom and .txt
    // are Prometheus, .csv is CSV, anything else JSONL.
    const MetricLabels labels = {{"workload", "KM"}};
    const auto exported = [&](const std::string &name) {
        const std::string path = ::testing::TempDir() + "/" + name;
        EXPECT_TRUE(writeMetricsOut(path, {{&registry, labels}})) << path;
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    };
    const std::string jsonl = exported("latte_metrics.jsonl");
    EXPECT_EQ(exported("latte_metrics_noext"), jsonl);
    const std::string text = exported("latte_metrics.prom");
    EXPECT_EQ(exported("latte_metrics.txt"), text);

    // Every JSONL line parses as standalone JSON.
    std::istringstream lines(jsonl);
    std::string line;
    std::size_t schema_lines = 0, sample_lines = 0, histogram_lines = 0;
    while (std::getline(lines, line)) {
        std::string error;
        const runner::Json parsed = runner::Json::parse(line, &error);
        ASSERT_TRUE(error.empty()) << error << " in: " << line;
        const std::string &type = parsed.at("type").asString();
        if (type == "schema") {
            ++schema_lines;
            EXPECT_EQ(parsed.at("labels").at("workload").asString(),
                      "KM");
        } else if (type == "sample") {
            ++sample_lines;
        } else if (type == "histogram") {
            ++histogram_lines;
            EXPECT_EQ(parsed.at("name").asString(), "lat");
            EXPECT_EQ(parsed.at("count").asUint(), 1u);
        }
    }
    EXPECT_EQ(schema_lines, 1u);
    EXPECT_EQ(sample_lines, 2u);
    EXPECT_EQ(histogram_lines, 1u);

    // CSV: header + one line per row.
    std::istringstream csv_lines(exported("latte_metrics.csv"));
    std::vector<std::string> rows;
    while (std::getline(csv_lines, line)) {
        if (!line.empty() && line[0] != '#')
            rows.push_back(line);
    }
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0], "cycle,gpu.hits,g");

    // Prometheus: sanitized names (no dots), cumulative histogram with
    // a +Inf bucket matching _count.
    EXPECT_NE(text.find("latte_gpu_hits{workload=\"KM\"}"),
              std::string::npos);
    EXPECT_NE(text.find("latte_lat_bucket{workload=\"KM\",le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("latte_lat_count"), std::string::npos);
    EXPECT_EQ(text.find("gpu.hits"), std::string::npos);
}

TEST(MetricRegistry, JsonlEscapesControlCharacters)
{
    StatGroup root("gpu");
    Counter hits(&root, "hits", "test counter");
    MetricRegistry registry(100);
    registry.attachStats(&root);
    registry.addGauge("g\t\"1\"", [](Cycles) { return 1.0; });
    registry.histogram("lat\n").record(3.0);
    registry.sample(100);

    const std::string label = "a\nb\x01";
    std::ostringstream jsonl;
    registry.exportJsonl(jsonl, {{"run", label}});
    std::istringstream lines(jsonl.str());
    std::string line;
    std::size_t parsed_lines = 0;
    while (std::getline(lines, line)) {
        std::string error;
        const runner::Json parsed = runner::Json::parse(line, &error);
        ASSERT_TRUE(error.empty()) << error << " in: " << line;
        ++parsed_lines;
        const std::string &type = parsed.at("type").asString();
        if (type == "schema") {
            EXPECT_EQ(parsed.at("labels").at("run").asString(), label);
            EXPECT_EQ(parsed.at("series").asArray()[1].asString(),
                      "g\t\"1\"");
        } else if (type == "histogram") {
            EXPECT_EQ(parsed.at("name").asString(), "lat\n");
        }
    }
    EXPECT_EQ(parsed_lines, 3u);
}

TEST(MetricRegistry, DetachKeepsSeriesStable)
{
    StatGroup root("gpu");
    Counter hits(&root, "hits", "test counter");

    MetricRegistry registry(100);
    registry.attachStats(&root);
    registry.addGauge("g", [](Cycles) { return 1.0; });
    registry.sample(100);
    registry.detach();

    // Names survive the detach so exports stay column-stable.
    EXPECT_EQ(registry.seriesNames().size(), 2u);
    EXPECT_EQ(registry.rows().size(), 1u);

    // Re-attach (Kernel-OPT leg pattern) keeps appending to the same
    // series.
    registry.attachStats(&root);
    registry.addGauge("g", [](Cycles) { return 2.0; });
    registry.sample(200);
    ASSERT_EQ(registry.rows().size(), 2u);
    EXPECT_DOUBLE_EQ(registry.rows()[1].values[1], 2.0);
}

// --- The one Prometheus writer ----------------------------------------

TEST(Exposition, OneBlockPerFamilyInFirstAddedOrder)
{
    StatGroup root("gpu");
    Counter hits(&root, "hits", "test counter");
    ++hits;

    // Two runs with the same series under different labels, the second
    // with one series the first lacks.
    MetricRegistry first(100), second(100);
    first.attachStats(&root);
    second.attachStats(&root);
    second.addGauge("extra", [](Cycles) { return 2.0; });
    first.sample(100);
    second.sample(300);

    Exposition exposition;
    first.expose(exposition, {{"run", "a"}});
    second.expose(exposition, {{"run", "b"}});
    std::ostringstream os;
    exposition.write(os);

    // One TYPE line per family, each family's samples together.
    EXPECT_EQ(os.str(), "# TYPE latte_sample_cycle gauge\n"
                        "latte_sample_cycle{run=\"a\"} 100\n"
                        "latte_sample_cycle{run=\"b\"} 300\n"
                        "# TYPE latte_gpu_hits gauge\n"
                        "latte_gpu_hits{run=\"a\"} 1\n"
                        "latte_gpu_hits{run=\"b\"} 1\n"
                        "# TYPE latte_extra gauge\n"
                        "latte_extra{run=\"b\"} 2\n");
}

TEST(Exposition, HistogramIsCumulativeWithInfSumAndCount)
{
    // Buckets [0,1) [1,2) [2,4); 5 and 9 overflow.
    LatencyHistogram hist(3);
    for (const double v : {0.5, 1.5, 3.0, 3.5, 5.0, 9.0})
        hist.record(v);

    Exposition exposition;
    exposition.histogram("wait", {}, hist);
    exposition.histogram("wait", {{"q", "x\"y"}}, LatencyHistogram(3));
    std::ostringstream os;
    exposition.write(os);
    EXPECT_EQ(os.str(), "# TYPE latte_wait histogram\n"
                        "latte_wait_bucket{le=\"1\"} 1\n"
                        "latte_wait_bucket{le=\"2\"} 2\n"
                        "latte_wait_bucket{le=\"4\"} 4\n"
                        "latte_wait_bucket{le=\"+Inf\"} 6\n"
                        "latte_wait_sum 22.5\n"
                        "latte_wait_count 6\n"
                        "latte_wait_bucket{q=\"x\\\"y\",le=\"1\"} 0\n"
                        "latte_wait_bucket{q=\"x\\\"y\",le=\"2\"} 0\n"
                        "latte_wait_bucket{q=\"x\\\"y\",le=\"4\"} 0\n"
                        "latte_wait_bucket{q=\"x\\\"y\",le=\"+Inf\"} 0\n"
                        "latte_wait_sum{q=\"x\\\"y\"} 0\n"
                        "latte_wait_count{q=\"x\\\"y\"} 0\n");
}

TEST(Exposition, RejectsANameUnderASecondType)
{
    Exposition exposition;
    exposition.gauge("depth", {}, 1.0);
    exposition.gauge("depth", {{"q", "1"}}, 2.0); // same type: fine
    EXPECT_DEATH(exposition.counter("depth", {}, 3.0),
                 "latte_depth added under a second type");
    EXPECT_DEATH(exposition.histogram("depth", {}, LatencyHistogram()),
                 "second type");
}

// --- Self-profiler -----------------------------------------------------

TEST(Profiler, RecordsZoneTotals)
{
    profilerReset();
    setProfilerEnabled(true);
    {
        ProfileScope scope(ProfileZone::CompressorProbe);
        // Do a sliver of work so elapsed time is plausibly nonzero
        // (zero is fine too: calls is what we assert on).
        volatile int sink = 0;
        for (int i = 0; i < 100; ++i)
            sink = sink + i;
    }
    { ProfileScope scope(ProfileZone::CompressorProbe); }
    setProfilerEnabled(false);

    const auto totals = profilerSnapshot();
    const auto idx =
        static_cast<std::size_t>(ProfileZone::CompressorProbe);
    EXPECT_EQ(totals[idx].calls, 2u);

    // Disabled scopes record nothing.
    { ProfileScope scope(ProfileZone::CompressorProbe); }
    EXPECT_EQ(profilerSnapshot()[idx].calls, 2u);

    std::ostringstream jsonl;
    writeProfileJsonl(jsonl);
    std::istringstream lines(jsonl.str());
    std::string line;
    bool found = false;
    while (std::getline(lines, line)) {
        std::string error;
        const runner::Json parsed = runner::Json::parse(line, &error);
        ASSERT_TRUE(error.empty()) << error;
        if (parsed.at("zone").asString() == "compressor_probe") {
            found = true;
            EXPECT_EQ(parsed.at("calls").asUint(), 2u);
        }
    }
    EXPECT_TRUE(found);
    profilerReset();
}

// --- Metrics <-> trace reconciliation ----------------------------------

TEST(MetricsReconciliation, CountersMatchTraceEvents)
{
    const Workload *workload = findWorkload("KM");
    ASSERT_NE(workload, nullptr);

    RunRequest request;
    request.workload = workload;
    request.policy = PolicyKind::LatteCc;
    request.options.cfg.numSms = 2;
    request.options.maxInstructionsPerKernel = 20'000;

    Tracer tracer;
    MetricRegistry registry;
    request.tracer = &tracer;
    request.metrics = &registry;

    const WorkloadRunResult result = run(request).value();
    ASSERT_FALSE(registry.rows().empty());

    // Sum an L1 stat over all SMs (e.g. gpu.sm*.l1d*.hits) at the
    // final sample row, ignoring nested groups like mshr.
    const auto sum_series = [&](const std::string &stat) {
        const auto names = registry.seriesNames();
        const auto &last = registry.rows().back();
        double sum = 0;
        for (std::size_t i = 0; i < names.size(); ++i) {
            const std::string &name = names[i];
            const std::size_t l1d = name.find(".l1d");
            if (l1d == std::string::npos)
                continue;
            const std::size_t dot = name.find('.', l1d + 1);
            if (dot != std::string::npos &&
                name.substr(dot + 1) == stat) {
                sum += last.values[i];
            }
        }
        return static_cast<std::uint64_t>(sum);
    };

    // The final metric sample, the result struct and the trace event
    // counts all describe the same run and must agree exactly.
    EXPECT_EQ(sum_series("hits"), result.hits);
    EXPECT_EQ(sum_series("hits"),
              tracer.countOf(TraceEventKind::L1Hit));
    EXPECT_EQ(sum_series("misses"),
              tracer.countOf(TraceEventKind::L1Miss));
    EXPECT_EQ(sum_series("merged_misses"),
              tracer.countOf(TraceEventKind::L1MissMerged));
    EXPECT_EQ(sum_series("evictions"),
              tracer.countOf(TraceEventKind::L1Evict));
    EXPECT_EQ(sum_series("write_invalidations"),
              tracer.countOf(TraceEventKind::L1WriteInval));

    // Gauge cross-checks: mode changes equal their trace events, and
    // per-mode access residency sums to the result's mode accesses.
    EXPECT_EQ(static_cast<std::uint64_t>(
                  registry.lastValue("mode_changes").value()),
              tracer.countOf(TraceEventKind::ModeChange));
    std::uint64_t mode_total = 0;
    for (std::size_t m = 0; m < kNumModes; ++m) {
        const auto value = registry.lastValue(
            std::string("mode_accesses.") +
            compressorName(static_cast<CompressorId>(m)));
        ASSERT_TRUE(value.has_value());
        mode_total += static_cast<std::uint64_t>(*value);
    }
    std::uint64_t expected_total = 0;
    for (const std::uint64_t n : result.modeAccesses)
        expected_total += n;
    EXPECT_EQ(mode_total, expected_total);

    // The latency histograms saw every hit and primary miss.
    const auto &histograms = registry.histograms();
    ASSERT_TRUE(histograms.count("l1_hit_latency"));
    ASSERT_TRUE(histograms.count("l1_miss_latency"));
    EXPECT_EQ(histograms.at("l1_hit_latency").count(), result.hits);
    EXPECT_EQ(histograms.at("l1_miss_latency").count(),
              tracer.countOf(TraceEventKind::L1Miss));
    EXPECT_EQ(histograms.at("decomp_queue_wait").count(),
              tracer.countOf(TraceEventKind::DecompEnqueue));
}

} // namespace
