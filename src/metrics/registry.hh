/**
 * @file
 * MetricRegistry: the in-memory time-series store behind --metrics-out.
 *
 * A registry is attached to one run: the driver points it at the Gpu's
 * StatGroup tree and registers gauges (decompression-queue depth, MSHR
 * occupancy, DRAM backlog, per-mode residency, sampler vote margin...).
 * The Gpu then calls sample() every `interval` simulated cycles, which
 * appends one row — the current value() of every stat in the tree plus
 * every gauge — to the series. The hot caches and the DRAM model also
 * feed free-standing LatencyHistograms (hit/miss latency, queue waits)
 * owned by the registry.
 *
 * Sampling is read-only over simulator state, so attaching a registry
 * never changes results (pinned by the bit-identity golden test). It
 * is therefore, like the tracer, observational: NOT part of the result
 * cache key, and a run that carries one bypasses the disk cache.
 *
 * Performance: the stat tree is walked once, on the first sample, to
 * resolve a flat vector of StatBase pointers; every later sample is a
 * pointer-chase loop with no string work, keeping the overhead at the
 * default interval well under the 5% budget.
 *
 * Exports: the final snapshot and the histograms into a Prometheus
 * Exposition, CSV (the raw time series), and JSONL (schema line + one
 * line per sample + one line per histogram). writeMetricsOut() is the
 * one --metrics-out writer.
 */

#ifndef LATTE_METRICS_REGISTRY_HH
#define LATTE_METRICS_REGISTRY_HH

#include <functional>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "exposition.hh"
#include "latency_histogram.hh"

namespace latte
{
class StatGroup;
class StatBase;
} // namespace latte

namespace latte::metrics
{

class MetricRegistry
{
  public:
    /** ~100 rows on a 10M-cycle run; cheap and detailed enough. */
    static constexpr Cycles kDefaultInterval = 100'000;

    explicit MetricRegistry(Cycles interval = 0)
        : interval_(interval ? interval : kDefaultInterval),
          nextSampleAt_(interval_)
    {}

    Cycles interval() const { return interval_; }

    // --- Wiring (driver-side) -----------------------------------------

    /** Sample @p root's stats from now on (resolved on first sample). */
    void attachStats(const StatGroup *root);

    /**
     * Register (or replace, by name) a gauge evaluated at each sample.
     * Gauges run inside the simulation, so the callable may read any
     * live simulator state — but must not mutate it.
     */
    void addGauge(const std::string &name,
                  std::function<double(Cycles)> fn);

    /** Create-or-get a named histogram; the reference stays valid. */
    LatencyHistogram &histogram(const std::string &name);

    /**
     * Drop stat and gauge bindings (the sampled data stays). Called by
     * the driver when the run ends, because gauges capture pointers
     * into the Gpu that is about to be destroyed. A later attach +
     * addGauge cycle (Kernel-OPT legs) must produce the same series.
     */
    void detach();

    // --- Sampling (simulator-side) ------------------------------------

    bool due(Cycles now) const { return now >= nextSampleAt_; }

    /** Append one row and schedule the next sample. */
    void sample(Cycles now);

    /** Sample unless a row already exists for @p now (run end). */
    void finalSample(Cycles now);

    // --- Reading ------------------------------------------------------

    struct Row
    {
        Cycles cycle = 0;
        std::vector<double> values; //!< aligned with seriesNames()
    };

    /** Stat paths (dotted) followed by gauge names, in column order. */
    std::vector<std::string> seriesNames() const;

    const std::vector<Row> &rows() const { return rows_; }

    /** Value of @p series in the newest row; nullopt if unknown. */
    std::optional<double> lastValue(const std::string &series) const;

    const std::map<std::string, LatencyHistogram> &histograms() const
    {
        return histograms_;
    }

    // --- Exports ------------------------------------------------------

    /**
     * Add the newest row (every series as a gauge, after the
     * `sample_cycle` it was sampled at) and every histogram to @p out.
     */
    void expose(Exposition &out, const MetricLabels &labels = {}) const;
    void exportCsv(std::ostream &os, const MetricLabels &labels = {}) const;
    void exportJsonl(std::ostream &os, const MetricLabels &labels = {}) const;

  private:
    struct Gauge
    {
        std::string name;
        std::function<double(Cycles)> fn;
    };

    /** Walk root_ once, caching stat pointers and column names. */
    void resolveSeries();

    Cycles interval_;
    Cycles nextSampleAt_;
    const StatGroup *root_ = nullptr;
    bool resolved_ = false;
    std::vector<const StatBase *> statSeries_;
    std::vector<std::string> statNames_;
    std::vector<Gauge> gauges_;
    std::vector<Row> rows_;
    /** std::map: stable addresses for the cached hot-path pointers. */
    std::map<std::string, LatencyHistogram> histograms_;
};

/** One run's registry and the labels its exported series carry. */
struct LabeledRegistry
{
    const MetricRegistry *registry = nullptr;
    MetricLabels labels;
};

/**
 * Write the --metrics-out file @p path in the format its extension
 * names: .prom/.txt one Prometheus exposition of every run, .csv one
 * CSV block per run, anything else one JSONL block per run. The zone
 * profile is process-wide, so it is appended once (JSONL and
 * Prometheus) when the profiler is on. False when @p path cannot be
 * opened.
 */
bool writeMetricsOut(const std::string &path,
                     const std::vector<LabeledRegistry> &runs);

} // namespace latte::metrics

#endif // LATTE_METRICS_REGISTRY_HH
