#include "registry.hh"

#include <fstream>

#include "common/logging.hh"
#include "common/stats.hh"
#include "profiler.hh"

namespace latte::metrics
{

namespace
{

/** visit() adapter: flat (path.name, stat*) list in tree order. */
class SeriesCollector : public StatVisitor
{
  public:
    SeriesCollector(std::vector<std::string> &names,
                    std::vector<const StatBase *> &stats)
        : names_(names), stats_(stats)
    {}

    void beginGroup(const StatGroup &, const std::string &) override {}
    void endGroup(const StatGroup &, const std::string &) override {}

    void
    visitStat(const StatBase &stat, const std::string &path) override
    {
        names_.push_back(path + "." + stat.name());
        stats_.push_back(&stat);
    }

  private:
    std::vector<std::string> &names_;
    std::vector<const StatBase *> &stats_;
};

} // namespace

void
MetricRegistry::attachStats(const StatGroup *root)
{
    latte_assert(root != nullptr);
    root_ = root;
    resolved_ = false;
}

void
MetricRegistry::addGauge(const std::string &name,
                         std::function<double(Cycles)> fn)
{
    for (Gauge &gauge : gauges_) {
        if (gauge.name == name) {
            gauge.fn = std::move(fn); // re-attach (Kernel-OPT legs)
            return;
        }
    }
    latte_assert(rows_.empty() || !statNames_.empty(),
                 "cannot add gauges after sampling started");
    gauges_.push_back({name, std::move(fn)});
}

LatencyHistogram &
MetricRegistry::histogram(const std::string &name)
{
    return histograms_[name]; // default-constructs on first use
}

void
MetricRegistry::resolveSeries()
{
    latte_assert(root_ != nullptr,
                 "MetricRegistry::sample without attachStats");
    std::vector<std::string> names;
    std::vector<const StatBase *> stats;
    SeriesCollector collector(names, stats);
    root_->visit(collector);

    if (statNames_.empty()) {
        statNames_ = std::move(names);
    } else {
        // Re-attach (a later Kernel-OPT leg): the tree shape is a pure
        // function of the config, so the columns must line up exactly.
        latte_assert(names == statNames_,
                     "stat series changed across attachStats calls");
    }
    statSeries_ = std::move(stats);
    resolved_ = true;
}

void
MetricRegistry::sample(Cycles now)
{
    if (!resolved_)
        resolveSeries();

    Row row;
    row.cycle = now;
    row.values.reserve(statSeries_.size() + gauges_.size());
    for (const StatBase *stat : statSeries_)
        row.values.push_back(stat->value());
    for (const Gauge &gauge : gauges_) {
        latte_assert(gauge.fn != nullptr,
                     "gauge {} sampled while detached", gauge.name);
        row.values.push_back(gauge.fn(now));
    }
    rows_.push_back(std::move(row));
    nextSampleAt_ = now + interval_;
}

void
MetricRegistry::finalSample(Cycles now)
{
    if (!rows_.empty() && rows_.back().cycle == now)
        return;
    sample(now);
}

void
MetricRegistry::detach()
{
    root_ = nullptr;
    resolved_ = false;
    statSeries_.clear();
    for (Gauge &gauge : gauges_)
        gauge.fn = nullptr;
}

std::vector<std::string>
MetricRegistry::seriesNames() const
{
    std::vector<std::string> names = statNames_;
    names.reserve(names.size() + gauges_.size());
    for (const Gauge &gauge : gauges_)
        names.push_back(gauge.name);
    return names;
}

std::optional<double>
MetricRegistry::lastValue(const std::string &series) const
{
    if (rows_.empty())
        return std::nullopt;
    const std::vector<std::string> names = seriesNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == series && i < rows_.back().values.size())
            return rows_.back().values[i];
    }
    return std::nullopt;
}

void
MetricRegistry::expose(Exposition &out, const MetricLabels &labels) const
{
    if (!rows_.empty()) {
        const std::vector<std::string> names = seriesNames();
        const Row &last = rows_.back();
        out.gauge("sample_cycle", labels, static_cast<double>(last.cycle));
        for (std::size_t i = 0;
             i < names.size() && i < last.values.size(); ++i)
            out.gauge(names[i], labels, last.values[i]);
    }
    for (const auto &[name, hist] : histograms_)
        out.histogram(name, labels, hist);
}

void
MetricRegistry::exportCsv(std::ostream &os, const MetricLabels &labels) const
{
    if (!labels.empty()) {
        os << "#";
        for (const auto &[key, value] : labels)
            os << " " << key << "=" << value;
        os << "\n";
    }
    os << "cycle";
    for (const std::string &name : seriesNames())
        os << "," << name;
    os << "\n";
    for (const Row &row : rows_) {
        os << row.cycle;
        for (const double v : row.values)
            os << "," << prometheusNumber(v);
        os << "\n";
    }
}

void
MetricRegistry::exportJsonl(std::ostream &os, const MetricLabels &labels) const
{
    // Schema line: labels + column names, so each later line is small.
    os << "{\"interval\":" << interval_ << ",\"labels\":{";
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            os << ",";
        os << jsonString(key) << ":" << jsonString(value);
        first = false;
    }
    os << "},\"series\":[";
    first = true;
    for (const std::string &name : seriesNames()) {
        if (!first)
            os << ",";
        os << jsonString(name);
        first = false;
    }
    os << "],\"type\":\"schema\"}\n";

    for (const Row &row : rows_) {
        os << "{\"cycle\":" << row.cycle << ",\"type\":\"sample\","
           << "\"values\":[";
        for (std::size_t i = 0; i < row.values.size(); ++i) {
            if (i)
                os << ",";
            os << prometheusNumber(row.values[i]);
        }
        os << "]}\n";
    }

    for (const auto &[name, hist] : histograms_) {
        os << "{\"buckets\":[";
        for (unsigned i = 0; i < hist.numBuckets(); ++i) {
            if (i)
                os << ",";
            os << hist.buckets()[i];
        }
        os << "],\"count\":" << hist.count()
           << ",\"max\":" << prometheusNumber(hist.max())
           << ",\"mean\":" << prometheusNumber(hist.mean())
           << ",\"min\":" << prometheusNumber(hist.min()) << ",\"name\":"
           << jsonString(name)
           << ",\"overflow\":" << hist.overflow()
           << ",\"p50\":" << prometheusNumber(hist.percentile(50))
           << ",\"p90\":" << prometheusNumber(hist.percentile(90))
           << ",\"p99\":" << prometheusNumber(hist.percentile(99))
           << ",\"type\":\"histogram\"}\n";
    }
}

bool
writeMetricsOut(const std::string &path,
                const std::vector<LabeledRegistry> &runs)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const auto dot = path.rfind('.');
    const std::string ext =
        dot == std::string::npos ? "" : path.substr(dot);
    if (ext == ".prom" || ext == ".txt") {
        Exposition exposition;
        for (const LabeledRegistry &run : runs)
            run.registry->expose(exposition, run.labels);
        if (profilerEnabled())
            exposeProfile(exposition);
        exposition.write(out);
        return true;
    }
    for (const LabeledRegistry &run : runs) {
        if (ext == ".csv")
            run.registry->exportCsv(out, run.labels);
        else
            run.registry->exportJsonl(out, run.labels);
    }
    // CSV stays a pure per-run time series.
    if (ext != ".csv" && profilerEnabled())
        writeProfileJsonl(out);
    return true;
}

} // namespace latte::metrics
