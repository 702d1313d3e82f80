#include "registry.hh"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "common/stats.hh"

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

std::string
prometheusNumber(double v)
{
    if (std::isfinite(v) && v == std::floor(v) &&
        std::abs(v) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    for (const int precision : {15, 16, 17}) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        double back = 0;
        std::sscanf(buf, "%lf", &back);
        if (back == v)
            return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
prometheusName(const std::string &name)
{
    std::string out = "latte_";
    for (const char c : name) {
        out += std::isalnum(static_cast<unsigned char>(c)) ||
                       c == '_' || c == ':'
                   ? c
                   : '_';
    }
    return out;
}

std::string
prometheusLabels(const MetricLabels &labels, const std::string &extra)
{
    if (labels.empty() && extra.empty())
        return {};
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            out += ',';
        out += key + "=\"" + value + "\"";
        first = false;
    }
    if (!extra.empty()) {
        if (!first)
            out += ',';
        out += extra;
    }
    out += '}';
    return out;
}

void
writeHistogramPrometheus(std::ostream &os, const std::string &name,
                         const LatencyHistogram &histogram,
                         const MetricLabels &labels)
{
    const std::string metric = prometheusName(name);
    os << "# TYPE " << metric << " histogram\n";
    std::uint64_t cumulative = 0;
    for (unsigned i = 0; i < histogram.numBuckets(); ++i) {
        cumulative += histogram.buckets()[i];
        os << metric << "_bucket"
           << prometheusLabels(
                  labels,
                  "le=\"" +
                      prometheusNumber(histogram.bucketUpperBound(i)) +
                      "\"")
           << " " << cumulative << "\n";
    }
    os << metric << "_bucket" << prometheusLabels(labels, "le=\"+Inf\"")
       << " " << histogram.count() << "\n";
    os << metric << "_sum" << prometheusLabels(labels) << " "
       << prometheusNumber(histogram.sum()) << "\n";
    os << metric << "_count" << prometheusLabels(labels) << " "
       << histogram.count() << "\n";
}

ExportFormat
exportFormatForPath(const std::string &path)
{
    const auto dot = path.rfind('.');
    const std::string ext =
        dot == std::string::npos ? "" : path.substr(dot);
    if (ext == ".prom" || ext == ".txt")
        return ExportFormat::Prometheus;
    if (ext == ".csv")
        return ExportFormat::Csv;
    return ExportFormat::Jsonl;
}

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
MetricRegistry::exportPrometheus(std::ostream &os,
                                 const Labels &labels) const
{
    const std::string label_text = prometheusLabels(labels);

    // Final snapshot of every series as a gauge, after the cycle it
    // was sampled at.
    if (!rows_.empty()) {
        const std::vector<std::string> names = seriesNames();
        const Row &last = rows_.back();
        os << "# TYPE latte_sample_cycle gauge\n"
           << "latte_sample_cycle" << label_text << " " << last.cycle
           << "\n";
        for (std::size_t i = 0;
             i < names.size() && i < last.values.size(); ++i) {
            const std::string metric = prometheusName(names[i]);
            os << "# TYPE " << metric << " gauge\n";
            os << metric << label_text << " "
               << prometheusNumber(last.values[i]) << "\n";
        }
    }

    // Histograms in the cumulative le-bucket exposition format.
    for (const auto &[name, hist] : histograms_)
        writeHistogramPrometheus(os, name, hist, labels);
}

void
MetricRegistry::exportCsv(std::ostream &os, const Labels &labels) const
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
MetricRegistry::exportJsonl(std::ostream &os, const Labels &labels) const
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

void
MetricRegistry::exportAs(std::ostream &os, ExportFormat format,
                         const Labels &labels) const
{
    switch (format) {
      case ExportFormat::Jsonl: exportJsonl(os, labels); break;
      case ExportFormat::Csv: exportCsv(os, labels); break;
      case ExportFormat::Prometheus:
        exportPrometheus(os, labels);
        break;
    }
}

} // namespace latte::metrics
