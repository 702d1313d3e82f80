#include "exposition.hh"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace latte::metrics
{

namespace
{

/** `k="v",...`, escaping backslash, double quote and newline. */
std::string
renderLabels(const MetricLabels &labels)
{
    std::string out;
    for (const auto &[key, value] : labels) {
        out += (out.empty() ? "" : ",") + key + "=\"";
        for (const char c : value) {
            if (c == '\\' || c == '"')
                out += '\\';
            if (c == '\n')
                out += "\\n";
            else
                out += c;
        }
        out += '"';
    }
    return out;
}

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

Exposition::Family &
Exposition::family(std::string_view name, Type type)
{
    std::string exposed = "latte_";
    for (const char c : name) {
        exposed += std::isalnum(static_cast<unsigned char>(c)) ||
                           c == '_' || c == ':'
                       ? c
                       : '_';
    }
    const auto [it, added] =
        index_.try_emplace(exposed, families_.size());
    if (added)
        families_.push_back({std::move(exposed), type, {}});
    Family &found = families_[it->second];
    latte_assert(found.type == type,
                 "metric family {} added under a second type",
                 found.name);
    return found;
}

void
Exposition::gauge(std::string_view name, const MetricLabels &labels,
                  double value)
{
    family(name, Type::Gauge).samples.push_back(
        {"", renderLabels(labels), value});
}

void
Exposition::counter(std::string_view name, const MetricLabels &labels,
                    double value)
{
    family(name, Type::Counter).samples.push_back(
        {"", renderLabels(labels), value});
}

void
Exposition::histogram(std::string_view name, const MetricLabels &labels,
                      const LatencyHistogram &histogram)
{
    std::vector<Sample> &samples =
        family(name, Type::Histogram).samples;
    const std::string text = renderLabels(labels);
    const std::string le = text + (text.empty() ? "" : ",") + "le=\"";
    double cumulative = 0;
    for (unsigned i = 0; i < histogram.numBuckets(); ++i) {
        cumulative += static_cast<double>(histogram.buckets()[i]);
        samples.push_back(
            {"_bucket",
             le + prometheusNumber(histogram.bucketUpperBound(i)) + "\"",
             cumulative});
    }
    const auto count = static_cast<double>(histogram.count());
    samples.push_back({"_bucket", le + "+Inf\"", count});
    samples.push_back({"_sum", text, histogram.sum()});
    samples.push_back({"_count", text, count});
}

void
Exposition::write(std::ostream &os) const
{
    static constexpr const char *kTypeNames[] = {"gauge", "counter",
                                                 "histogram"};
    for (const Family &f : families_) {
        os << "# TYPE " << f.name << " "
           << kTypeNames[static_cast<std::size_t>(f.type)] << "\n";
        for (const Sample &s : f.samples) {
            os << f.name << s.suffix;
            if (!s.labels.empty())
                os << "{" << s.labels << "}";
            os << " " << prometheusNumber(s.value) << "\n";
        }
    }
}

} // namespace latte::metrics
