/**
 * @file
 * Exposition: the one writer of Prometheus text (format 0.0.4).
 * Producers (run registries, the zone profiler, the live cell view,
 * the latted service) add samples and never format text. write()
 * emits each family once, its `# TYPE` line then all of its samples,
 * families in first-added order, so any number of producers make one
 * valid exposition as long as no two add a name under one label set.
 * Names are sanitized to [a-zA-Z0-9_:] and `latte_` prefixed; label
 * values are escaped.
 */

#ifndef LATTE_METRICS_EXPOSITION_HH
#define LATTE_METRICS_EXPOSITION_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "latency_histogram.hh"

namespace latte::metrics
{

/** Label set attached to exported samples, in emission order. */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/**
 * Shortest round-trippable decimal for @p v (same contract as the
 * runner's canonical JSON: re-parsing yields the identical double).
 */
std::string prometheusNumber(double v);

class Exposition
{
  public:
    void gauge(std::string_view name, const MetricLabels &labels,
               double value);
    void counter(std::string_view name, const MetricLabels &labels,
                 double value);

    /** Cumulative `_bucket`s (each bound, then +Inf), `_sum`, `_count`. */
    void histogram(std::string_view name, const MetricLabels &labels,
                   const LatencyHistogram &histogram);

    void write(std::ostream &os) const;

  private:
    enum class Type : std::uint8_t
    {
        Gauge,
        Counter,
        Histogram,
    };

    struct Sample
    {
        const char *suffix = ""; //!< or _bucket/_sum/_count (histogram)
        std::string labels;      //!< rendered `k="v",...`, no braces
        double value = 0;
    };

    struct Family
    {
        std::string name; //!< exposed name, latte_ prefixed
        Type type = Type::Gauge;
        std::vector<Sample> samples;
    };

    /** The family @p name, created on first use. A second type panics. */
    Family &family(std::string_view name, Type type);

    std::vector<Family> families_;
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace latte::metrics

#endif // LATTE_METRICS_EXPOSITION_HH
