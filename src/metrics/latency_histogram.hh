/**
 * @file
 * Log-bucketed latency histogram for the metrics layer. It is
 * free-standing, not a StatBase in the StatGroup tree — the
 * MetricRegistry owns a map of them by name — and covers the whole
 * dynamic range of memory latencies (1 cycle to millions) with
 * power-of-two buckets, so p50/p90/p99 queries stay meaningful without
 * tuning a bucket width per metric.
 *
 * Bucket semantics (pinned by tests/test_metrics.cc):
 *   bucket 0          covers [0, 1)  (negatives are clamped to 0)
 *   bucket i (i >= 1) covers [2^(i-1), 2^i)  — an exact power of two
 *                     lands in the bucket it LOWER-bounds
 *   values >= 2^(n_buckets-1) land in the explicit overflow counter
 */

#ifndef LATTE_METRICS_LATENCY_HISTOGRAM_HH
#define LATTE_METRICS_LATENCY_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace latte::metrics
{

class LatencyHistogram
{
  public:
    /** Bucket 33 covers [2^32, 2^33): ample for cycle latencies. */
    static constexpr unsigned kDefaultBuckets = 34;

    explicit LatencyHistogram(unsigned n_buckets = kDefaultBuckets);

    /** Record one sample; negatives count as 0. */
    void record(double v);

    std::uint64_t count() const { return count_; }
    std::uint64_t overflow() const { return overflow_; }
    double sum() const { return sum_; }
    double min() const { return min_; }
    double max() const { return max_; }
    double mean() const;

    /** Number of regular buckets (the overflow counter is separate). */
    unsigned numBuckets() const
    {
        return static_cast<unsigned>(buckets_.size());
    }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /**
     * Bucket a value falls in; numBuckets() means the overflow counter.
     */
    unsigned bucketIndexFor(double v) const;

    /** [lower, upper) bounds of bucket @p i (i < numBuckets()). */
    double bucketLowerBound(unsigned i) const;
    double bucketUpperBound(unsigned i) const;

    /**
     * Percentile query, @p p in [0, 100]. Linear interpolation inside
     * the containing bucket, clamped to [min(), max()] so a
     * single-sample histogram returns exactly that sample and queries
     * never extrapolate past observed values. Empty histogram: 0.
     */
    double percentile(double p) const;

    /**
     * Fold @p other into this histogram (bucket-wise add). Both sides
     * must have the same bucket count.
     */
    void merge(const LatencyHistogram &other);

    void reset();

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace latte::metrics

#endif // LATTE_METRICS_LATENCY_HISTOGRAM_HH
