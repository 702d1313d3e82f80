/**
 * @file
 * A small statistics framework modelled on gem5's stats package: named
 * counters and averages that register with a StatGroup tree, read
 * through visitors (metric sampling, collect()'s flat map).
 */

#ifndef LATTE_COMMON_STATS_HH
#define LATTE_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "logging.hh"

namespace latte
{

class StatGroup;

/** Base class for all statistics. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Current scalar view of the stat. */
    virtual double value() const = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** Monotonic counter. */
class Counter : public StatBase
{
  public:
    using StatBase::StatBase;

    Counter &operator++() { ++count_; return *this; }
    Counter &operator+=(std::uint64_t n) { count_ += n; return *this; }

    std::uint64_t count() const { return count_; }
    double value() const override { return static_cast<double>(count_); }

  private:
    std::uint64_t count_ = 0;
};

/** Running average of submitted samples. */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    void
    sample(double v)
    {
        sum_ += v;
        ++samples_;
    }

    std::uint64_t samples() const { return samples_; }
    double sum() const { return sum_; }

    double
    value() const override
    {
        return samples_ ? sum_ / static_cast<double>(samples_) : 0.0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t samples_ = 0;
};

/**
 * Structured walk over a StatGroup tree. All consumers of the stat
 * hierarchy (metric sampling, flat map) are visitors, so the traversal
 * logic lives in exactly one place (StatGroup::visit()).
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    /** Entering @p group; @p path is its dotted path from the root. */
    virtual void beginGroup(const StatGroup &group,
                            const std::string &path) = 0;

    /** One stat of the group entered last; @p path is the group path. */
    virtual void visitStat(const StatBase &stat,
                           const std::string &path) = 0;

    /** Leaving @p group. */
    virtual void endGroup(const StatGroup &group,
                          const std::string &path) = 0;
};

/**
 * A named collection of statistics with optional child groups, mirroring
 * the gem5 Stats::Group hierarchy.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a stat; called by StatBase's constructor. */
    void addStat(StatBase *stat);

    /** Register/unregister a child group. */
    void addChild(StatGroup *child);
    void removeChild(StatGroup *child);

    /**
     * Walk this group and its descendants depth-first, calling
     * @p visitor's hooks with dotted paths rooted at @p prefix.
     */
    void visit(StatVisitor &visitor,
               const std::string &prefix = "") const;

    /** Flatten all stats into a name -> value map (visit() based). */
    void collect(std::map<std::string, double> &out,
                 const std::string &prefix = "") const;

  private:
    std::string name_;
    StatGroup *parent_;
    std::vector<StatBase *> stats_;
    std::vector<StatGroup *> children_;
};

/**
 * Geometric mean of a vector of ratios. Non-positive entries have no
 * geometric mean; they are skipped with a warning (std::log would
 * silently produce -inf/NaN). Returns 0 if no positive entry remains.
 */
double geomean(const std::vector<double> &values);

} // namespace latte

#endif // LATTE_COMMON_STATS_HH
