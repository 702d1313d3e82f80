#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace latte
{

StatBase::StatBase(StatGroup *parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    latte_assert(parent != nullptr, "stat {} needs a parent group", name_);
    parent->addStat(this);
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->addChild(this);
}

StatGroup::~StatGroup()
{
    if (parent_)
        parent_->removeChild(this);
}

void
StatGroup::addStat(StatBase *stat)
{
    stats_.push_back(stat);
}

void
StatGroup::addChild(StatGroup *child)
{
    children_.push_back(child);
}

void
StatGroup::removeChild(StatGroup *child)
{
    children_.erase(std::remove(children_.begin(), children_.end(), child),
                    children_.end());
}

void
StatGroup::visit(StatVisitor &visitor, const std::string &prefix) const
{
    const std::string path =
        prefix.empty() ? name_ : prefix + "." + name_;
    visitor.beginGroup(*this, path);
    for (const auto *stat : stats_)
        visitor.visitStat(*stat, path);
    for (const auto *child : children_)
        child->visit(visitor, path);
    visitor.endGroup(*this, path);
}

namespace
{

/** visit() adapter behind StatGroup::collect(). */
class CollectVisitor : public StatVisitor
{
  public:
    explicit CollectVisitor(std::map<std::string, double> &out)
        : out_(out)
    {}

    void beginGroup(const StatGroup &, const std::string &) override {}
    void endGroup(const StatGroup &, const std::string &) override {}

    void
    visitStat(const StatBase &stat, const std::string &path) override
    {
        out_[path + "." + stat.name()] = stat.value();
    }

  private:
    std::map<std::string, double> &out_;
};

} // namespace

void
StatGroup::collect(std::map<std::string, double> &out,
                   const std::string &prefix) const
{
    CollectVisitor visitor(out);
    visit(visitor, prefix);
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0;
    std::size_t n = 0;
    for (const double v : values) {
        if (v <= 0.0) {
            latte_warn("geomean: skipping non-positive value {}", v);
            continue;
        }
        log_sum += std::log(v);
        ++n;
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

} // namespace latte
