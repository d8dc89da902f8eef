#include "sim/stats.h"

#include <algorithm>

namespace rmssd {

void
Distribution::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

void
StatsRegistry::addCounter(const std::string &name, const Counter *c)
{
    counters_[name] = c;
}

void
StatsRegistry::addDistribution(const std::string &name,
                               const Distribution *d)
{
    distributions_[name] = d;
}

void
StatsRegistry::addRatio(const std::string &name, const Counter *part,
                        const Counter *rest)
{
    ratios_[name] = Ratio{part, rest};
}

void
StatsRegistry::addGauge(const std::string &name,
                        std::function<std::uint64_t()> value)
{
    gauges_[name] = std::move(value);
}

double
StatsRegistry::Ratio::value() const
{
    const std::uint64_t total = part->value() + rest->value();
    return total ? static_cast<double>(part->value()) /
                       static_cast<double>(total)
                 : 0.0;
}

void
StatsRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, c] : counters_)
        os << name << " " << c->value() << "\n";
    for (const auto &[name, g] : gauges_)
        os << name << " " << g() << "\n";
    for (const auto &[name, r] : ratios_)
        os << name << " " << r.value() << "\n";
    for (const auto &[name, d] : distributions_) {
        os << name << ".count " << d->count() << "\n";
        os << name << ".mean " << d->mean() << "\n";
        os << name << ".min " << d->min() << "\n";
        os << name << ".max " << d->max() << "\n";
    }
}

std::uint64_t
StatsRegistry::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
}

std::uint64_t
StatsRegistry::gaugeValue(const std::string &name) const
{
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second();
}

} // namespace rmssd
