/**
 * @file
 * Lightweight statistics package (counters, scalars, histograms).
 *
 * Components own Counter/Scalar/Histogram members and register them
 * with a StatsRegistry so drivers and benches can dump everything by
 * name. Inspired by gem5's stats package but intentionally minimal.
 */

#ifndef RMSSD_SIM_STATS_H
#define RMSSD_SIM_STATS_H

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace rmssd {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean/min/max over a stream of samples. */
class Distribution
{
  public:
    void sample(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Named stats registry; values are registered by pointer.
 *
 * Determinism audit: every table below is a std::map keyed by the
 * stat NAME (never by pointer), so dump() exports in lexicographic
 * name order — stable across runs, builds, and address-space layouts.
 * Keep it that way: switching to unordered_map (or keying by the
 * registered pointer) would make export order an ASLR artifact.
 */
class ScopedStats;

class StatsRegistry
{
  public:
    void addCounter(const std::string &name, const Counter *c);
    void addDistribution(const std::string &name, const Distribution *d);

    /**
     * Register a derived fraction part/(part+rest) — e.g. a cache hit
     * ratio from its hit and miss counters. Evaluated lazily at
     * dump/query time, so it always reflects the live counters.
     */
    void addRatio(const std::string &name, const Counter *part,
                  const Counter *rest);

    /**
     * Register a lazily-evaluated scalar — for quantities a component
     * tracks in its own representation (e.g. a die's busy Cycle count)
     * rather than in a Counter. Evaluated at dump/query time.
     */
    void addGauge(const std::string &name,
                  std::function<std::uint64_t()> value);

    /**
     * Namespaced view of this registry: every registration through the
     * returned ScopedStats prepends "prefix." to the stat name. Nested
     * namespaces (cluster.devN.*, host.tier.*, tenant.<id>.*) chain
     * views instead of hand-concatenating prefix strings.
     */
    ScopedStats scoped(const std::string &prefix);

    /** Dump all registered stats as "name value" lines. */
    void dump(std::ostream &os) const;

    /**
     * Look up a registered counter's value; 0 if absent.
     * reachability: test-observer — read by
     * DeviceStats.RegistryCollectsCounters,
     * TenantFleet.StatsExportUnderTenantNamespaces and the other tests
     * that check one stat by its exported name.
     */
    std::uint64_t counterValue(const std::string &name) const;

    /**
     * Current value of a registered gauge; 0 if absent.
     * reachability: test-observer — read by
     * Stats.PerChannelBusyCyclesAndDieConflictsExported and the
     * host-tier residency and fleet latency tests, by gauge name.
     */
    std::uint64_t gaugeValue(const std::string &name) const;

  private:
    struct Ratio
    {
        const Counter *part = nullptr;
        const Counter *rest = nullptr;
        double value() const;
    };

    std::map<std::string, const Counter *> counters_;
    std::map<std::string, const Distribution *> distributions_;
    std::map<std::string, Ratio> ratios_;
    std::map<std::string, std::function<std::uint64_t()>> gauges_;
};

/**
 * Prefix-applying view over a StatsRegistry. A lightweight value type:
 * copies are cheap, and the view borrows the registry (which must
 * outlive it — the same lifetime rule as the registered pointers).
 */
class ScopedStats
{
  public:
    ScopedStats(StatsRegistry &registry, std::string prefix)
        : registry_(&registry), prefix_(std::move(prefix))
    {
    }

    void addCounter(const std::string &name, const Counter *c) const
    {
        registry_->addCounter(qualify(name), c);
    }
    void addDistribution(const std::string &name, const Distribution *d) const
    {
        registry_->addDistribution(qualify(name), d);
    }
    void addRatio(const std::string &name, const Counter *part,
                  const Counter *rest) const
    {
        registry_->addRatio(qualify(name), part, rest);
    }
    void addGauge(const std::string &name,
                  std::function<std::uint64_t()> value) const
    {
        registry_->addGauge(qualify(name), std::move(value));
    }

    /** Nested namespace: scoped("a").scoped("b") registers "a.b.*". */
    ScopedStats scoped(const std::string &sub) const
    {
        return ScopedStats(*registry_, qualify(sub));
    }

    const std::string &prefix() const { return prefix_; }
    StatsRegistry &registry() const { return *registry_; }

  private:
    std::string qualify(const std::string &name) const
    {
        return prefix_.empty() ? name : prefix_ + "." + name;
    }

    StatsRegistry *registry_;
    std::string prefix_;
};

inline ScopedStats StatsRegistry::scoped(const std::string &prefix)
{
    return ScopedStats(*this, prefix);
}

} // namespace rmssd

#endif // RMSSD_SIM_STATS_H
