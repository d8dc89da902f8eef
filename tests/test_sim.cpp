/**
 * @file
 * Unit tests for the simulation core: stats, deterministic RNG, and
 * time conversions.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd {
namespace {

TEST(Stats, CounterAccumulates)
{
    Counter c;
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, DistributionTracksMoments)
{
    Distribution d;
    d.sample(2.0);
    d.sample(4.0);
    d.sample(9.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

TEST(Stats, RegistryDumpsByName)
{
    Counter c;
    c.inc(7);
    StatsRegistry reg;
    reg.addCounter("flash.reads", &c);
    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("flash.reads 7"), std::string::npos);
    EXPECT_EQ(reg.counterValue("flash.reads"), 7u);
    EXPECT_EQ(reg.counterValue("missing"), 0u);
}

TEST(Stats, ScopedViewPrefixesEveryRegistration)
{
    Counter hits;
    Counter misses;
    hits.inc(3);
    misses.inc(1);
    StatsRegistry reg;
    const ScopedStats scope = reg.scoped("cache");
    scope.addCounter("hits", &hits);
    scope.addRatio("hitRatio", &hits, &misses);
    scope.addGauge("ways", [] { return 8ull; });
    EXPECT_EQ(reg.counterValue("cache.hits"), 3u);
    EXPECT_DOUBLE_EQ(reg.ratioValue("cache.hitRatio"), 0.75);
    EXPECT_EQ(reg.gaugeValue("cache.ways"), 8u);
}

TEST(Stats, ScopedViewsNest)
{
    Counter c;
    c.inc(5);
    StatsRegistry reg;
    reg.scoped("fleet").scoped("tenant.a").addCounter("submitted", &c);
    EXPECT_EQ(reg.counterValue("fleet.tenant.a.submitted"), 5u);
    // An empty prefix is the identity view.
    Counter d;
    d.inc(2);
    reg.scoped("").addCounter("bare", &d);
    EXPECT_EQ(reg.counterValue("bare"), 2u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(37), 37u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, HashToUnitFloatRange)
{
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const float v = hashToUnitFloat(splitmix64(i));
        EXPECT_GE(v, -1.0f);
        EXPECT_LT(v, 1.0f);
    }
}

TEST(Time, CycleNanosConversionsMatchFpgaClock)
{
    // 200 MHz -> 5 ns per cycle (Section V).
    EXPECT_EQ(kNanosPerCycle, 5u);
    EXPECT_EQ(cyclesToNanos(Cycle{4000}), Nanos{20000}); // Tpage
    EXPECT_EQ(nanosToCycles(Nanos{20000}), Cycle{4000});
    EXPECT_EQ(nanosToCycles(Nanos{20001}), Cycle{4001}); // rounds up
    EXPECT_DOUBLE_EQ(nanosToSeconds(Nanos{1'000'000'000ull}), 1.0);
}

} // namespace
} // namespace rmssd
