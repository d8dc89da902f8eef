/**
 * @file
 * Unit tests for the simulation core: stats, deterministic RNG, the
 * flat hash map, and time conversions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/flat_map.h"
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
    EXPECT_EQ(reg.gaugeValue("cache.ways"), 8u);
    std::ostringstream dump;
    reg.dump(dump);
    EXPECT_NE(dump.str().find("cache.hitRatio 0.75\n"), std::string::npos)
        << dump.str();
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

TEST(FlatMap, MatchesMapReferenceModel)
{
    // Random inserts, updates, erases and clears against a std::map
    // model. The key space is small next to the live set, so probe
    // runs are long and overlap; an erase that broke a run (no
    // backward shift) would hide a later key of that run from find().
    constexpr std::uint64_t kKeySpace = 600;
    FlatMap<std::uint64_t> map;
    std::map<std::uint64_t, std::uint64_t> model;
    Rng rng(0xf1a7ULL);

    const auto keyOf = [](std::uint64_t id) {
        // Sparse, clustered ids like physical page numbers.
        return (id / 8) * 0x10000ULL + id % 8;
    };
    const auto checkAll = [&](int step) {
        for (std::uint64_t id = 0; id < kKeySpace; ++id) {
            const std::uint64_t *got = map.find(keyOf(id));
            const auto it = model.find(keyOf(id));
            ASSERT_EQ(got != nullptr, it != model.end())
                << "step " << step << " id " << id;
            if (got != nullptr) {
                ASSERT_EQ(*got, it->second) << "step " << step;
            }
        }
        std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
        map.forEachUnordered([&](std::uint64_t key, std::uint64_t value) {
            seen.emplace_back(key, value);
        });
        std::sort(seen.begin(), seen.end());
        const std::vector<std::pair<std::uint64_t, std::uint64_t>> want(
            model.begin(), model.end());
        ASSERT_EQ(seen, want) << "step " << step;
    };

    for (int step = 0; step < 40000; ++step) {
        // Inserts outpace erases early, then the live set churns.
        const std::uint64_t key = keyOf(rng.nextBounded(kKeySpace));
        const std::uint64_t op = rng.nextBounded(step < 4000 ? 4 : 2);
        if (op == 0) {
            const bool present = model.contains(key);
            ASSERT_EQ(map.erase(key), present) << "step " << step;
            model.erase(key);
        } else {
            bool created = false;
            std::uint64_t &value = map.findOrInsert(key, created);
            ASSERT_EQ(created, !model.contains(key)) << "step " << step;
            if (created) {
                ASSERT_EQ(value, 0u);
            }
            value = rng.next();
            model[key] = value;
        }
        ASSERT_EQ(map.size(), model.size()) << "step " << step;
        if (step % 97 == 0)
            checkAll(step);
        if (step == 30000) {
            map.clear();
            model.clear();
            checkAll(step);
        }
    }
    checkAll(-1);
}

TEST(FlatMap, EmptyMapFindsAndErasesNothing)
{
    FlatMap<int> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(3), nullptr);
    EXPECT_FALSE(map.erase(3));
    ++map[3];
    ++map[3];
    ASSERT_NE(map.find(3), nullptr);
    EXPECT_EQ(*map.find(3), 2);
    EXPECT_TRUE(map.erase(3));
    EXPECT_EQ(map.size(), 0u);
    EXPECT_DEATH(map[FlatMap<int>::kEmptyKey], "empty mark");
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
