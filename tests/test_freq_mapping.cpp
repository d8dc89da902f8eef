/**
 * @file
 * Tests for frequency-aware flash data mapping: FrequencyMapping
 * bijectivity and hot-tier striping, offline placement planning,
 * byte-identical inference versus the linear layout, background
 * migration preserving table contents mid-serving, the sticky
 * cluster re-sharding twin, and the per-channel/per-die stats
 * export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/sharding.h"
#include "engine/placement.h"
#include "engine/rm_ssd.h"
#include "ftl/freq_mapping.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "workload/serving.h"
#include "workload/trace_gen.h"

namespace rmssd::engine {
namespace {

/** A float's bit pattern: device outputs equal the reference bit for bit. */
std::uint32_t
bits(float value)
{
    return std::bit_cast<std::uint32_t>(value);
}

model::ModelConfig
tinyConfig()
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(512);
    cfg.lookupsPerTable = 8;
    return cfg;
}

workload::TraceConfig
skewedTrace(std::uint64_t seed = 0x5eedULL)
{
    workload::TraceConfig tc;
    tc.hotRowsPerTable = 64;
    tc.hotAccessFraction = 0.8;
    tc.hotSkew = 2.0;
    tc.seed = seed;
    return tc;
}

RmSsdOptions
placementOptions()
{
    RmSsdOptions opt;
    opt.functional = true;
    opt.placement.enabled = true;
    opt.placement.hotPageCount = 256;
    return opt;
}

TEST(FrequencyMapping, IdentityBeforeAnyPlan)
{
    ftl::FrequencyMapping mapping(1024);
    for (std::uint64_t p : {0ull, 1ull, 17ull, 1023ull}) {
        EXPECT_EQ(mapping.translate(PageId{p}), PageId{p});
        EXPECT_EQ(mapping.inverse(PageId{p}), PageId{p});
        EXPECT_EQ(mapping.assignForWrite(PageId{p}), PageId{p});
    }
    EXPECT_EQ(mapping.remappedEntries(), 0u);
}

TEST(FrequencyMapping, CommittedPlanStaysBijective)
{
    ftl::FrequencyMapping mapping(4096);
    std::vector<PageId> hot;
    for (std::uint64_t i = 0; i < 32; ++i)
        hot.push_back(PageId{1000 + 37 * i});

    for (const auto &swap : mapping.planHotSet(hot))
        mapping.commitSwap(swap);

    // Forward/inverse round-trip over hot, displaced and untouched
    // pages; no two logical pages may share a physical page.
    std::unordered_set<std::uint64_t> seen;
    for (std::uint64_t p = 0; p < 4096; ++p) {
        const PageId ppn = mapping.translate(PageId{p});
        EXPECT_EQ(mapping.inverse(ppn), PageId{p});
        EXPECT_EQ(mapping.assignForWrite(PageId{p}), ppn);
        EXPECT_TRUE(seen.insert(ppn.raw()).second);
    }
}

TEST(FrequencyMapping, HotTierCoversEveryChannelDiePair)
{
    const flash::Geometry g = flash::tableIIGeometry();
    const std::uint32_t pairs = g.numChannels * g.diesPerChannel;
    ftl::FrequencyMapping mapping(g.totalPages());

    std::vector<PageId> hot;
    for (std::uint64_t i = 0; i < pairs; ++i)
        hot.push_back(PageId{50000 + 1013 * i});
    for (const auto &swap : mapping.planHotSet(hot))
        mapping.commitSwap(swap);

    // The i-th hottest page lands on physical page i, and pages
    // 0..C*D-1 visit each (channel, die) pair exactly once by
    // Geometry::decompose construction — perfect striping.
    std::set<std::pair<std::uint32_t, std::uint32_t>> visited;
    for (const PageId lpn : hot) {
        const flash::Pba pba = g.decompose(mapping.translate(lpn));
        visited.insert({pba.channel, pba.die});
    }
    EXPECT_EQ(visited.size(), pairs);
}

TEST(FrequencyMapping, ReplanOverStableHotSetPlansNoSwaps)
{
    ftl::FrequencyMapping mapping(4096);
    std::vector<PageId> hot;
    for (std::uint64_t i = 0; i < 16; ++i)
        hot.push_back(PageId{2000 + 3 * i});
    for (const auto &swap : mapping.planHotSet(hot))
        mapping.commitSwap(swap);

    // Membership, not rank order, is what balances dies: the same hot
    // set in any order must already be fully placed.
    std::reverse(hot.begin(), hot.end());
    EXPECT_TRUE(mapping.planHotSet(hot).empty());
}

TEST(FrequencyMapping, MigrationPlanRanksByReadFrequency)
{
    ftl::FrequencyMapping::Options opt;
    opt.candidateEstimate = 1;
    ftl::FrequencyMapping mapping(4096, opt);

    for (int i = 0; i < 10; ++i)
        mapping.readPage(PageId{7});
    for (int i = 0; i < 5; ++i)
        mapping.readPage(PageId{11});
    for (int i = 0; i < 2; ++i)
        mapping.readPage(PageId{13});

    // The two hottest pages are the hot set; both live outside the
    // two-slot tier, so both move, hottest into slot 0.
    EXPECT_EQ(mapping.observedReads(), 17u);
    const auto plan = mapping.planMigration(2, 0.0, UINT64_MAX);
    EXPECT_EQ(plan.observed, 2u);
    EXPECT_EQ(plan.missing, 2u);
    ASSERT_EQ(plan.swaps.size(), 2u);
    EXPECT_EQ(plan.swaps[0].hotLpn, PageId{7});
    EXPECT_EQ(plan.swaps[0].toPpn, PageId{0});
    EXPECT_EQ(plan.swaps[1].hotLpn, PageId{11});
    EXPECT_EQ(plan.swaps[1].toPpn, PageId{1});

    mapping.resetObservation();
    EXPECT_EQ(mapping.observedReads(), 0u);
    const auto empty = mapping.planMigration(2, 0.0, UINT64_MAX);
    EXPECT_EQ(empty.observed, 0u);
    EXPECT_TRUE(empty.swaps.empty());
}

TEST(FrequencyMapping, DriftCountsAgainstHotPageCountButPlansAgainstObservedTier)
{
    // The drift-vs-tier quirk of DESIGN.md §12.2, pinned as it stands:
    // a pass counts a page as missing when its PPN is >= hotPageCount,
    // but plans over a tier the size of the observed hot set. With two
    // hot pages and hotPageCount 8, page 5 (at PPN 5, inside [2, 8))
    // is not missing, yet it is swapped into slot 0. ROADMAP.md item 7
    // makes the two agree; that change updates this test on purpose.
    ftl::FrequencyMapping::Options opt;
    opt.candidateEstimate = 1;
    ftl::FrequencyMapping mapping(64, opt);
    for (int i = 0; i < 3; ++i)
        mapping.readPage(PageId{5});
    for (int i = 0; i < 2; ++i)
        mapping.readPage(PageId{40});

    const auto plan = mapping.planMigration(8, 0.0, UINT64_MAX);
    EXPECT_EQ(plan.observed, 2u);
    EXPECT_EQ(plan.missing, 1u); // page 40 only
    ASSERT_EQ(plan.swaps.size(), 2u);
    EXPECT_EQ(plan.swaps[0].hotLpn, PageId{5});
    EXPECT_EQ(plan.swaps[0].fromPpn, PageId{5});
    EXPECT_EQ(plan.swaps[0].toPpn, PageId{0});
    EXPECT_EQ(plan.swaps[1].hotLpn, PageId{40});
    EXPECT_EQ(plan.swaps[1].toPpn, PageId{1});
}

/**
 * FrequencySketch as it was before record() returned its estimate:
 * record and estimate are separate passes that each hash all four
 * rows, and nibbles are read and written through a branch on the
 * slot's parity. The reference model for the fused record.
 */
class TwoPassSketch
{
  public:
    TwoPassSketch(std::uint64_t counters, std::uint64_t sampleSize)
        : sampleSize_(std::max<std::uint64_t>(1, sampleSize))
    {
        const std::uint64_t width =
            std::bit_ceil(std::max<std::uint64_t>(64, counters));
        mask_ = width - 1;
        table_.assign(width / 2, 0);
    }

    /** @return whether this record halved every counter */
    bool
    record(std::uint64_t key)
    {
        std::uint32_t minCount = FrequencySketch::kMaxCount;
        std::uint64_t slots[FrequencySketch::kDepth];
        for (std::uint32_t row = 0; row < FrequencySketch::kDepth; ++row) {
            slots[row] = slotOf(key, row);
            minCount = std::min(minCount, counterAt(slots[row]));
        }
        if (minCount < FrequencySketch::kMaxCount) {
            for (const std::uint64_t slot : slots) {
                if (counterAt(slot) == minCount)
                    setCounterAt(slot, minCount + 1);
            }
        }
        if (++additions_ < sampleSize_)
            return false;
        for (std::uint8_t &byte : table_)
            byte = static_cast<std::uint8_t>((byte >> 1) & 0x77);
        additions_ /= 2;
        ++halvings;
        return true;
    }

    std::uint32_t
    estimate(std::uint64_t key) const
    {
        std::uint32_t minCount = FrequencySketch::kMaxCount;
        for (std::uint32_t row = 0; row < FrequencySketch::kDepth; ++row)
            minCount = std::min(minCount, counterAt(slotOf(key, row)));
        return minCount;
    }

    void
    clear()
    {
        std::fill(table_.begin(), table_.end(), std::uint8_t{0});
        additions_ = 0;
    }

    std::uint64_t halvings = 0; //!< halvings so far, clear() included

  private:
    std::uint64_t
    slotOf(std::uint64_t key, std::uint32_t row) const
    {
        std::uint64_t x = key + 0x9e3779b97f4a7c15ULL * (row + 1);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return (x ^ (x >> 31)) & mask_;
    }

    std::uint32_t
    counterAt(std::uint64_t slot) const
    {
        const std::uint8_t byte = table_[slot >> 1];
        return (slot & 1) ? (byte >> 4) : (byte & 0x0f);
    }

    void
    setCounterAt(std::uint64_t slot, std::uint32_t v)
    {
        std::uint8_t &byte = table_[slot >> 1];
        if (slot & 1)
            byte = static_cast<std::uint8_t>((byte & 0x0f) | (v << 4));
        else
            byte = static_cast<std::uint8_t>((byte & 0xf0) | v);
    }

    std::vector<std::uint8_t> table_;
    std::uint64_t mask_;
    std::uint64_t sampleSize_;
    std::uint64_t additions_ = 0;
};

TEST(FrequencySketchDifferential, FusedRecordMatchesTwoPassReference)
{
    // 256 counters and a halving every 97 records: a few hot keys
    // saturate at 15 between halvings, and the cold tail collides
    // often enough that rows share slots.
    FrequencySketch sketch(256, 97);
    TwoPassSketch reference(256, 97);
    Rng rng(0x5ce7cULL);

    std::vector<std::uint64_t> probes;
    for (std::uint64_t k = 0; k < 64; ++k)
        probes.push_back(splitmix64(k));
    bool sawSaturated = false, sawHalvedRecord = false;
    bool sawHalvedFromPeak = false;
    for (int step = 0; step < 40000; ++step) {
        const std::uint64_t key = rng.nextBounded(4) != 0
                                      ? probes[rng.nextBounded(3)]
                                      : probes[rng.nextBounded(64)] ^
                                            rng.nextBounded(1u << 20);
        // Both record overloads, the hash-taking one with the row-0
        // hash a FlatMap would share.
        const std::uint32_t fused = step % 2 == 0
                                        ? sketch.record(key)
                                        : sketch.record(key,
                                                        splitmix64(key));
        const bool halved = reference.record(key);
        ASSERT_EQ(fused, reference.estimate(key)) << "step " << step;
        ASSERT_EQ(sketch.estimate(key, splitmix64(key)), fused)
            << "step " << step;
        sawSaturated |= fused == FrequencySketch::kMaxCount;
        if (halved) {
            sawHalvedRecord = true;
            sawHalvedFromPeak |= fused == FrequencySketch::kMaxCount / 2;
        }
        if (step % 101 == 0) {
            for (const std::uint64_t probe : probes)
                ASSERT_EQ(sketch.estimate(probe),
                          reference.estimate(probe))
                    << "step " << step;
        }
        if (step == 30000) {
            sketch.clear();
            reference.clear();
        }
    }
    EXPECT_TRUE(sawSaturated);
    EXPECT_TRUE(sawHalvedRecord);
    EXPECT_TRUE(sawHalvedFromPeak);
    EXPECT_GT(reference.halvings, 100u);
}

/**
 * The node-based FrequencyMapping the flat tables replaced, kept as a
 * reference model: std::unordered_map overlays and counters, an
 * unordered_set dedup in planHotSet, a full sort in observedHot, the
 * migration pass as rank-then-drift-then-plan, and the two-pass
 * sketch behind a noteRead() that the caller follows with
 * translate(), as the FTL's read path did before readPage().
 */
class ReferenceMapping
{
  public:
    using Swap = ftl::FrequencyMapping::Swap;

    ReferenceMapping(std::uint64_t totalPages,
                     const ftl::FrequencyMapping::Options &options)
        : totalPages_(totalPages), options_(options),
          sketch_(options.sketchCounters, options.sketchSampleSize)
    {
    }

    PageId
    translate(PageId lpn) const
    {
        const auto it = l2p_.find(lpn);
        return it == l2p_.end() ? lpn : it->second;
    }

    PageId
    inverse(PageId ppn) const
    {
        const auto it = p2l_.find(ppn);
        return it == p2l_.end() ? ppn : it->second;
    }

    void
    noteRead(PageId lpn)
    {
        ++observedReads_;
        sketch_.record(lpn.raw());
        if (sketch_.estimate(lpn.raw()) >= options_.candidateEstimate)
            ++candidates_[lpn];
    }

    std::vector<Swap>
    planHotSet(std::span<const PageId> hotLpnsByHeat) const
    {
        std::vector<PageId> hot;
        std::unordered_set<PageId> seen;
        for (const PageId lpn : hotLpnsByHeat) {
            if (seen.insert(lpn).second)
                hot.push_back(lpn);
        }
        const std::uint64_t tier =
            std::min<std::uint64_t>(hot.size(), totalPages_);
        hot.resize(tier);
        std::vector<bool> slotTaken(tier, false);
        for (const PageId lpn : hot) {
            if (translate(lpn).raw() < tier)
                slotTaken[translate(lpn).raw()] = true;
        }
        std::vector<Swap> swaps;
        std::uint64_t slot = 0;
        for (const PageId lpn : hot) {
            const PageId from = translate(lpn);
            if (from.raw() < tier)
                continue;
            while (slot < tier && slotTaken[slot])
                ++slot;
            const PageId target{slot};
            slotTaken[slot] = true;
            swaps.push_back(Swap{lpn, from, target, inverse(target)});
        }
        return swaps;
    }

    void
    commitSwap(const Swap &swap)
    {
        setMapping(swap.hotLpn, swap.toPpn);
        setMapping(swap.displacedLpn, swap.fromPpn);
    }

    /** Every candidate, hottest first (count desc, LPN asc). */
    std::vector<std::pair<std::uint64_t, PageId>>
    ranked() const
    {
        std::vector<std::pair<std::uint64_t, PageId>> byCount;
        for (const auto &[lpn, count] : candidates_)
            byCount.emplace_back(count, lpn);
        std::sort(byCount.begin(), byCount.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first > b.first;
                      return a.second < b.second;
                  });
        return byCount;
    }

    std::vector<PageId>
    observedHot(std::size_t k) const
    {
        std::vector<PageId> hot;
        for (const auto &[count, lpn] : ranked()) {
            if (hot.size() == k)
                break;
            hot.push_back(lpn);
        }
        return hot;
    }

    /**
     * The migration pass as RmSsd::migrateIfDrifted ran it before the
     * one-walk planner: the k hottest candidates by a full sort, a
     * drift count against k, then planHotSet over them in heat order,
     * cut to its first @p maxSwaps swaps.
     */
    ftl::FrequencyMapping::MigrationPlan
    planMigration(std::uint64_t k, double driftThreshold,
                  std::uint64_t maxSwaps) const
    {
        ftl::FrequencyMapping::MigrationPlan plan;
        const std::vector<PageId> hot = observedHot(k);
        plan.observed = hot.size();
        for (const PageId lpn : hot) {
            if (translate(lpn).raw() >= k)
                ++plan.missing;
        }
        if (plan.missing == 0 ||
            static_cast<double>(plan.missing) /
                    static_cast<double>(plan.observed) <=
                driftThreshold)
            return plan;
        plan.swaps = planHotSet(hot);
        if (plan.swaps.size() > maxSwaps)
            plan.swaps.resize(maxSwaps);
        return plan;
    }

    void
    resetObservation()
    {
        candidates_.clear();
        observedReads_ = 0;
        sketch_.clear();
    }

    std::size_t candidateCount() const { return candidates_.size(); }
    std::uint64_t observedReads() const { return observedReads_; }
    std::size_t
    remappedEntries() const
    {
        return l2p_.size() + p2l_.size();
    }

  private:
    void
    setMapping(PageId lpn, PageId ppn)
    {
        if (lpn == ppn) {
            l2p_.erase(lpn);
            p2l_.erase(ppn);
        } else {
            l2p_[lpn] = ppn;
            p2l_[ppn] = lpn;
        }
    }

    std::uint64_t totalPages_;
    ftl::FrequencyMapping::Options options_;
    std::unordered_map<PageId, PageId> l2p_;
    std::unordered_map<PageId, PageId> p2l_;
    TwoPassSketch sketch_;
    std::unordered_map<PageId, std::uint64_t> candidates_;
    std::uint64_t observedReads_ = 0;
};

/** Each swap's (hot, from, to, displaced) pages, for list equality. */
std::vector<std::array<PageId, 4>>
swapPages(const std::vector<ftl::FrequencyMapping::Swap> &swaps)
{
    std::vector<std::array<PageId, 4>> pages;
    for (const auto &swap : swaps)
        pages.push_back({swap.hotLpn, swap.fromPpn, swap.toPpn,
                         swap.displacedLpn});
    return pages;
}

TEST(FrequencyMapping, BoundedPlanIsPrefixOfUnboundedPlan)
{
    // A device partly placed already, so the plan mixes pages that
    // stay, pages that move and slots held by earlier hot pages.
    ftl::FrequencyMapping::Options opt;
    opt.candidateEstimate = 1;
    ftl::FrequencyMapping mapping(2048, opt);
    std::vector<PageId> earlier;
    for (std::uint64_t i = 0; i < 24; ++i)
        earlier.push_back(PageId{700 + 29 * i});
    for (const auto &swap : mapping.planHotSet(earlier))
        mapping.commitSwap(swap);

    Rng rng(0xb0dULL);
    for (int round = 0; round < 40; ++round) {
        mapping.resetObservation();
        for (std::uint64_t n = 1 + rng.nextBounded(200); n > 0; --n) {
            mapping.readPage(
                rng.nextBounded(3) == 0
                    ? earlier[rng.nextBounded(earlier.size())]
                    : PageId{rng.nextBounded(4) == 0
                                 ? rng.nextBounded(2048)
                                 : 300 + rng.nextBounded(60)});
        }
        const std::uint64_t k = 1 + rng.nextBounded(80);
        const auto full = mapping.planMigration(k, 0.0, UINT64_MAX).swaps;
        for (const std::uint64_t m :
             {std::uint64_t{0}, std::uint64_t{1}, full.size() / 2,
              full.size(), full.size() + 3}) {
            const auto bounded = mapping.planMigration(k, 0.0, m).swaps;
            const std::size_t want =
                std::min<std::size_t>(m, full.size());
            ASSERT_EQ(bounded.size(), want) << "round " << round;
            ASSERT_EQ(swapPages(bounded),
                      swapPages({full.begin(),
                                 full.begin() +
                                     static_cast<std::ptrdiff_t>(want)}))
                << "round " << round << " bound " << m;
        }
        // Commit a prefix so later rounds plan over a moved mapping.
        const auto some =
            mapping.planMigration(k, 0.0, rng.nextBounded(8)).swaps;
        for (const auto &swap : some)
            mapping.commitSwap(swap);
    }
}

TEST(FrequencyMappingDifferential, MatchesMapReferenceModel)
{
    // A random stream of reads, plans, migration passes, prefix
    // commits and resets against the reference model. The device is small
    // next to the hot pool so plans keep displacing each other's
    // pages, a small sketch ages often, and read counts stay low so
    // ties at the top-k boundary are common.
    constexpr std::uint64_t kPages = 512;
    ftl::FrequencyMapping::Options opt;
    opt.sketchCounters = 1u << 10;
    opt.sketchSampleSize = 1u << 12;
    ftl::FrequencyMapping mapping(kPages, opt);
    ReferenceMapping reference(kPages, opt);
    Rng rng(0xd1ffULL);

    std::set<std::uint64_t> touched;
    const auto randomPage = [&] {
        // 3/4 of reads hit a 96-page pool spread over the device.
        if (rng.nextBounded(4) != 0)
            return PageId{(rng.nextBounded(96) * 37) % kPages};
        return PageId{rng.nextBounded(kPages)};
    };
    const auto commitPrefix =
        [&](const std::vector<ftl::FrequencyMapping::Swap> &swaps) {
        const std::size_t prefix = rng.nextBounded(swaps.size() + 1);
        for (std::size_t i = 0; i < prefix; ++i) {
            mapping.commitSwap(swaps[i]);
            reference.commitSwap(swaps[i]);
            for (const PageId p : {swaps[i].hotLpn, swaps[i].fromPpn,
                                   swaps[i].toPpn,
                                   swaps[i].displacedLpn})
                touched.insert(p.raw());
        }
    };

    bool sawBelow = false, sawAt = false, sawAbove = false;
    bool sawBoundaryTie = false;
    for (int step = 0; step < 6000; ++step) {
        const std::uint64_t op = rng.nextBounded(16);
        if (op < 10) {
            for (std::uint64_t n = 1 + rng.nextBounded(40); n > 0; --n) {
                const PageId lpn = randomPage();
                reference.noteRead(lpn);
                ASSERT_EQ(mapping.readPage(lpn), reference.translate(lpn))
                    << "step " << step << " page " << lpn.raw();
            }
        } else if (op < 13) {
            const std::size_t count = reference.candidateCount();
            std::size_t k = 0;
            switch (rng.nextBounded(4)) {
              case 0: k = count > 0 ? count - 1 : 0; break;
              case 1: k = count; break;
              case 2: k = count + 1 + rng.nextBounded(4); break;
              default: k = rng.nextBounded(count + 1); break;
            }
            sawBelow |= k < count;
            sawAt |= k == count && count > 0;
            sawAbove |= k > count;
            const auto ranked = reference.ranked();
            if (k > 0 && k < ranked.size() &&
                ranked[k - 1].first == ranked[k].first)
                sawBoundaryTie = true;
            // A zero threshold migrates on any drift, so every pass
            // with a missing page lists each out-of-tier hot page.
            const auto got = mapping.planMigration(k, 0.0, UINT64_MAX);
            const auto want = reference.planMigration(k, 0.0, UINT64_MAX);
            ASSERT_EQ(got.observed, want.observed) << "step " << step;
            ASSERT_EQ(got.missing, want.missing) << "step " << step;
            ASSERT_EQ(swapPages(got.swaps), swapPages(want.swaps))
                << "step " << step;
            if (op == 12)
                commitPrefix(got.swaps);
        } else if (op < 15) {
            // An offline-style plan with duplicates, not ranked by
            // observation.
            std::vector<PageId> hot;
            for (std::uint64_t n = rng.nextBounded(48); n > 0; --n)
                hot.push_back(randomPage());
            const auto swaps = mapping.planHotSet(hot);
            ASSERT_EQ(swapPages(swaps),
                      swapPages(reference.planHotSet(hot)));
            commitPrefix(swaps);
        } else {
            mapping.resetObservation();
            reference.resetObservation();
        }
        if (HasFatalFailure())
            return;

        ASSERT_EQ(mapping.observedReads(), reference.observedReads());
        ASSERT_EQ(mapping.remappedEntries(), reference.remappedEntries())
            << "step " << step;
        for (const std::uint64_t p : touched) {
            ASSERT_EQ(mapping.translate(PageId{p}),
                      reference.translate(PageId{p}))
                << "step " << step << " page " << p;
            ASSERT_EQ(mapping.inverse(PageId{p}),
                      reference.inverse(PageId{p}))
                << "step " << step << " page " << p;
        }
    }
    EXPECT_TRUE(sawBelow && sawAt && sawAbove);
    EXPECT_TRUE(sawBoundaryTie);
    EXPECT_FALSE(touched.empty());
    EXPECT_GT(mapping.remappedEntries(), 0u);
}

TEST(FrequencyMappingDifferential, MigrationPlanMatchesRankThenPlan)
{
    // Random read histories, each planned by the one-walk planner and
    // by the chain it replaced: a full sort of the candidates, the
    // drift loop against k, then planHotSet over the hot set in heat
    // order, cut to maxSwaps. Read counts stay low so counts tie, and
    // each round commits a prefix of its plan, so later rounds see hot
    // pages inside the tier, inside [observed, k) and beyond k.
    constexpr std::uint64_t kPages = 1024;
    ftl::FrequencyMapping::Options opt;
    opt.sketchCounters = 1u << 10;
    opt.sketchSampleSize = 1u << 12;
    ftl::FrequencyMapping mapping(kPages, opt);
    ReferenceMapping reference(kPages, opt);
    Rng rng(0x30a1ULL);

    bool sawBelowK = false, sawAboveK = false, sawBoundaryTie = false;
    bool sawMoverTie = false, sawQuirk = false, sawHeld = false;
    bool sawThresholdAtDrift = false;
    for (int round = 0; round < 400; ++round) {
        mapping.resetObservation();
        reference.resetObservation();
        const std::uint64_t pool = 16 + rng.nextBounded(240);
        for (std::uint64_t n = 50 + rng.nextBounded(1500); n > 0; --n) {
            const PageId lpn =
                rng.nextBounded(4) != 0
                    ? PageId{(rng.nextBounded(pool) * 37) % kPages}
                    : PageId{rng.nextBounded(kPages)};
            reference.noteRead(lpn);
            mapping.readPage(lpn);
        }

        // The reference chain. Only the ranking comes from the
        // reference model; translate and planHotSet are the mapping's.
        const auto ranked = reference.ranked();
        const std::uint64_t k = 1 + rng.nextBounded(2 * ranked.size() + 8);
        std::vector<PageId> hot;
        std::unordered_map<PageId, std::uint64_t> countOf;
        for (const auto &[count, lpn] : ranked) {
            if (hot.size() == k)
                break;
            hot.push_back(lpn);
            countOf[lpn] = count;
        }
        std::uint64_t missing = 0;
        for (const PageId lpn : hot) {
            if (mapping.translate(lpn).raw() >= k)
                ++missing;
        }
        const double drift =
            hot.empty() ? 0.0
                        : static_cast<double>(missing) /
                              static_cast<double>(hot.size());
        const double threshold =
            std::array{0.0, 0.25, 0.6, drift}[rng.nextBounded(4)];
        const bool migrates = missing > 0 && drift > threshold;
        const std::vector<ftl::FrequencyMapping::Swap> unbounded =
            migrates ? mapping.planHotSet(hot)
                     : std::vector<ftl::FrequencyMapping::Swap>{};

        for (const std::uint64_t m :
             {std::uint64_t{0}, std::uint64_t{1}, unbounded.size() / 2,
              unbounded.size(), unbounded.size() + 3}) {
            const auto plan = mapping.planMigration(k, threshold, m);
            ASSERT_EQ(plan.observed, hot.size()) << "round " << round;
            ASSERT_EQ(plan.missing, missing) << "round " << round;
            const std::size_t want =
                std::min<std::size_t>(m, unbounded.size());
            ASSERT_EQ(swapPages(plan.swaps),
                      swapPages({unbounded.begin(),
                                 unbounded.begin() +
                                     static_cast<std::ptrdiff_t>(want)}))
                << "round " << round << " bound " << m;
        }

        sawBelowK |= ranked.size() < k;
        sawAboveK |= ranked.size() > k;
        sawBoundaryTie |= k < ranked.size() &&
                          ranked[k - 1].first == ranked[k].first;
        sawHeld |= missing > 0 && !migrates;
        sawThresholdAtDrift |= missing > 0 && threshold == drift;
        for (std::size_t i = 0; i < unbounded.size(); ++i) {
            sawQuirk |= unbounded[i].fromPpn.raw() < k;
            sawMoverTie |= i > 0 && countOf[unbounded[i - 1].hotLpn] ==
                                        countOf[unbounded[i].hotLpn];
        }

        // Commit a prefix so later rounds plan over a moved mapping.
        const std::size_t prefix = rng.nextBounded(unbounded.size() + 1);
        for (std::size_t i = 0; i < prefix; ++i)
            mapping.commitSwap(unbounded[i]);
    }
    EXPECT_TRUE(sawBelowK && sawAboveK);
    EXPECT_TRUE(sawBoundaryTie && sawMoverTie);
    EXPECT_TRUE(sawQuirk);
    EXPECT_TRUE(sawHeld && sawThresholdAtDrift);
}

/** @p dev's frequency mapping; nullptr when placement is off. */
const ftl::FrequencyMapping *
frequencyMapping(RmSsd &dev)
{
    return dynamic_cast<const ftl::FrequencyMapping *>(&dev.ftl().mapping());
}

TEST(Placement, PlanHotPagesAggregatesRowsToPages)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt;
    opt.functional = true;
    RmSsd dev(cfg, opt);
    dev.loadTables();

    // Two rows of table 0 in the same flash page must fold into one
    // entry; heavier pages sort first.
    const EvTranslator &tr = dev.embeddingEngine().translator();
    (void)tr;
    std::vector<RowHeat> rows = {
        {TableId{0}, EvIndex{0}, 0.5},
        {TableId{0}, EvIndex{1}, 0.4}, // same 4 KB page as row 0
        {TableId{1}, EvIndex{100}, 0.3},
    };
    const auto hot =
        planHotPages(dev.embeddingEngine().translator(), rows, 8);
    ASSERT_EQ(hot.size(), 2u);
    // 0.5 + 0.4 in one page beats 0.3.
    const auto req = dev.embeddingEngine().translator().translate(
        TableId{0}, EvIndex{0});
    EXPECT_EQ(hot[0], req.lpn);
}

TEST(Placement, FrequencyLayoutInferenceMatchesLinearByteExact)
{
    const model::ModelConfig cfg = tinyConfig();

    RmSsdOptions linearOpt;
    linearOpt.functional = true;
    RmSsd linear(cfg, linearOpt);
    linear.loadTables();

    RmSsd freq(cfg, placementOptions());
    freq.loadTables();
    workload::TraceGenerator heatGen(cfg, skewedTrace());
    freq.planPlacement(heatGen.hotRowHeats());
    EXPECT_GT(frequencyMapping(freq)->remappedEntries(), 0u);

    workload::TraceGenerator genA(cfg, skewedTrace());
    workload::TraceGenerator genB(cfg, skewedTrace());
    for (int r = 0; r < 4; ++r) {
        const auto batchA = genA.nextBatch(3);
        const auto batchB = genB.nextBatch(3);
        const auto outA = linear.infer(batchA);
        const auto outB = freq.infer(batchB);
        ASSERT_EQ(outA.outputs.size(), outB.outputs.size());
        for (std::size_t i = 0; i < outA.outputs.size(); ++i)
            EXPECT_EQ(outA.outputs[i], outB.outputs[i]);
    }
}

TEST(Placement, MigrationPreservesContentsMidServing)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt = placementOptions();
    // The tiny model spans only ~128 flash pages; a small hot tier
    // leaves most of the hot set outside it so drift must trigger.
    opt.placement.hotPageCount = 16;
    opt.placement.minObservedReads = 64;
    opt.placement.maxSwapsPerPass = 64;
    RmSsd dev(cfg, opt);
    dev.loadTables();
    // No offline plan: the hot set starts entirely outside the hot
    // tier, so the online estimate must drift-trigger migration.

    workload::TraceGenerator gen(cfg, skewedTrace());
    bool migrated = false;
    for (int r = 0; r < 24; ++r) {
        const auto batch = gen.nextBatch(2);
        const auto out = dev.infer(batch);
        ASSERT_EQ(out.outputs.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(bits(out.outputs[i]),
                      bits(dev.model().referenceInference(batch[i])))
                << "request " << r << " sample " << i;
        }
        if (dev.migrateIfDrifted() > 0)
            migrated = true;
    }
    EXPECT_TRUE(migrated);
    EXPECT_GT(dev.migratedPageCount(), 0u);
    StatsRegistry stats;
    dev.registerStats(stats, "dev");
    EXPECT_GT(stats.counterValue("dev.placement.migrationPasses"), 0u);
}

TEST(Placement, TimingOnlyMigrationMaterializesNoPages)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt = placementOptions();
    opt.functional = false;
    opt.placement.hotPageCount = 16;
    opt.placement.minObservedReads = 64;
    opt.placement.maxSwapsPerPass = 64;
    RmSsd dev(cfg, opt);
    dev.loadTables();
    // A stale plan: the served trace's hot rows come from another
    // seed, so the online estimate drifts off the planned tier.
    workload::TraceGenerator heatGen(cfg, skewedTrace());
    dev.planPlacement(heatGen.hotRowHeats());
    EXPECT_GT(frequencyMapping(dev)->remappedEntries(), 0u);

    const std::uint64_t programsBefore = dev.flash().totalPagePrograms();
    workload::TraceGenerator gen(cfg, skewedTrace(0xd1f7ULL));
    std::uint64_t moved = 0;
    for (int r = 0; r < 64 && moved == 0; ++r) {
        dev.infer(gen.nextBatch(2));
        moved = dev.migrateIfDrifted();
    }
    ASSERT_GT(moved, 0u);
    EXPECT_GT(dev.migratedPageCount(), 0u);
    // A timing-only device keeps no page bytes, so neither the
    // untimed plan nor the timed pass copied any; the timed pass still
    // programs both pages of every swap.
    EXPECT_EQ(dev.flash().store().materializedPages(), 0u);
    EXPECT_EQ(dev.flash().totalPagePrograms() - programsBefore,
              dev.migratedPageCount());
}

TEST(Placement, ServingLoopDrivesMigration)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt = placementOptions();
    opt.placement.hotPageCount = 16;
    opt.placement.minObservedReads = 64;
    RmSsd dev(cfg, opt);
    dev.loadTables();

    workload::TraceGenerator gen(cfg, skewedTrace());
    workload::ServingConfig sc;
    sc.arrivalQps = 2000.0;
    sc.batchSize = 2;
    sc.numRequests = 48;
    sc.migrateCheckEvery = 8;
    const workload::ServingResult r =
        workload::simulateServing(dev, gen, sc);
    EXPECT_EQ(r.requests, 48u);
    EXPECT_GT(r.migratedPages, 0u);
    EXPECT_EQ(r.migratedPages, dev.migratedPageCount());
}

TEST(Placement, AsyncDepthTwoStaysFunctionallyCorrect)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsd dev(cfg, placementOptions());
    dev.loadTables();
    workload::TraceGenerator heatGen(cfg, skewedTrace());
    dev.planPlacement(heatGen.hotRowHeats());

    dev.setMaxInflight(2);
    workload::TraceGenerator gen(cfg, skewedTrace());
    std::vector<std::vector<model::Sample>> batches;
    for (int r = 0; r < 6; ++r) {
        batches.push_back(gen.nextBatch(2));
        dev.submit(batches.back());
    }
    std::size_t retired = 0;
    for (const AsyncCompletion &completion : dev.drain()) {
        const auto &batch = batches[retired++];
        ASSERT_EQ(completion.outcome.outputs.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i)
            EXPECT_EQ(bits(completion.outcome.outputs[i]),
                      bits(dev.model().referenceInference(batch[i])))
                << "request " << retired - 1 << " sample " << i;
    }
    EXPECT_EQ(retired, batches.size());
}

TEST(Placement, RejectsHotPageCountOutsideTheDevice)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt = placementOptions();
    opt.placement.hotPageCount = 0;
    EXPECT_EXIT(RmSsd(cfg, opt), ::testing::ExitedWithCode(1),
                "placement.hotPageCount is 0");
    opt.placement.hotPageCount = opt.geometry.totalPages() + 1;
    EXPECT_EXIT(RmSsd(cfg, opt), ::testing::ExitedWithCode(1),
                "placement.hotPageCount");

    // The whole device is a valid (if pointless) tier, and a disabled
    // placement is not validated at all.
    opt.placement.hotPageCount = opt.geometry.totalPages();
    RmSsd whole(cfg, opt);
    EXPECT_NE(frequencyMapping(whole), nullptr);
    opt.placement.enabled = false;
    opt.placement.hotPageCount = 0;
    RmSsd off(cfg, opt);
    EXPECT_EQ(frequencyMapping(off), nullptr);
}

TEST(Placement, RejectsDriftThresholdOutsideUnitInterval)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt = placementOptions();
    for (const double bad :
         {std::nan(""), -0.1, 1.5,
          std::numeric_limits<double>::infinity()}) {
        opt.placement.migrationDriftThreshold = bad;
        EXPECT_EXIT(RmSsd(cfg, opt), ::testing::ExitedWithCode(1),
                    "placement.migrationDriftThreshold")
            << "threshold " << bad;
    }
    for (const double ok : {0.0, 0.5, 1.0}) {
        opt.placement.migrationDriftThreshold = ok;
        RmSsd dev(cfg, opt);
        EXPECT_NE(frequencyMapping(dev), nullptr);
    }
}

TEST(Placement, KnobOffLeavesLinearMappingInPlace)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt;
    opt.functional = true;
    RmSsd dev(cfg, opt);
    dev.loadTables();
    EXPECT_EQ(frequencyMapping(dev), nullptr);
    EXPECT_EQ(dev.migrateIfDrifted(), 0u);
    EXPECT_EQ(dev.migratedPageCount(), 0u);
}

TEST(Stats, PerChannelBusyCyclesAndDieConflictsExported)
{
    const model::ModelConfig cfg = tinyConfig();
    RmSsdOptions opt;
    opt.functional = true;
    RmSsd dev(cfg, opt);
    dev.loadTables();

    workload::TraceGenerator gen(cfg, skewedTrace());
    for (int r = 0; r < 4; ++r)
        dev.infer(gen.nextBatch(4));

    StatsRegistry registry;
    dev.registerStats(registry, "t");
    for (std::uint32_t c = 0; c < opt.geometry.numChannels; ++c) {
        const std::string ch = "t.flash.ch" + std::to_string(c);
        EXPECT_GT(registry.gaugeValue(ch + ".busyCycles"), 0u);
        std::uint64_t dieBusy = 0;
        for (std::uint32_t d = 0; d < opt.geometry.diesPerChannel;
             ++d)
            dieBusy += registry.gaugeValue(
                ch + ".die" + std::to_string(d) + ".busyCycles");
        EXPECT_GT(dieBusy, 0u);
        // The conflict counter is registered (value is workload
        // dependent); counterValue returns the live counter.
        EXPECT_EQ(registry.counterValue(ch + ".dieConflicts"),
                  dev.flash().fmc(c).dieConflicts().value());
    }
}

TEST(Stats, SameDieBackToBackReadsCountAConflict)
{
    flash::Fmc fmc(2, flash::tableIITiming());
    const flash::VectorTransfer xfer = fmc.vectorTransfer(Bytes{128});
    fmc.readVector(Cycle{}, 0, xfer);
    EXPECT_EQ(fmc.dieConflicts().value(), 0u);
    fmc.readVector(Cycle{}, 0, xfer); // die still flushing
    EXPECT_EQ(fmc.dieConflicts().value(), 1u);
    fmc.readVector(Cycle{}, 1, xfer); // other die is idle
    EXPECT_EQ(fmc.dieConflicts().value(), 1u);
}

} // namespace
} // namespace rmssd::engine

namespace rmssd::cluster {
namespace {

std::vector<workload::TraceGenerator::TableHistogram>
histogramWithWorkingSets(const std::vector<std::uint64_t> &sets)
{
    std::vector<workload::TraceGenerator::TableHistogram> hist(
        sets.size());
    for (std::size_t t = 0; t < sets.size(); ++t) {
        hist[t].totalLookups = 1000 * sets[t];
        hist[t].uniqueHotIndices = sets[t];
    }
    return hist;
}

TEST(Resharding, UnchangedHistogramMovesNothing)
{
    model::ModelConfig cfg = model::rmc1();
    ShardingOptions opt;
    opt.numDevices = 2;
    const auto hist =
        histogramWithWorkingSets({100, 1, 1, 1, 1, 1, 1, 1});
    const ShardPlan previous = planTableSharding(cfg, opt, hist);

    const ReshardPlanResult r =
        replanTableSharding(cfg, opt, previous, hist);
    EXPECT_EQ(r.movedTables, 0u);
    EXPECT_EQ(r.movedWeightFraction, 0.0);
    EXPECT_EQ(r.plan.ownersPerTable, previous.ownersPerTable);
}

TEST(Resharding, StickinessKeepsHeavyTableOnItsOwner)
{
    model::ModelConfig cfg = model::rmc1();
    ShardingOptions opt;
    opt.numDevices = 2;
    const auto before =
        histogramWithWorkingSets({100, 1, 1, 1, 1, 1, 1, 1});
    const ShardPlan previous = planTableSharding(cfg, opt, before);
    const std::uint32_t heavyOwnerBefore =
        previous.ownersPerTable[0][0];

    // Drift: table 7 becomes the heavy one. A fresh plan would place
    // it greedily; the sticky re-plan keeps it on its previous owner
    // because the fleet can still balance around it.
    const auto after =
        histogramWithWorkingSets({1, 1, 1, 1, 1, 1, 1, 100});
    const ReshardPlanResult r = replanTableSharding(
        cfg, opt, previous, after, /*stickiness=*/10.0);

    // Every table still owned, every device still populated.
    for (std::uint32_t d = 0; d < opt.numDevices; ++d)
        EXPECT_FALSE(r.plan.tablesPerDevice[d].empty());
    for (std::uint32_t g = 0; g < cfg.numTables; ++g)
        EXPECT_FALSE(r.plan.ownersPerTable[g].empty());
    EXPECT_EQ(r.plan.ownersPerTable[7][0],
              previous.ownersPerTable[7][0]);
    EXPECT_EQ(r.plan.ownersPerTable[0][0], heavyOwnerBefore);
    EXPECT_LE(r.movedWeightFraction, 0.2);
}

TEST(Resharding, ZeroStickinessStillProducesValidPlan)
{
    model::ModelConfig cfg = model::rmc1();
    ShardingOptions opt;
    opt.numDevices = 4;
    const auto before =
        histogramWithWorkingSets({64, 32, 16, 8, 4, 2, 1, 1});
    const ShardPlan previous = planTableSharding(cfg, opt, before);
    const auto after =
        histogramWithWorkingSets({1, 1, 2, 4, 8, 16, 32, 64});
    const ReshardPlanResult r = replanTableSharding(
        cfg, opt, previous, after, /*stickiness=*/0.0);

    for (std::uint32_t d = 0; d < opt.numDevices; ++d)
        EXPECT_FALSE(r.plan.tablesPerDevice[d].empty());
    std::uint32_t owned = 0;
    for (std::uint32_t g = 0; g < cfg.numTables; ++g)
        owned += static_cast<std::uint32_t>(
            r.plan.ownersPerTable[g].size());
    EXPECT_EQ(owned, cfg.numTables);
    EXPECT_GE(r.movedWeightFraction, 0.0);
    EXPECT_LE(r.movedWeightFraction, 1.0);
}

} // namespace
} // namespace rmssd::cluster
