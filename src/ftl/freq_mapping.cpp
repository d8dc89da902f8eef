#include "ftl/freq_mapping.h"

#include <algorithm>
#include <cstddef>

#include "sim/rng.h"

namespace rmssd::ftl {

namespace {

/** One hot page: its heat count, logical page and physical page. */
struct HotPage
{
    std::uint64_t count;
    PageId lpn;
    PageId ppn;
};

/** Hotter first: count descending, then LPN ascending (a total order). */
bool
hotter(const HotPage &a, const HotPage &b)
{
    return a.count > b.count || (a.count == b.count && a.lpn < b.lpn);
}

/**
 * Keep the @p k hottest of @p pages, in no particular order. The order
 * is total, so they are the k first of a full sort.
 */
void
keepHottest(std::vector<HotPage> &pages, std::uint64_t k)
{
    if (pages.size() <= k)
        return;
    std::nth_element(pages.begin(),
                     pages.begin() + static_cast<std::ptrdiff_t>(k),
                     pages.end(), hotter);
    pages.resize(static_cast<std::size_t>(k));
}

/**
 * Drop from @p pages, order kept, every page already inside the tier
 * [0, slotTaken.size()), and mark its slot taken: hot pages in the
 * tier keep their slot, so it is not free for incoming pages.
 */
void
keepMovers(std::vector<HotPage> &pages, std::vector<bool> &slotTaken)
{
    const std::uint64_t tier = slotTaken.size();
    std::erase_if(pages, [&](const HotPage &page) {
        if (page.ppn.raw() >= tier)
            return false;
        slotTaken[page.ppn.raw()] = true;
        return true;
    });
}

/**
 * One swap per page of @p movers, in order, into the free slots of
 * @p slotTaken in ascending order; each slot's occupant is displaced.
 */
std::vector<FrequencyMapping::Swap>
swapsIntoFreeSlots(const FrequencyMapping &mapping,
                   std::span<const HotPage> movers,
                   const std::vector<bool> &slotTaken)
{
    std::vector<FrequencyMapping::Swap> swaps;
    swaps.reserve(movers.size());
    std::uint64_t slot = 0;
    for (const HotPage &page : movers) {
        while (slot < slotTaken.size() && slotTaken[slot])
            ++slot;
        RMSSD_ASSERT(slot < slotTaken.size(), "hot tier ran out of slots");
        const PageId target{slot++};
        swaps.push_back(FrequencyMapping::Swap{page.lpn, page.ppn, target,
                                               mapping.inverse(target)});
    }
    return swaps;
}

} // namespace

FrequencyMapping::FrequencyMapping(std::uint64_t totalPages)
    : FrequencyMapping(totalPages, Options{})
{
}

FrequencyMapping::FrequencyMapping(std::uint64_t totalPages,
                                   const Options &options)
    : totalPages_(totalPages), options_(options),
      sketch_(options.sketchCounters, options.sketchSampleSize)
{
    RMSSD_ASSERT(totalPages_ > 0, "mapping over an empty device");
}

PageId
FrequencyMapping::assignForWrite(PageId lpn)
{
    // In-place overwrite: writes land wherever the page currently
    // lives, so a placed hot tier survives table refreshes.
    return translate(lpn);
}

PageId
FrequencyMapping::readPage(PageId lpn)
{
    RMSSD_ASSERT(lpn.raw() < totalPages_,
                 "logical page out of device range");
    ++observedReads_;
    const std::uint64_t hash = splitmix64(lpn.raw());
    if (sketch_.record(lpn.raw(), hash) >= options_.candidateEstimate) {
        bool created = false;
        ++candidates_.findOrInsert(lpn.raw(), hash, created);
    }
    const PageId *ppn = l2p_.find(lpn.raw(), hash);
    return ppn == nullptr ? lpn : *ppn;
}

std::vector<FrequencyMapping::Swap>
FrequencyMapping::planHotSet(std::span<const PageId> hotLpnsByHeat) const
{
    // Dedup while keeping heat order; the hot tier is one slot per
    // distinct page. Each page is hashed and translated once here: the
    // dedup set and the overlay share its hash.
    std::vector<HotPage> hot;
    hot.reserve(hotLpnsByHeat.size());
    FlatMap<bool> seen;
    for (const PageId lpn : hotLpnsByHeat) {
        RMSSD_ASSERT(lpn.raw() < totalPages_,
                     "hot page out of device range");
        const std::uint64_t hash = splitmix64(lpn.raw());
        bool created = false;
        seen.findOrInsert(lpn.raw(), hash, created);
        if (created) {
            const PageId *ppn = l2p_.find(lpn.raw(), hash);
            hot.push_back(HotPage{0, lpn, ppn == nullptr ? lpn : *ppn});
        }
    }
    std::vector<bool> slotTaken(hot.size(), false);
    keepMovers(hot, slotTaken);
    return swapsIntoFreeSlots(*this, hot, slotTaken);
}

FrequencyMapping::MigrationPlan
FrequencyMapping::planMigration(std::uint64_t hotPageCount,
                                double driftThreshold,
                                std::uint64_t maxSwaps) const
{
    std::vector<HotPage> hot;
    hot.reserve(candidates_.size());
    // det-safe: extraction order is erased before it can reach a
    // result: the hot set is selected by the total order hotter() and
    // used as a set, and the pages that move are sorted by it.
    candidates_.forEachUnordered(
        [&](std::uint64_t lpn, std::uint64_t count) {
            hot.push_back(HotPage{count, PageId{lpn}, PageId{lpn}});
        });
    keepHottest(hot, hotPageCount);

    MigrationPlan plan;
    plan.observed = hot.size();
    for (HotPage &page : hot) {
        page.ppn = translate(page.lpn);
        if (page.ppn.raw() >= hotPageCount)
            ++plan.missing;
    }
    // Drift = fraction of the observed hot set living outside the
    // striped hot tier. Membership is what balances dies, so pages
    // already inside the tier (any slot) are not drift.
    if (plan.missing == 0 ||
        static_cast<double>(plan.missing) /
                static_cast<double>(plan.observed) <=
            driftThreshold)
        return plan;

    // planHotSet over the hot set in heat order would skip the pages
    // already in its tier and move the rest in heat order, so the
    // first maxSwaps of those are the bounded plan: only they need
    // ordering.
    std::vector<bool> slotTaken(hot.size(), false);
    keepMovers(hot, slotTaken);
    keepHottest(hot, maxSwaps);
    std::sort(hot.begin(), hot.end(), hotter);
    plan.swaps = swapsIntoFreeSlots(*this, hot, slotTaken);
    return plan;
}

void
FrequencyMapping::commitSwap(const Swap &swap)
{
    RMSSD_ASSERT(translate(swap.hotLpn) == swap.fromPpn,
                 "stale swap: hot page moved since planning");
    RMSSD_ASSERT(translate(swap.displacedLpn) == swap.toPpn,
                 "stale swap: displaced page moved since planning");
    setMapping(swap.hotLpn, swap.toPpn);
    setMapping(swap.displacedLpn, swap.fromPpn);
}

void
FrequencyMapping::setMapping(PageId lpn, PageId ppn)
{
    if (lpn == ppn) {
        l2p_.erase(lpn.raw());
        p2l_.erase(ppn.raw());
    } else {
        l2p_[lpn.raw()] = ppn;
        p2l_[ppn.raw()] = lpn;
    }
}

void
FrequencyMapping::resetObservation()
{
    candidates_.clear();
    observedReads_ = 0;
    sketch_.clear();
}

} // namespace rmssd::ftl
