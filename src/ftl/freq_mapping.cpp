#include "ftl/freq_mapping.h"

#include <algorithm>
#include <utility>

#include "sim/rng.h"

namespace rmssd::ftl {

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
FrequencyMapping::planHotSet(std::span<const PageId> hotLpnsByHeat,
                             std::uint64_t maxSwaps) const
{
    // Dedup while keeping heat order; the hot tier is one slot per
    // distinct page. Each page is hashed and translated once here: the
    // dedup set and the overlay share its hash.
    std::vector<std::pair<PageId, PageId>> hot; // (lpn, ppn)
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
            hot.emplace_back(lpn, ppn == nullptr ? lpn : *ppn);
        }
    }
    const std::uint64_t tier =
        std::min<std::uint64_t>(hot.size(), totalPages_);
    hot.resize(tier);

    // Hot pages already inside [0, tier) keep their slot; their slots
    // are not free for incoming pages.
    std::vector<bool> slotTaken(tier, false);
    for (const auto &[lpn, ppn] : hot) {
        if (ppn.raw() < tier)
            slotTaken[ppn.raw()] = true;
    }

    std::vector<Swap> swaps;
    std::uint64_t slot = 0;
    for (const auto &[lpn, from] : hot) {
        if (swaps.size() >= maxSwaps)
            break;
        if (from.raw() < tier)
            continue; // already striped
        while (slot < tier && slotTaken[slot])
            ++slot;
        RMSSD_ASSERT(slot < tier, "hot tier ran out of slots");
        const PageId target{slot};
        slotTaken[slot] = true;
        swaps.push_back(
            Swap{lpn, from, target, inverse(target)});
    }
    return swaps;
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

std::vector<PageId>
FrequencyMapping::observedHot(std::size_t k) const
{
    std::vector<std::pair<std::uint64_t, PageId>> byCount;
    byCount.reserve(candidates_.size());
    // det-safe: extraction order is erased by the total-order
    // selection and sort below (count desc, PageId asc).
    candidates_.forEachUnordered(
        [&](std::uint64_t lpn, std::uint64_t count) {
            byCount.emplace_back(count, PageId{lpn});
        });
    const auto hotter = [](const auto &a, const auto &b) {
        if (a.first != b.first)
            return a.first > b.first;
        return a.second < b.second;
    };
    // The order is total, so the k survivors of the selection are the
    // k first of a full sort; only they need sorting.
    if (byCount.size() > k) {
        std::nth_element(byCount.begin(),
                         byCount.begin() + static_cast<std::ptrdiff_t>(k),
                         byCount.end(), hotter);
        byCount.resize(k);
    }
    std::sort(byCount.begin(), byCount.end(), hotter);
    std::vector<PageId> hot;
    hot.reserve(byCount.size());
    for (const auto &[count, lpn] : byCount)
        hot.push_back(lpn);
    return hot;
}

void
FrequencyMapping::resetObservation()
{
    candidates_.clear();
    observedReads_ = 0;
    sketch_.clear();
}

} // namespace rmssd::ftl
