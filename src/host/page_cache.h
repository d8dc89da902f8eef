/**
 * @file
 * Host LRU cache keyed by (file id, page index): the one LRU in the
 * tree.
 *
 * SSD-S and SSD-M in the paper limit DRAM to 1/4 and 1/2 of the total
 * embedding bytes; the page cache capacity is what turns that limit
 * into the hit ratios behind Fig. 2 and the read amplification of
 * Fig. 3. RecSSD's host vector cache is the same LRU keyed by
 * (table, row).
 */

#ifndef RMSSD_HOST_PAGE_CACHE_H
#define RMSSD_HOST_PAGE_CACHE_H

#include <cstdint>
#include <vector>

#include "sim/flat_map.h"
#include "sim/stats.h"

namespace rmssd::host {

/** Identifies one cached page: (file id, page index within file). */
struct PageKey
{
    std::uint32_t fileId = 0;
    std::uint64_t pageIndex = 0;

    bool operator==(const PageKey &) const = default;
};

/**
 * LRU cache of keys (metadata only; content lives in the device).
 * A flat map takes a key to its slot; the slots form a doubly linked
 * recency list by index, so a hit relinks one slot and a miss in a
 * full cache reuses the tail slot. Keys pack as fileId << 48 |
 * pageIndex, which needs fileId < 2^15 and pageIndex < 2^48.
 */
class PageCache
{
  public:
    /** @param capacityPages 0 means unbounded (DRAM-only config). */
    explicit PageCache(std::uint64_t capacityPages);

    /**
     * Look up a page; a hit refreshes recency, a miss inserts the page
     * (evicting the LRU page when full).
     * @return true on hit.
     */
    bool access(const PageKey &key);

    /**
     * Non-mutating membership probe.
     * reachability: test-observer — read by
     * PageCache.EvictsLeastRecentlyUsed and
     * PageCacheDifferential.MatchesListMapReference.
     */
    bool contains(const PageKey &key) const;

    /**
     * reachability: test-observer — read by
     * ReaderFixture.MissPaysDeviceAndKernelCosts.
     */
    std::uint64_t capacityPages() const { return capacity_; }

    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }
    const Counter &evictions() const { return evictions_; }

    /** reachability: test-observer — PageCache.HitAfterInsert. */
    double hitRatio() const;

    /** Reset the hit/miss/eviction counters only. */
    void resetStats();

  private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    struct Slot
    {
        std::uint64_t key = 0;
        std::uint32_t prev = kNoSlot; //!< toward the most recent
        std::uint32_t next = kNoSlot; //!< toward the least recent
    };

    static std::uint64_t packKey(const PageKey &key);
    void unlink(std::uint32_t slot);
    void pushFront(std::uint32_t slot);

    std::uint64_t capacity_;
    FlatMap<std::uint32_t> slotOf_; //!< packed key -> slot
    std::vector<Slot> slots_;
    std::uint32_t head_ = kNoSlot; //!< most recent
    std::uint32_t tail_ = kNoSlot; //!< least recent

    Counter hits_;
    Counter misses_;
    Counter evictions_;
};

} // namespace rmssd::host

#endif // RMSSD_HOST_PAGE_CACHE_H
