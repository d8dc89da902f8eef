#include "host/page_cache.h"

#include "sim/log.h"

namespace rmssd::host {

PageCache::PageCache(std::uint64_t capacityPages) : capacity_(capacityPages)
{
}

std::uint64_t
PageCache::packKey(const PageKey &key)
{
    // fileId < 2^15 keeps the top bit clear, so no key is the flat
    // map's all-ones empty mark.
    RMSSD_ASSERT(key.fileId < (1U << 15), "file id exceeds key space");
    RMSSD_ASSERT(key.pageIndex < (1ULL << 48),
                 "page index exceeds key space");
    return (static_cast<std::uint64_t>(key.fileId) << 48) | key.pageIndex;
}

bool
PageCache::access(const PageKey &key)
{
    const std::uint64_t packed = packKey(key);
    bool created = false;
    std::uint32_t &slotOfKey = slotOf_.findOrInsert(packed, created);
    if (!created) {
        const std::uint32_t slot = slotOfKey;
        if (slot != head_) {
            unlink(slot);
            pushFront(slot);
        }
        hits_.inc();
        return true;
    }
    misses_.inc();

    std::uint32_t slot = 0;
    const bool evicting = capacity_ != 0 && slots_.size() >= capacity_;
    std::uint64_t victim = 0;
    if (evicting) {
        slot = tail_;
        victim = slots_[slot].key;
        unlink(slot);
        evictions_.inc();
    } else {
        RMSSD_ASSERT(slots_.size() < kNoSlot, "page cache slot overflow");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slotOfKey = slot;
    slots_[slot].key = packed;
    pushFront(slot);
    // Erase last: it moves buckets, which invalidates slotOfKey.
    if (evicting)
        slotOf_.erase(victim);
    return false;
}

bool
PageCache::contains(const PageKey &key) const
{
    return slotOf_.find(packKey(key)) != nullptr;
}

void
PageCache::unlink(std::uint32_t slot)
{
    const Slot &s = slots_[slot];
    if (s.prev != kNoSlot)
        slots_[s.prev].next = s.next;
    else
        head_ = s.next;
    if (s.next != kNoSlot)
        slots_[s.next].prev = s.prev;
    else
        tail_ = s.prev;
}

void
PageCache::pushFront(std::uint32_t slot)
{
    slots_[slot].prev = kNoSlot;
    slots_[slot].next = head_;
    if (head_ != kNoSlot)
        slots_[head_].prev = slot;
    else
        tail_ = slot;
    head_ = slot;
}

double
PageCache::hitRatio() const
{
    const std::uint64_t total = hits_.value() + misses_.value();
    return total == 0 ? 0.0
                      : static_cast<double>(hits_.value()) /
                            static_cast<double>(total);
}

void
PageCache::resetStats()
{
    hits_.reset();
    misses_.reset();
    evictions_.reset();
}

} // namespace rmssd::host
