#include "flash/backing_store.h"

#include <algorithm>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::flash {

BackingStore::BackingStore(Bytes pageSizeBytes)
    : pageSize_(pageSizeBytes)
{
    RMSSD_ASSERT(pageSizeBytes > Bytes{}, "zero page size");
}

void
BackingStore::writePage(PageId ppn,
                        std::span<const std::uint8_t> data)
{
    RMSSD_ASSERT(data.size() == pageSize_.raw(),
                 "write is not page sized");
    bool created = false;
    std::copy(data.begin(), data.end(), materialize(ppn, created));
}

void
BackingStore::writePartial(PageId ppn, Bytes offset,
                           std::span<const std::uint8_t> data)
{
    RMSSD_ASSERT(offset.raw() + data.size() <= pageSize_.raw(),
                 "partial write crosses page boundary");
    bool created = false;
    std::uint8_t *page = materialize(ppn, created);
    if (created) {
        // Fill the new page with its filler content first so the
        // untouched region keeps reading back the same bytes.
        for (std::uint64_t i = 0; i < pageSize_.raw(); ++i)
            page[i] = fillerByte(ppn, i);
    }
    std::copy(data.begin(), data.end(), page + offset.raw());
}

void
BackingStore::read(PageId ppn, Bytes offset,
                   std::span<std::uint8_t> out) const
{
    RMSSD_ASSERT(offset.raw() + out.size() <= pageSize_.raw(),
                 "read crosses page boundary");
    if (const std::uint8_t *page = find(ppn)) {
        std::copy_n(page + offset.raw(), out.size(), out.begin());
        return;
    }
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = fillerByte(ppn, offset.raw() + i);
}

bool
BackingStore::isWritten(PageId ppn) const
{
    return find(ppn) != nullptr;
}

void
BackingStore::erasePage(PageId ppn)
{
    if (index_.empty())
        return;
    std::size_t hole = probe(ppn);
    if (index_[hole].slot == kEmpty)
        return;
    const std::uint32_t slot = index_[hole].slot;
    slots_[slot].reset();
    freeSlots_.push_back(slot);
    --live_;

    // Backward-shift deletion: pull every later bucket of the probe
    // run whose home is not cyclically in (hole, j] into the hole, so
    // lookups never need tombstones.
    const std::size_t mask = index_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; index_[j].slot != kEmpty;
         j = (j + 1) & mask) {
        const std::size_t fromHome = (j - home(index_[j].ppn)) & mask;
        if (fromHome >= ((j - hole) & mask)) {
            index_[hole] = index_[j];
            hole = j;
        }
    }
    index_[hole] = Bucket{};
}

std::uint8_t
BackingStore::fillerByte(PageId ppn, std::uint64_t off)
{
    return static_cast<std::uint8_t>(hashCombine(ppn.raw(), off) & 0xff);
}

std::size_t
BackingStore::home(PageId ppn) const
{
    return static_cast<std::size_t>(splitmix64(ppn.raw())) &
           (index_.size() - 1);
}

std::size_t
BackingStore::probe(PageId ppn) const
{
    const std::size_t mask = index_.size() - 1;
    std::size_t b = home(ppn);
    while (index_[b].slot != kEmpty && index_[b].ppn != ppn)
        b = (b + 1) & mask;
    return b;
}

const std::uint8_t *
BackingStore::find(PageId ppn) const
{
    if (index_.empty())
        return nullptr;
    const Bucket &bucket = index_[probe(ppn)];
    return bucket.slot == kEmpty ? nullptr : slots_[bucket.slot].get();
}

std::uint8_t *
BackingStore::materialize(PageId ppn, bool &created)
{
    // Load factor at most 3/4 keeps linear-probe runs short; a
    // power-of-two page count (a table image) fits at exactly 1/2.
    if (4 * (live_ + 1) > 3 * index_.size())
        grow();
    Bucket &bucket = index_[probe(ppn)];
    created = bucket.slot == kEmpty;
    if (!created)
        return slots_[bucket.slot].get();

    std::uint32_t slot;
    if (freeSlots_.empty()) {
        RMSSD_ASSERT(slots_.size() < kEmpty,
                     "backing store slots exhausted");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    slots_[slot] =
        std::make_unique_for_overwrite<std::uint8_t[]>(pageSize_.raw());
    bucket = Bucket{ppn, slot};
    ++live_;
    return slots_[slot].get();
}

void
BackingStore::grow()
{
    std::vector<Bucket> old = std::move(index_);
    index_.assign(std::max<std::size_t>(16, 2 * old.size()), Bucket{});
    for (const Bucket &bucket : old) {
        if (bucket.slot != kEmpty)
            index_[probe(bucket.ppn)] = bucket;
    }
}

} // namespace rmssd::flash
