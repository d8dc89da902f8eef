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
        // The bytes of a new page this write leaves untouched keep
        // reading back as filler; the written range needs none.
        const std::uint64_t end = offset.raw() + data.size();
        for (std::uint64_t i = 0; i < offset.raw(); ++i)
            page[i] = fillerByte(ppn, i);
        for (std::uint64_t i = end; i < pageSize_.raw(); ++i)
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
    const std::uint32_t *slot = index_.find(ppn.raw());
    if (slot == nullptr)
        return;
    slots_[*slot].reset();
    freeSlots_.push_back(*slot);
    index_.erase(ppn.raw());
}

std::uint8_t
BackingStore::fillerByte(PageId ppn, std::uint64_t off)
{
    return static_cast<std::uint8_t>(hashCombine(ppn.raw(), off) & 0xff);
}

const std::uint8_t *
BackingStore::find(PageId ppn) const
{
    const std::uint32_t *slot = index_.find(ppn.raw());
    return slot == nullptr ? nullptr : slots_[*slot].get();
}

std::uint8_t *
BackingStore::materialize(PageId ppn, bool &created)
{
    std::uint32_t &slot = index_.findOrInsert(ppn.raw(), created);
    if (!created)
        return slots_[slot].get();

    if (freeSlots_.empty()) {
        RMSSD_ASSERT(slots_.size() < UINT32_MAX,
                     "backing store slots exhausted");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    slots_[slot] =
        std::make_unique_for_overwrite<std::uint8_t[]>(pageSize_.raw());
    return slots_[slot].get();
}

} // namespace rmssd::flash
