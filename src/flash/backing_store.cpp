#include "flash/backing_store.h"

#include <algorithm>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::flash {

BackingStore::BackingStore(Bytes pageSizeBytes)
    : pageSize_(pageSizeBytes),
      pagesPerChunk_(static_cast<std::uint32_t>(std::max<std::uint64_t>(
          1, kChunkBytes.raw() /
                 std::max<std::uint64_t>(1, pageSizeBytes.raw()))))
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

std::span<const std::uint8_t>
BackingStore::view(PageId ppn, Bytes offset, Bytes bytes,
                   std::span<std::uint8_t> scratch) const
{
    RMSSD_ASSERT(offset + bytes <= pageSize_,
                 "read crosses page boundary");
    if (const std::uint8_t *page = find(ppn))
        return {page + offset.raw(), bytes.raw()};
    RMSSD_ASSERT(scratch.size() >= bytes.raw(),
                 "filler scratch is smaller than the read");
    for (std::size_t i = 0; i < bytes.raw(); ++i)
        scratch[i] = fillerByte(ppn, offset.raw() + i);
    return scratch.first(bytes.raw());
}

void
BackingStore::read(PageId ppn, Bytes offset,
                   std::span<std::uint8_t> out) const
{
    const std::span<const std::uint8_t> bytes =
        view(ppn, offset, Bytes{out.size()}, out);
    if (bytes.data() != out.data())
        std::copy(bytes.begin(), bytes.end(), out.begin());
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
    return slot == nullptr ? nullptr : slotData(*slot);
}

std::uint8_t *
BackingStore::materialize(PageId ppn, bool &created)
{
    std::uint32_t &slot = index_.findOrInsert(ppn.raw(), created);
    if (!created)
        return slotData(slot);
    RMSSD_ASSERT(slotsUsed_ < UINT32_MAX, "backing store slots exhausted");
    slot = slotsUsed_++;
    if (slot / pagesPerChunk_ == chunks_.size()) {
        // The arena grows by one chunk; existing chunks stay put. The
        // base is rounded up by hand: aligned operator new raised the
        // peak RSS of a process that builds device after device by
        // half, where a plain allocation does not.
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(pagesPerChunk_) * pageSize_.raw();
        std::uint8_t *chunk =
            chunks_
                .emplace_back(std::make_unique_for_overwrite<std::uint8_t[]>(
                    bytes + kChunkAlign.raw()))
                .get();
        const std::uint64_t misalign =
            reinterpret_cast<std::uintptr_t>(chunk) % kChunkAlign.raw();
        chunkBases_.push_back(
            chunk + (kChunkAlign.raw() - misalign) % kChunkAlign.raw());
    }
    return slotData(slot);
}

} // namespace rmssd::flash
