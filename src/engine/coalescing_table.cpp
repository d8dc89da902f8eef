#include "engine/coalescing_table.h"

#include <algorithm>
#include <bit>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::engine {

void
CoalescingTable::reset(std::size_t maxKeys)
{
    const std::size_t wanted =
        std::bit_ceil(std::max<std::size_t>(16, 2 * maxKeys));
    if (wanted > slots_.size())
        slots_.assign(wanted, Entry{});
    ++epoch_;
    size_ = 0;
    arena_.clear();
}

std::size_t
CoalescingTable::probe(std::uint64_t key, std::uint64_t hash) const
{
    RMSSD_ASSERT(!slots_.empty(), "coalescing table probed before reset");
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (slots_[i].epoch == epoch_ && slots_[i].key != key)
        i = (i + 1) & mask;
    return i;
}

void
CoalescingTable::insertAt(std::size_t slot, std::uint64_t key, Cycle done,
                          std::span<const std::uint8_t> data)
{
    RMSSD_ASSERT(2 * (size_ + 1) <= slots_.size(),
                 "coalescing table sized below the batch's lookups");
    RMSSD_ASSERT(!entry(slot), "key already coalesced");
    RMSSD_ASSERT(arena_.size() + data.size() <= ~std::uint32_t{0},
                 "coalesced bytes exceed the arena's offset range");
    Entry &e = slots_[slot];
    e.key = key;
    e.done = done;
    e.epoch = epoch_;
    e.offset = static_cast<std::uint32_t>(arena_.size());
    e.length = static_cast<std::uint32_t>(data.size());
    arena_.insert(arena_.end(), data.begin(), data.end());
    ++size_;
}

const CoalescingTable::Entry *
CoalescingTable::find(std::uint64_t key) const
{
    return entry(probe(key, splitmix64(key)));
}

void
CoalescingTable::insert(std::uint64_t key, Cycle done,
                        std::span<const std::uint8_t> data)
{
    insertAt(probe(key, splitmix64(key)), key, done, data);
}

} // namespace rmssd::engine
