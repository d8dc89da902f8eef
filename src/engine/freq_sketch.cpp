#include "engine/freq_sketch.h"

#include <algorithm>
#include <bit>

namespace rmssd::engine {

namespace {

/** splitmix64 finalizer; one seed per sketch row (row 0 is splitmix64). */
std::uint64_t
mixRow(std::uint64_t x, std::uint32_t row)
{
    x += 0x9e3779b97f4a7c15ULL * (row + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

FrequencySketch::FrequencySketch(std::uint64_t counters,
                                 std::uint64_t sampleSize)
    : sampleSize_(std::max<std::uint64_t>(1, sampleSize))
{
    const std::uint64_t width =
        std::bit_ceil(std::max<std::uint64_t>(64, counters));
    mask_ = width - 1;
    table_.assign(width / 2, 0); // two 4-bit counters per byte
}

void
FrequencySketch::slotsOf(std::uint64_t key, std::uint64_t hash,
                         std::uint64_t (&slots)[kDepth]) const
{
    // mixRow(key, 0) is splitmix64(key), so row 0 reuses the caller's
    // hash; the other rows hash with their own seeds.
    slots[0] = hash & mask_;
    for (std::uint32_t row = 1; row < kDepth; ++row)
        slots[row] = mixRow(key, row) & mask_;
}

std::uint32_t
FrequencySketch::record(std::uint64_t key, std::uint64_t hash)
{
    std::uint64_t slots[kDepth];
    slotsOf(key, hash, slots);
    std::uint32_t minCount = kMaxCount;
    for (const std::uint64_t slot : slots)
        minCount = std::min(minCount, counterAt(slot));
    // Conservative update: only the row counters equal to the current
    // minimum grow, which tightens the count-min overestimate. Each
    // slot's byte gets (counter == min) at its nibble, with no branch
    // on the data. Rows are visited in order and each re-reads its
    // counter, so a row that shares another row's slot sees it
    // already grown and adds 0. Every grown counter is below
    // kMaxCount, so adding one at its nibble never carries into the
    // neighbour; a saturated minimum grows nothing.
    const std::uint32_t grows = minCount < kMaxCount ? 1u : 0u;
    for (const std::uint64_t slot : slots) {
        std::uint8_t &byte = table_[slot >> 1];
        const std::uint32_t grow =
            (counterAt(slot) == minCount ? 1u : 0u) & grows;
        byte = static_cast<std::uint8_t>(byte + (grow << nibbleShift(slot)));
    }
    // Every counter now reads at least minCount + 1, and the grown
    // ones exactly that: the post-update estimate.
    minCount += grows;
    if (++additions_ >= sampleSize_) {
        halve();
        // Halving every counter halves their minimum.
        minCount >>= 1;
    }
    return minCount;
}

std::uint32_t
FrequencySketch::estimate(std::uint64_t key, std::uint64_t hash) const
{
    std::uint64_t slots[kDepth];
    slotsOf(key, hash, slots);
    std::uint32_t minCount = kMaxCount;
    for (const std::uint64_t slot : slots)
        minCount = std::min(minCount, counterAt(slot));
    return minCount;
}

void
FrequencySketch::halve()
{
    // Halve both nibbles of every byte in one pass: clearing bit 3 of
    // each nibble before the shift keeps the nibbles independent.
    for (std::uint8_t &byte : table_)
        byte = static_cast<std::uint8_t>((byte >> 1) & 0x77);
    additions_ /= 2;
}

void
FrequencySketch::clear()
{
    std::fill(table_.begin(), table_.end(), std::uint8_t{0});
    additions_ = 0;
}

} // namespace rmssd::engine
