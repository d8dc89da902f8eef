/**
 * @file
 * Intra-batch coalescing table of the Embedding Lookup Engine: an
 * open-addressed map from a vector's (table, index) tag (evKey) to the
 * cycle its one read completes and, in functional runs, its bytes.
 *
 * The engine owns one table and reuses it for every micro-batch.
 * reset() starts a batch in O(1): it bumps a 64-bit epoch instead of
 * clearing slots (a slot from an older epoch reads as empty, and the
 * counter never wraps) and rewinds the byte arena. It also sizes the
 * slot array to a power of two at least twice the batch's lookup
 * count, so linear probes stay short and the table never grows
 * mid-batch. Once the largest batch has been seen, a batch allocates
 * nothing.
 *
 * Entries are only ever found by key, never iterated, so the slot
 * layout cannot leak into simulated results. One probe() serves both
 * halves of a lookup: the slot it returns either holds the key (a
 * duplicate) or is the free slot the key's insertAt() fills after
 * the read.
 */

#ifndef RMSSD_ENGINE_COALESCING_TABLE_H
#define RMSSD_ENGINE_COALESCING_TABLE_H

#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.h"

namespace rmssd::engine {

/** Reusable (evKey -> completion, bytes) map for one micro-batch. */
class CoalescingTable
{
  public:
    /** One unique vector of the current batch. */
    struct Entry
    {
        std::uint64_t key = 0;
        Cycle done;
        std::uint64_t epoch = 0;  //!< batch that wrote it; 0 = never
        std::uint32_t offset = 0; //!< arena offset of the bytes
        std::uint32_t length = 0; //!< arena bytes (0 when timing-only)
    };

    /**
     * Forget the previous batch and make room for up to @p maxKeys
     * unique keys. Must precede the first find() or insert().
     */
    void reset(std::size_t maxKeys);

    /**
     * The slot holding @p key this batch, else the free slot an
     * insertAt() of @p key would take. @p hash is splitmix64(key),
     * which the caller may share with the EV cache's set index. The
     * free slot stays valid until the next insert.
     */
    std::size_t probe(std::uint64_t key, std::uint64_t hash) const;

    /** The entry in @p slot this batch, or nullptr when it is free. */
    const Entry *entry(std::size_t slot) const
    {
        return slots_[slot].epoch == epoch_ ? &slots_[slot] : nullptr;
    }

    /**
     * Record @p key, served at @p done, into the free @p slot that
     * probe() returned for it; @p data is copied into the arena
     * (empty when timing-only).
     */
    void insertAt(std::size_t slot, std::uint64_t key, Cycle done,
                  std::span<const std::uint8_t> data);

    /** This batch's entry for @p key, or nullptr. */
    const Entry *find(std::uint64_t key) const;

    /** Record @p key (not yet present this batch); see insertAt(). */
    void insert(std::uint64_t key, Cycle done,
                std::span<const std::uint8_t> data);

    /** Bytes recorded with @p entry; valid until the next insert(). */
    std::span<const std::uint8_t> data(const Entry &entry) const
    {
        return std::span(arena_).subspan(entry.offset, entry.length);
    }

    /** Unique keys recorded this batch. */
    std::size_t size() const { return size_; }
    /**
     * Slots allocated (a power of two; 0 before the first reset).
     * reachability: test-observer — read by
     * CoalescingTable.GrowsToTheLargestBatchAtHalfLoad, which checks
     * the growth rule.
     */
    std::size_t capacity() const { return slots_.size(); }

  private:
    std::vector<Entry> slots_;
    std::vector<std::uint8_t> arena_;
    std::uint64_t epoch_ = 0;
    std::size_t size_ = 0;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_COALESCING_TABLE_H
