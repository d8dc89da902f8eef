/**
 * @file
 * TinyLFU frequency sketch: a 4-bit count-min sketch with periodic
 * halving, the popularity estimator behind the EV cache's admission
 * filter (cache v2, DESIGN.md §8).
 *
 * Production embedding traces are heavily Zipfian with a long
 * once-accessed tail (Fig. 4: most unique indices are touched exactly
 * once). A plain LRU cache admits every miss, so the tail continually
 * evicts hot lines. TinyLFU-style admission keeps an approximate
 * access-frequency count per key and only lets a fill displace the
 * LRU victim when the incoming key is estimated to be *more* popular
 * than the line it would evict.
 *
 * The sketch is a flat array of 4-bit saturating counters (two per
 * byte); each key selects kDepth counters through independent
 * splitmix64-seeded hashes, is estimated as their minimum, and is
 * recorded with a conservative-update increment (only the minimal
 * counters grow). After sampleSize recorded accesses every counter is
 * halved, aging out stale popularity so the filter tracks workload
 * drift — the "periodic reset" of the TinyLFU paper. All state is a
 * few hundred KB of SRAM in the device budget; in the timing model
 * the sketch probe runs in parallel with the cache tag lookup and
 * adds no cycles.
 */

#ifndef RMSSD_ENGINE_FREQ_SKETCH_H
#define RMSSD_ENGINE_FREQ_SKETCH_H

#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace rmssd::engine {

/** 4-bit count-min sketch with periodic halving (TinyLFU aging). */
class FrequencySketch
{
  public:
    /** Counters saturate at 15 (4-bit). */
    static constexpr std::uint32_t kMaxCount = 15;
    /** Independent hash rows probed per key. */
    static constexpr std::uint32_t kDepth = 4;

    /**
     * @param counters requested number of 4-bit counters (rounded up
     *        to a power of two, minimum 64)
     * @param sampleSize recorded accesses between halvings
     */
    FrequencySketch(std::uint64_t counters, std::uint64_t sampleSize);

    /**
     * Count one access to @p key; may trigger the periodic halving.
     * @return estimate(key) after the update, from the same pass:
     *         min(minCount + 1, kMaxCount), halved when this access
     *         triggered the halving
     */
    std::uint32_t record(std::uint64_t key)
    {
        return record(key, splitmix64(key));
    }

    /**
     * record() of @p key with its row-0 hash supplied: @p hash must be
     * splitmix64(key), the hash a FlatMap homes the same key by, so a
     * caller probing both pays for it once.
     */
    std::uint32_t record(std::uint64_t key, std::uint64_t hash);

    /** Estimated access frequency of @p key in [0, kMaxCount]. */
    std::uint32_t estimate(std::uint64_t key) const
    {
        return estimate(key, splitmix64(key));
    }

    /** estimate() with @p hash = splitmix64(key) supplied. */
    std::uint32_t estimate(std::uint64_t key, std::uint64_t hash) const;

    /** Forget everything (tests / cache invalidation). */
    void clear();

  private:
    /** Bit offset of @p slot's nibble within its byte: 0 or 4. */
    static std::uint32_t
    nibbleShift(std::uint64_t slot)
    {
        return static_cast<std::uint32_t>(slot & 1) << 2;
    }

    std::uint32_t
    counterAt(std::uint64_t slot) const
    {
        return (std::uint32_t{table_[slot >> 1]} >> nibbleShift(slot)) & 0x0fu;
    }

    /** The kDepth counter slots of @p key; row 0 is @p hash itself. */
    void slotsOf(std::uint64_t key, std::uint64_t hash,
                 std::uint64_t (&slots)[kDepth]) const;
    void halve();

    std::vector<std::uint8_t> table_; //!< two 4-bit counters per byte
    std::uint64_t mask_;              //!< counter count - 1 (pow2 size)
    std::uint64_t sampleSize_;
    std::uint64_t additions_ = 0;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_FREQ_SKETCH_H
