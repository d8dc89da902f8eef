/**
 * @file
 * Flat open-addressed hash map from a 64-bit key to a small value.
 *
 * One contiguous bucket array, homes by splitmix64, linear probing,
 * at most 1/2 full (at least 16 buckets, doubling), and backward-shift
 * deletion, so lookups never see tombstones. A hit or miss is one hash
 * plus a short scan of adjacent buckets instead of a hash-node walk,
 * which is what the per-EV-read paths (the backing store's page index,
 * the frequency mapping's overlays and heat counters) need. Most
 * overlay lookups miss, and a linear-probing miss scans about
 * (1 + 1/(1-a)^2)/2 buckets at load a: 2.5 at 1/2, 8.5 at 3/4.
 *
 * Bucket order depends on the insertion history, so the only way to
 * visit entries is forEachUnordered(); tools/lint_determinism.py
 * flags every call without a det-safe reason, exactly as it flags
 * unordered_map iteration.
 */

#ifndef RMSSD_SIM_FLAT_MAP_H
#define RMSSD_SIM_FLAT_MAP_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd {

/** u64 -> @p V map; the all-ones key is reserved as the empty mark. */
template <typename V>
class FlatMap
{
  public:
    static constexpr std::uint64_t kEmptyKey = UINT64_MAX;

    /** Value of @p key, or nullptr when absent. */
    const V *
    find(std::uint64_t key) const
    {
        // An empty map answers without hashing.
        return buckets_.empty() ? nullptr : find(key, splitmix64(key));
    }

    /**
     * find() with the key's home hash supplied: @p hash must be
     * splitmix64(key). A caller that hashes the key for another
     * splitmix64-keyed structure (a FrequencySketch row 0, another
     * FlatMap) passes that hash instead of paying for it again.
     */
    const V *
    find(std::uint64_t key, std::uint64_t hash) const
    {
        if (buckets_.empty())
            return nullptr;
        const Bucket &bucket = buckets_[probe(key, hash)];
        return bucket.key == kEmptyKey ? nullptr : &bucket.value;
    }

    /**
     * Value of @p key, value-initialized and inserted when absent;
     * @p created tells which. The reference stays valid until the
     * next insertion or erase.
     */
    V &
    findOrInsert(std::uint64_t key, bool &created)
    {
        return findOrInsert(key, splitmix64(key), created);
    }

    /** findOrInsert() with @p hash = splitmix64(key) supplied. */
    V &
    findOrInsert(std::uint64_t key, std::uint64_t hash, bool &created)
    {
        RMSSD_ASSERT(key != kEmptyKey, "flat map key is the empty mark");
        // Grow before probing, so the map stays at most 1/2 full
        // after this insertion.
        if (2 * (size_ + 1) > buckets_.size())
            grow();
        Bucket &bucket = buckets_[probe(key, hash)];
        created = bucket.key == kEmptyKey;
        if (created) {
            bucket = Bucket{key, V{}};
            ++size_;
        }
        return bucket.value;
    }

    V &
    operator[](std::uint64_t key)
    {
        bool created = false;
        return findOrInsert(key, created);
    }

    /** Remove @p key. @return whether it was present */
    bool
    erase(std::uint64_t key)
    {
        if (buckets_.empty())
            return false;
        std::size_t hole = probe(key);
        if (buckets_[hole].key == kEmptyKey)
            return false;
        // Backward-shift deletion: pull every later bucket of the
        // probe run whose home is not cyclically in (hole, j] into the
        // hole, so the run stays unbroken without tombstones.
        const std::size_t mask = buckets_.size() - 1;
        for (std::size_t j = (hole + 1) & mask;
             buckets_[j].key != kEmptyKey; j = (j + 1) & mask) {
            const std::size_t fromHome = (j - home(buckets_[j].key)) & mask;
            if (fromHome >= ((j - hole) & mask)) {
                buckets_[hole] = buckets_[j];
                hole = j;
            }
        }
        buckets_[hole] = Bucket{};
        --size_;
        return true;
    }

    /** Drop every entry; the bucket array keeps its size. */
    void
    clear()
    {
        std::fill(buckets_.begin(), buckets_.end(), Bucket{});
        size_ = 0;
    }

    std::size_t size() const { return size_; }

    /**
     * Call @p fn(key, value) for every entry, in bucket order. That
     * order is a function of the insertion history and capacity, so a
     * caller must not let it reach a result; the determinism lint
     * requires a det-safe reason at every call.
     */
    template <typename Fn>
    void
    forEachUnordered(Fn &&fn) const
    {
        for (const Bucket &bucket : buckets_) {
            if (bucket.key != kEmptyKey)
                fn(bucket.key, bucket.value);
        }
    }

  private:
    struct Bucket
    {
        std::uint64_t key = kEmptyKey;
        V value{};
    };

    /** Home bucket of @p key (buckets_ must be non-empty). */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(splitmix64(key)) &
               (buckets_.size() - 1);
    }

    /** Bucket holding @p key, or the empty bucket ending its run. */
    std::size_t
    probe(std::uint64_t key) const
    {
        return probe(key, splitmix64(key));
    }

    /** probe() from @p key's home hash, splitmix64(key). */
    std::size_t
    probe(std::uint64_t key, std::uint64_t hash) const
    {
        const std::size_t mask = buckets_.size() - 1;
        std::size_t b = static_cast<std::size_t>(hash) & mask;
        while (buckets_[b].key != kEmptyKey && buckets_[b].key != key)
            b = (b + 1) & mask;
        return b;
    }

    /** Double the bucket array (at least 16 buckets) and reinsert. */
    void
    grow()
    {
        std::vector<Bucket> old = std::move(buckets_);
        buckets_.assign(std::max<std::size_t>(16, 2 * old.size()),
                        Bucket{});
        for (const Bucket &bucket : old) {
            if (bucket.key != kEmptyKey)
                buckets_[probe(bucket.key)] = bucket;
        }
    }

    std::vector<Bucket> buckets_; //!< size is a power of two, or 0
    std::size_t size_ = 0;
};

} // namespace rmssd

#endif // RMSSD_SIM_FLAT_MAP_H
