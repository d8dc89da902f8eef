/**
 * @file
 * Device-side embedding-vector cache: a set-associative, LRU-evicting
 * SRAM/BRAM cache of whole embedding vectors keyed by (table, index),
 * sitting between the EV Translator and the EV-FMC read path.
 *
 * The paper's RM-SSD is locality-insensitive (Fig. 14) because every
 * lookup pays the full CEV flash read; production traces are heavily
 * Zipfian, so a small on-device cache turns that flat curve into one
 * that rises with locality. A hit costs a short SRAM access instead of
 * the CEV vector read and, crucially, does not occupy a flash die or
 * channel bus; a miss fills the line, evicting the set's LRU entry.
 *
 * Cache v2 adds two frequency-aware knobs on top of the PR-1 LRU:
 *
 *  - **TinyLFU admission** (EvCacheAdmission::TinyLfu): a 4-bit
 *    count-min sketch with periodic halving (FrequencySketch) tracks
 *    approximate access frequency per key; a fill that would evict a
 *    valid line is admitted only when the incoming key's estimated
 *    frequency *exceeds* the victim's, so the one-hit-wonder cold
 *    tail can no longer flush hot lines.
 *  - **Static per-table partitioning** (EvCacheConfig::tableShares):
 *    the set array is split into contiguous per-table regions sized
 *    offline from the trace's per-table frequency histogram
 *    (workload::TraceGenerator::tableHistograms →
 *    planTableShares); traffic on one table then cannot evict
 *    another table's partition.
 *
 * Both knobs default off, so the default configuration reproduces the
 * PR-1 shared LRU cache bit-for-bit. The cache is off entirely by
 * default so the paper-faithful baselines are unchanged; RM-SSD+cache
 * enables it (plus intra-batch coalescing in the EmbeddingEngine,
 * which sits in front of the cache and folds duplicate indices of one
 * micro-batch into a single probe).
 *
 * Storage is flat, like the SRAM it models: one set-major array of
 * 16-byte {key, lastUse} ways (set s owns lines [s*ways, (s+1)*ways)),
 * where lastUse == 0 marks a free line. Line bytes live in a parallel
 * per-line array that is only allocated by the first fill carrying
 * real bytes, so a timing-only run never pays for it. A probe reads
 * one contiguous run of tags — two host cache lines at 8 ways — and a
 * hit hands out a view of the line's bytes instead of copying the
 * vector. A lookup is one probe(): a miss hands its Slot to the fill,
 * so the set is hashed and scanned once per unique vector. Keys and
 * stamps stay interleaved: a hit reads its key and its stamp from one
 * host cache line, where two arrays would put them in two.
 */

#ifndef RMSSD_ENGINE_EV_CACHE_H
#define RMSSD_ENGINE_EV_CACHE_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/freq_sketch.h"
#include "sim/log.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::engine {

/**
 * Latency of an EV-cache hit (SRAM read + mux back into the EV Sum
 * path).
 */
inline constexpr Cycle kEvCacheHitCycles{4};

/** Fill-admission policy on a conflict miss. */
enum class EvCacheAdmission : std::uint8_t
{
    /** PR-1 behaviour: every fill displaces the set's LRU line. */
    AlwaysAdmit,
    /**
     * TinyLFU: displace the LRU victim only when the incoming key's
     * sketch-estimated frequency beats the victim's.
     */
    TinyLfu,
};

/** EV cache knobs (RmSsdOptions::evCache). */
struct EvCacheConfig
{
    /** Master switch; off reproduces the paper-faithful device. */
    bool enabled = false;
    /** Total data capacity (device SRAM/BRAM budget). */
    Bytes capacityBytes{4ull << 20};
    /** Set associativity. */
    std::uint32_t ways = 8;
    /**
     * Hit ratio assumed by the kernel search when sizing the MLP
     * kernels against the cache-accelerated T_emb (see
     * EmbeddingEngine::effectiveCyclesPerRead). The measured ratio is
     * workload-dependent; workload::expectedHitRatio() estimates it
     * from a TraceConfig. RmSsd::replanIfDrifted re-runs the search
     * when the measured ratio drifts from this estimate.
     */
    double expectedHitRatio = 0.5;
    /** Fill-admission policy (AlwaysAdmit reproduces PR-1 exactly). */
    EvCacheAdmission admission = EvCacheAdmission::AlwaysAdmit;
    /**
     * Optional static per-table partitioning: entry t is table t's
     * relative share of the set array (any positive scale; normalised
     * internally — per-table lookup counts from a trace histogram
     * work directly, see workload::planTableShares). Empty means one
     * shared array (PR-1 behaviour). When set, size() must equal the
     * model's table count and every share must be > 0.
     */
    std::vector<double> tableShares;
};

/** Contiguous run of sets owned by one table (partitioned mode). */
struct EvCachePartition
{
    std::uint32_t firstSet = 0;
    std::uint32_t numSets = 0;
};

/**
 * Split @p numSets sets across tables proportionally to @p shares by
 * largest-remainder apportionment; every table gets at least one set.
 * Requires numSets >= shares.size() and all shares > 0.
 */
std::vector<EvCachePartition>
planTablePartitions(std::uint32_t numSets, std::span<const double> shares);

/**
 * Tag of one embedding vector: (table, index) packed into 64 bits, the
 * table id in the top 16 bits. Shared by the cache's tag array and the
 * engine's coalescing table; both bounds are checked so no two
 * vectors can alias.
 */
inline std::uint64_t
evKey(TableId tableId, EvIndex index)
{
    RMSSD_ASSERT(tableId.raw() < (1U << 16), "table id exceeds key space");
    RMSSD_ASSERT(index.raw() < (1ULL << 48),
                 "embedding index exceeds key space");
    return (static_cast<std::uint64_t>(tableId.raw()) << 48) |
           index.raw();
}

/** Set-associative LRU cache of embedding vectors. */
class EvCache
{
  public:
    /**
     * TinyLFU sketch sizing, in units of cache lines: the sketch gets
     * lines*kSketchCountersPerLine 4-bit counters and halves after
     * lines*kSketchSamplePerLine recorded accesses. 8 counters/line ≈
     * 4x over-provisioning against the working set at kDepth=4, and a
     * sample window of 16x the line count keeps roughly one cache
     * generation of history.
     */
    static constexpr std::uint64_t kSketchCountersPerLine = 8;
    static constexpr std::uint64_t kSketchSamplePerLine = 16;

    /**
     * @param lineBytes size of one cached vector (EVsize); capacity
     *        and associativity come from @p config
     */
    EvCache(const EvCacheConfig &config, Bytes lineBytes);

    /** Where a key lives: its set, and its line if it is cached. */
    struct Slot
    {
        std::size_t base = 0; //!< first line of the key's set
        std::size_t line = 0; //!< line holding the key, or kNoLine
        /** splitmix64(key): the set's hash, reused as sketch row 0. */
        std::uint64_t hash = 0;
    };

    /** Slot::line when no line of the set holds the key. */
    static constexpr std::size_t kNoLine = ~std::size_t{0};

    /**
     * Hash @p key (evKey of @p tableId's vector) to its set and scan
     * the set for it. @p hash is splitmix64(key), which the caller may
     * share with the coalescing table's home slot.
     */
    Slot probe(TableId tableId, std::uint64_t key,
               std::uint64_t hash) const;

    /**
     * Look @p key up in its probed @p slot. On a hit the line becomes
     * most-recently-used and, when @p out is non-null, *out is set to
     * a view of the line's bytes, valid until the next fill(). A
     * non-null @p out demands data: a line installed by a timing-only
     * run carries none and reports a miss (the caller re-reads flash
     * and the fill refreshes the line with real bytes).
     * Under TinyLFU admission the lookup also records the key in the
     * frequency sketch (the sketch read runs in parallel with the tag
     * lookup, so it adds no cycles), on the slot's hash.
     * @return true on hit
     */
    bool lookup(const Slot &slot, std::uint64_t key,
                std::span<const std::uint8_t> *out);

    /**
     * Install @p key into its probed @p slot after a miss was served
     * from flash; no fill or hit may touch the cache in between.
     * @p data is empty for timing-only runs and otherwise exactly
     * lineBytes() long. Evicts the set's LRU line when the set is
     * full — unless TinyLFU admission rejects the fill (victim
     * estimated at least as popular as the candidate), in which case
     * the set is left untouched.
     */
    void fill(const Slot &slot, std::uint64_t key,
              std::span<const std::uint8_t> data);

    /** lookup() of (table, index) through a fresh probe(). */
    bool lookup(TableId tableId, EvIndex index,
                std::span<const std::uint8_t> *out);

    /** fill() of (table, index) through a fresh probe(). */
    void fill(TableId tableId, EvIndex index,
              std::span<const std::uint8_t> data);

    /**
     * Probe without touching LRU state.
     * reachability: test-observer — EvCache.LruEvictsOldestLine and
     * EvCache.TablesDoNotAlias read residency.
     */
    bool contains(TableId tableId, EvIndex index) const;

    // reachability: test-observer — EvCache.GeometryFromConfig.
    std::uint32_t numSets() const { return numSets_; }
    // reachability: test-observer — EvCache.GeometryFromConfig.
    std::uint32_t ways() const { return ways_; }
    // reachability: test-observer — EvCache.GeometryFromConfig.
    Bytes lineBytes() const { return lineBytes_; }
    /**
     * Per-table set regions; empty when the cache is shared.
     * reachability: test-observer — read by
     * Partitioning.TableTrafficCannotCrossPartitions.
     */
    const std::vector<EvCachePartition> &partitions() const
    {
        return partitions_;
    }

    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }
    const Counter &fills() const { return fills_; }
    const Counter &evictions() const { return evictions_; }
    /** Fills rejected by the TinyLFU admission filter. */
    const Counter &admissionRejects() const { return admissionRejects_; }

    /**
     * Bytes of line data held: zero until the first fill that carries
     * data, then every line's worth (timing-only runs never pay it).
     * reachability: test-observer — read by
     * EvCache.FunctionalLookupRequiresData and
     * EvCacheLayout.LineDataOnlyForFunctionalRuns, which check that a
     * timing-only cache allocates no line bytes.
     */
    std::size_t dataBytes() const { return data_.size(); }

  private:
    /** One way: its tag and LRU stamp (0 = free; stamps start at 1). */
    struct Line
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
    };

    /** Line holding @p key among [first, first+count); kNoLine if none. */
    std::size_t find(std::size_t first, std::size_t count,
                     std::uint64_t key) const;
    /** First least recently used line of [first, first+count). */
    std::size_t lruLine(std::size_t first, std::size_t count) const;
    /** Whether line @p line holds bytes (not just a timing-only tag). */
    bool hasData(std::size_t line) const
    {
        return !hasData_.empty() && hasData_[line] != 0;
    }
    /** A view of line @p line's bytes (empty when it has none). */
    std::span<const std::uint8_t> lineData(std::size_t line) const;
    /** Tag, stamp and (possibly empty) bytes into line @p line. */
    void install(std::size_t line, std::uint64_t key,
                 std::span<const std::uint8_t> data);

    Bytes lineBytes_;
    std::uint32_t ways_;
    std::uint32_t numSets_ = 0;
    std::uint64_t tick_ = 0; //!< LRU clock, pre-incremented: stamps >= 1
    std::vector<Line> lines_; //!< every set's ways, set-major
    /** Per line: bytes present; empty until the first data fill. */
    std::vector<std::uint8_t> hasData_;
    /** lineBytes per line; empty until the first data fill. */
    std::vector<std::uint8_t> data_;
    std::vector<EvCachePartition> partitions_; //!< empty = shared
    std::unique_ptr<FrequencySketch> sketch_;  //!< TinyLfu only

    Counter hits_;
    Counter misses_;
    Counter fills_;
    Counter evictions_;
    Counter admissionRejects_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_EV_CACHE_H
