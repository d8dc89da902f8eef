/**
 * @file
 * Differential tests of the embedding engine's per-lookup path. The
 * EV cache and the coalescing table now probe once per unique lookup
 * and share one key hash; the copies below are those two classes as
 * they were before, when every call re-hashed its key, re-ran the set
 * modulo and re-scanned the set or probe chain. Random op streams
 * must give the same return value, counter and victim on both sides,
 * through the per-key wrappers and through the probe-then-fill path
 * the engine takes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "engine/coalescing_table.h"
#include "engine/embedding_engine.h"
#include "engine/ev_cache.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "sim/rng.h"
#include "workload/trace_gen.h"

namespace rmssd::engine {
namespace {

/**
 * The flat EV cache before single-probe lookups. fill() also reports
 * the key it displaced, so a test can check each victim.
 */
class ParentEvCache
{
  public:
    /** What one fill() did. */
    struct Fill
    {
        bool installed = false;
        bool evicted = false;
        std::uint64_t victimKey = 0;
    };

    ParentEvCache(const EvCacheConfig &config, Bytes lineBytes)
        : lineBytes_(lineBytes), ways_(config.ways)
    {
        const std::uint64_t lines = std::max<std::uint64_t>(
            1, config.capacityBytes / lineBytes_);
        ways_ = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(ways_, lines));
        numSets_ = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(1, lines / ways_));
        lines_.resize(static_cast<std::size_t>(numSets_) * ways_);
        if (!config.tableShares.empty())
            partitions_ = planTablePartitions(numSets_, config.tableShares);
        if (config.admission == EvCacheAdmission::TinyLfu) {
            sketch_ = std::make_unique<FrequencySketch>(
                lines * EvCache::kSketchCountersPerLine,
                lines * EvCache::kSketchSamplePerLine);
        }
    }

    bool lookup(TableId tableId, EvIndex index,
                std::span<const std::uint8_t> *out)
    {
        const std::uint64_t key = evKey(tableId, index);
        if (sketch_)
            sketch_->record(key);
        const std::size_t line = find(setBase(tableId, key), ways_, key);
        if (line == kNoLine || (out && !hasData(line))) {
            ++misses;
            return false;
        }
        lines_[line].lastUse = ++tick_;
        ++hits;
        if (out)
            *out = lineData(line);
        return true;
    }

    Fill fill(TableId tableId, EvIndex index,
              std::span<const std::uint8_t> data)
    {
        const std::uint64_t key = evKey(tableId, index);
        const std::size_t base = setBase(tableId, key);
        Fill result;
        std::size_t victim = find(base, ways_, key);
        if (victim == kNoLine) {
            victim = lruLine(base, ways_);
            if (lines_[victim].lastUse != 0) {
                if (sketch_ && sketch_->estimate(key) <=
                                   sketch_->estimate(lines_[victim].key)) {
                    ++rejects;
                    return result;
                }
                ++evictions;
                result.evicted = true;
                result.victimKey = lines_[victim].key;
            }
        }
        install(victim, key, data);
        ++fills;
        result.installed = true;
        return result;
    }

    bool contains(TableId tableId, EvIndex index) const
    {
        const std::uint64_t key = evKey(tableId, index);
        return find(setBase(tableId, key), ways_, key) != kNoLine;
    }

    std::uint64_t hits = 0, misses = 0, fills = 0, evictions = 0,
                  rejects = 0;

  private:
    struct Line
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
    };
    static constexpr std::size_t kNoLine = ~std::size_t{0};

    std::size_t setBase(TableId tableId, std::uint64_t key) const
    {
        const std::uint64_t hash = splitmix64(key);
        std::size_t set;
        if (partitions_.empty()) {
            set = static_cast<std::size_t>(hash % numSets_);
        } else {
            const EvCachePartition &p = partitions_[tableId.raw()];
            set = p.firstSet + static_cast<std::size_t>(hash % p.numSets);
        }
        return set * ways_;
    }

    std::size_t find(std::size_t first, std::size_t count,
                     std::uint64_t key) const
    {
        for (std::size_t line = first; line < first + count; ++line) {
            if (lines_[line].key == key && lines_[line].lastUse != 0)
                return line;
        }
        return kNoLine;
    }

    std::size_t lruLine(std::size_t first, std::size_t count) const
    {
        std::size_t victim = first;
        for (std::size_t line = first + 1; line < first + count; ++line) {
            if (lines_[line].lastUse < lines_[victim].lastUse)
                victim = line;
        }
        return victim;
    }

    bool hasData(std::size_t line) const
    {
        return !hasData_.empty() && hasData_[line] != 0;
    }

    std::span<const std::uint8_t> lineData(std::size_t line) const
    {
        if (!hasData(line))
            return {};
        return std::span(data_).subspan(line * lineBytes_.raw(),
                                        lineBytes_.raw());
    }

    void install(std::size_t line, std::uint64_t key,
                 std::span<const std::uint8_t> data)
    {
        lines_[line] = Line{key, ++tick_};
        if (data.empty()) {
            if (!hasData_.empty())
                hasData_[line] = 0;
            return;
        }
        if (data_.empty()) {
            hasData_.assign(lines_.size(), 0);
            data_.resize(lines_.size() * lineBytes_.raw());
        }
        hasData_[line] = 1;
        std::memcpy(data_.data() + line * lineBytes_.raw(), data.data(),
                    data.size());
    }

    Bytes lineBytes_;
    std::uint32_t ways_;
    std::uint32_t numSets_ = 0;
    std::uint64_t tick_ = 0;
    std::vector<Line> lines_;
    std::vector<std::uint8_t> hasData_;
    std::vector<std::uint8_t> data_;
    std::vector<EvCachePartition> partitions_;
    std::unique_ptr<FrequencySketch> sketch_;
};

/** The coalescing table before probe(): find and insert each walk. */
class ParentCoalescingTable
{
  public:
    using Entry = CoalescingTable::Entry;

    void reset(std::size_t maxKeys)
    {
        const std::size_t wanted =
            std::bit_ceil(std::max<std::size_t>(16, 2 * maxKeys));
        if (wanted > slots_.size())
            slots_.assign(wanted, Entry{});
        ++epoch_;
        size_ = 0;
        arena_.clear();
    }

    const Entry *find(std::uint64_t key) const
    {
        for (std::size_t i = home(key);; i = (i + 1) & (slots_.size() - 1)) {
            const Entry &slot = slots_[i];
            if (slot.epoch != epoch_)
                return nullptr;
            if (slot.key == key)
                return &slot;
        }
    }

    void insert(std::uint64_t key, Cycle done,
                std::span<const std::uint8_t> data)
    {
        std::size_t i = home(key);
        while (slots_[i].epoch == epoch_)
            i = (i + 1) & (slots_.size() - 1);
        Entry &slot = slots_[i];
        slot.key = key;
        slot.done = done;
        slot.epoch = epoch_;
        slot.offset = static_cast<std::uint32_t>(arena_.size());
        slot.length = static_cast<std::uint32_t>(data.size());
        arena_.insert(arena_.end(), data.begin(), data.end());
        ++size_;
    }

    std::span<const std::uint8_t> data(const Entry &entry) const
    {
        return std::span(arena_).subspan(entry.offset, entry.length);
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

  private:
    std::size_t home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(splitmix64(key)) &
               (slots_.size() - 1);
    }

    std::vector<Entry> slots_;
    std::vector<std::uint8_t> arena_;
    std::uint64_t epoch_ = 0;
    std::size_t size_ = 0;
};

constexpr std::uint32_t kLineBytes = 16;
constexpr std::uint32_t kTables = 3;

/** Table and index of evKey @p key. */
std::pair<TableId, EvIndex>
unpackKey(std::uint64_t key)
{
    return {TableId{static_cast<std::uint32_t>(key >> 48)},
            EvIndex{key & ((1ULL << 48) - 1)}};
}

/** Distinct bytes per fill, so a stale or foreign line shows. */
std::vector<std::uint8_t>
payload(std::uint64_t serial, std::uint32_t bytes)
{
    std::vector<std::uint8_t> out(bytes);
    for (std::uint32_t b = 0; b < bytes; ++b)
        out[b] = static_cast<std::uint8_t>(splitmix64(serial * bytes + b));
    return out;
}

/** One cache configuration of the differential sweep. */
struct CacheCase
{
    std::string name;
    EvCacheConfig config;
};

/**
 * Ways 1, 2, 8 and 16 over a 48-line cache (48, 24, 6 and 3 sets: no
 * power of two past the first), each shared, partitioned, TinyLFU,
 * and partitioned under TinyLFU.
 */
std::vector<CacheCase>
cacheCases()
{
    std::vector<CacheCase> cases;
    for (const std::uint32_t ways : {1u, 2u, 8u, 16u}) {
        EvCacheConfig shared;
        shared.enabled = true;
        shared.capacityBytes = Bytes{48 * kLineBytes};
        shared.ways = ways;
        EvCacheConfig parts = shared;
        parts.tableShares = {3.0, 1.0, 2.0};
        EvCacheConfig lfu = shared;
        lfu.admission = EvCacheAdmission::TinyLfu;
        EvCacheConfig lfuParts = parts;
        lfuParts.admission = EvCacheAdmission::TinyLfu;
        const std::string w = std::to_string(ways) + " ways";
        cases.push_back({"shared, " + w, shared});
        cases.push_back({"partitioned, " + w, parts});
        cases.push_back({"tinylfu, " + w, lfu});
        cases.push_back({"tinylfu partitioned, " + w, lfuParts});
    }
    return cases;
}

/**
 * Checks that functional hits read the same line on both sides. The
 * line arrays are allocated once, so a hit's byte offset from the
 * first hit's is its line position: placement within a set, which no
 * counter shows, must match too (free lines fill first to last).
 */
class SameLines
{
  public:
    void check(std::span<const std::uint8_t> got,
               std::span<const std::uint8_t> want, int op)
    {
        if (!gotAnchor_) {
            gotAnchor_ = got.data();
            wantAnchor_ = want.data();
            return;
        }
        ASSERT_EQ(got.data() - gotAnchor_, want.data() - wantAnchor_)
            << "hit served from another line, op " << op;
        ++checked;
    }

    std::uint64_t checked = 0;

  private:
    const std::uint8_t *gotAnchor_ = nullptr;
    const std::uint8_t *wantAnchor_ = nullptr;
};

/** Every counter of @p cache equals the parent copy's. */
void
expectSameCounters(const EvCache &cache, const ParentEvCache &ref,
                   int op)
{
    ASSERT_EQ(cache.hits().value(), ref.hits) << "op " << op;
    ASSERT_EQ(cache.misses().value(), ref.misses) << "op " << op;
    ASSERT_EQ(cache.fills().value(), ref.fills) << "op " << op;
    ASSERT_EQ(cache.evictions().value(), ref.evictions) << "op " << op;
    ASSERT_EQ(cache.admissionRejects().value(), ref.rejects)
        << "op " << op;
}

/**
 * After a fill of @p key: the key is cached exactly when the parent
 * installed it, and the parent's victim is gone from @p cache too.
 */
void
expectSameVictim(const EvCache &cache, const ParentEvCache::Fill &fill,
                 std::uint64_t key, bool wasCached, int op)
{
    const auto [table, index] = unpackKey(key);
    ASSERT_EQ(cache.contains(table, index), fill.installed || wasCached)
        << "filled key, op " << op;
    if (fill.evicted) {
        const auto [vt, vi] = unpackKey(fill.victimKey);
        ASSERT_FALSE(cache.contains(vt, vi)) << "victim kept, op " << op;
    }
}

TEST(LookupPathDifferential, EvCacheMatchesParentCode)
{
    constexpr int kOps = 20000;
    for (const CacheCase &c : cacheCases()) {
        SCOPED_TRACE(c.name);
        EvCache cache(c.config, Bytes{kLineBytes});
        ParentEvCache ref(c.config, Bytes{kLineBytes});
        Rng rng(29);
        std::set<std::uint64_t> touched;
        std::uint64_t serial = 0;
        std::uint64_t victims = 0;
        SameLines sameLines;
        for (int op = 0; op < kOps; ++op) {
            // Skewed keys over three tables: a hot head that fits
            // nowhere near the 48 lines, and a scattered tail.
            const TableId table{
                static_cast<std::uint32_t>(rng.nextBounded(kTables))};
            const EvIndex index{rng.nextBounded(8) == 0
                                    ? rng.nextBounded(4096)
                                    : rng.nextBounded(96)};
            const std::uint64_t key = evKey(table, index);
            touched.insert(key);
            const bool functional = rng.nextBounded(2) == 0;
            const std::vector<std::uint8_t> bytes =
                functional ? payload(++serial, kLineBytes)
                           : std::vector<std::uint8_t>{};
            const bool wasCached = ref.contains(table, index);
            const std::uint64_t action = rng.nextBounded(1000);
            if (action < 500) {
                // The engine's path: one probe serves the lookup and,
                // on a miss, the fill.
                const EvCache::Slot slot =
                    cache.probe(table, key, splitmix64(key));
                std::span<const std::uint8_t> got;
                std::span<const std::uint8_t> want;
                const bool hit =
                    ref.lookup(table, index, functional ? &want : nullptr);
                ASSERT_EQ(cache.lookup(slot, key,
                                       functional ? &got : nullptr),
                          hit)
                    << "probed lookup, op " << op;
                ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                       want.begin(), want.end()))
                    << "bytes of a hit, op " << op;
                if (hit && functional)
                    sameLines.check(got, want, op);
                if (!hit) {
                    const ParentEvCache::Fill fill =
                        ref.fill(table, index, bytes);
                    cache.fill(slot, key, bytes);
                    expectSameVictim(cache, fill, key, wasCached, op);
                    victims += fill.evicted;
                }
            } else if (action < 700) {
                std::span<const std::uint8_t> got;
                std::span<const std::uint8_t> want;
                const bool hit = ref.lookup(table, index,
                                            functional ? &want : nullptr);
                ASSERT_EQ(cache.lookup(table, index,
                                       functional ? &got : nullptr),
                          hit)
                    << "lookup, op " << op;
                ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                       want.begin(), want.end()))
                    << "bytes of a hit, op " << op;
                if (hit && functional)
                    sameLines.check(got, want, op);
            } else {
                const ParentEvCache::Fill fill =
                    ref.fill(table, index, bytes);
                cache.fill(table, index, bytes);
                expectSameVictim(cache, fill, key, wasCached, op);
                victims += fill.evicted;
            }
            expectSameCounters(cache, ref, op);
        }
        for (const std::uint64_t key : touched) {
            const auto [table, index] = unpackKey(key);
            ASSERT_EQ(cache.contains(table, index),
                      ref.contains(table, index))
                << "table " << table.raw() << " index " << index.raw();
        }
        // Every path of the parent code ran.
        EXPECT_GT(ref.hits, 0u);
        EXPECT_GT(victims, 0u);
        EXPECT_GT(sameLines.checked, 0u);
        if (c.config.admission == EvCacheAdmission::TinyLfu) {
            EXPECT_GT(ref.rejects, 0u);
        }
    }
}

TEST(LookupPathDifferential, CoalescingTableMatchesParentCode)
{
    CoalescingTable table;
    ParentCoalescingTable ref;
    Rng rng(31);
    std::uint64_t duplicates = 0;
    for (int batch = 0; batch < 400; ++batch) {
        // Batch sizes from empty to past the previous largest, so the
        // table both reuses and regrows its slots.
        const auto maxKeys =
            static_cast<std::size_t>(rng.nextBounded(batch < 200 ? 40 : 700));
        table.reset(maxKeys);
        ref.reset(maxKeys);
        ASSERT_EQ(table.capacity(), ref.capacity()) << "batch " << batch;
        // Keys from a space about twice the batch: half the draws are
        // duplicates, and many keys recur from earlier batches.
        const std::uint64_t space = 2 * maxKeys + 1;
        for (std::size_t op = 0; op < 2 * maxKeys; ++op) {
            const std::uint64_t key =
                evKey(TableId{static_cast<std::uint32_t>(rng.nextBounded(2))},
                      EvIndex{rng.nextBounded(space)});
            const bool probed = rng.nextBounded(2) == 0;
            const std::size_t slot = table.probe(key, splitmix64(key));
            const CoalescingTable::Entry *got =
                probed ? table.entry(slot) : table.find(key);
            const ParentCoalescingTable::Entry *want = ref.find(key);
            ASSERT_EQ(got != nullptr, want != nullptr)
                << "batch " << batch << " op " << op;
            if (want) {
                ++duplicates;
                ASSERT_EQ(got->done, want->done);
                const auto a = table.data(*got);
                const auto b = ref.data(*want);
                ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(),
                                       b.end()))
                    << "batch " << batch << " op " << op;
                continue;
            }
            if (ref.size() == maxKeys)
                continue; // the batch's unique keys are all in
            const Cycle done{rng.nextBounded(1u << 20)};
            const std::vector<std::uint8_t> bytes =
                rng.nextBounded(4) == 0
                    ? std::vector<std::uint8_t>{}
                    : payload(rng.next(), 1 + static_cast<std::uint32_t>(
                                                  rng.nextBounded(12)));
            if (probed)
                table.insertAt(slot, key, done, bytes);
            else
                table.insert(key, done, bytes);
            ref.insert(key, done, bytes);
            ASSERT_EQ(table.size(), ref.size());
        }
    }
    EXPECT_GT(duplicates, 0u);
}

/**
 * The engine runs a trace through coalescing and the cache on one
 * shared hash. Replaying its unique lookups (first sight per batch)
 * through the parent cache, in the order the engine reads them, must
 * land on the same counters: a wrong hash or slot handed to either
 * structure moves lines between sets and shows up here.
 */
TEST(LookupPathDifferential, EngineCountersMatchParentReplay)
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(1u << 16);
    cfg.lookupsPerTable = 20;
    for (const bool partitioned : {false, true}) {
        SCOPED_TRACE(partitioned ? "partitioned" : "shared");
        RmSsdOptions opt;
        opt.evCache.enabled = true;
        opt.evCache.capacityBytes = Bytes{96 * cfg.vectorBytes()};
        opt.evCache.ways = 4;
        if (partitioned)
            opt.evCache.tableShares.assign(cfg.numTables, 1.0);
        opt.coalesceIndices = true;
        RmSsd device(cfg, opt);
        device.loadTables();
        ParentEvCache ref(opt.evCache, Bytes{cfg.vectorBytes()});

        workload::TraceConfig trace = workload::localityK(0.0);
        trace.hotRowsPerTable = 64;
        workload::TraceGenerator gen(cfg, trace);
        std::uint64_t coalesced = 0;
        for (int b = 0; b < 40; ++b) {
            const std::vector<model::Sample> batch = gen.nextBatch(4);
            device.embeddingEngine().run(Cycle{}, std::span(batch), false);
            std::set<std::uint64_t> seen;
            for (const model::Sample &s : batch) {
                for (std::uint32_t t = 0; t < s.indices.size(); ++t) {
                    for (const std::uint64_t idx : s.indices[t]) {
                        const TableId table{t};
                        const EvIndex index{idx};
                        if (!seen.insert(evKey(table, index)).second) {
                            ++coalesced;
                            continue;
                        }
                        if (!ref.lookup(table, index, nullptr))
                            ref.fill(table, index, {});
                    }
                }
            }
        }
        const EvCache &cache = *device.evCache();
        EXPECT_EQ(device.embeddingEngine().coalescedLookups().value(),
                  coalesced);
        expectSameCounters(cache, ref, -1);
        EXPECT_GT(ref.hits, 0u);
        EXPECT_GT(ref.evictions, 0u);
    }
}

} // namespace
} // namespace rmssd::engine
