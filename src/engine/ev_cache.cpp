#include "engine/ev_cache.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::engine {

std::vector<EvCachePartition>
planTablePartitions(std::uint32_t numSets, std::span<const double> shares)
{
    RMSSD_ASSERT(!shares.empty(), "empty table shares");
    RMSSD_ASSERT(numSets >= shares.size(),
                 "fewer cache sets than tables to partition");
    const double total =
        std::accumulate(shares.begin(), shares.end(), 0.0);
    RMSSD_ASSERT(total > 0.0, "table shares sum to zero");

    // Largest-remainder apportionment with a one-set floor per table:
    // reserve shares.size() sets for the floors, apportion the rest.
    const auto tables = static_cast<std::uint32_t>(shares.size());
    const std::uint32_t spare = numSets - tables;
    std::vector<std::uint32_t> quota(tables, 1);
    std::vector<std::pair<double, std::uint32_t>> remainders;
    remainders.reserve(tables);
    std::uint32_t assigned = 0;
    for (std::uint32_t t = 0; t < tables; ++t) {
        RMSSD_ASSERT(shares[t] > 0.0, "non-positive table share");
        const double exact = spare * shares[t] / total;
        const auto whole = static_cast<std::uint32_t>(exact);
        quota[t] += whole;
        assigned += whole;
        remainders.emplace_back(exact - whole, t);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto &a, const auto &b) {
                  // Ties broken by table id for determinism.
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    for (std::uint32_t i = 0; assigned < spare; ++i, ++assigned)
        ++quota[remainders[i].second];

    std::vector<EvCachePartition> partitions(tables);
    std::uint32_t next = 0;
    for (std::uint32_t t = 0; t < tables; ++t) {
        partitions[t] = EvCachePartition{next, quota[t]};
        next += quota[t];
    }
    RMSSD_ASSERT(next == numSets, "partition plan does not cover sets");
    return partitions;
}

EvCache::EvCache(const EvCacheConfig &config, Bytes lineBytes)
    : lineBytes_(lineBytes), ways_(config.ways)
{
    RMSSD_ASSERT(lineBytes_ > Bytes{}, "zero EV cache line size");
    RMSSD_ASSERT(ways_ > 0, "zero EV cache associativity");
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
            lines * kSketchCountersPerLine, lines * kSketchSamplePerLine);
    }
}

EvCache::Slot
EvCache::probe(TableId tableId, std::uint64_t key, std::uint64_t hash) const
{
    std::size_t set;
    if (partitions_.empty()) {
        set = static_cast<std::size_t>(hash % numSets_);
    } else {
        RMSSD_ASSERT(tableId.raw() < partitions_.size(),
                     "table id outside partition plan");
        const EvCachePartition &p = partitions_[tableId.raw()];
        set = p.firstSet + static_cast<std::size_t>(hash % p.numSets);
    }
    const std::size_t base = set * ways_;
    return Slot{base, find(base, ways_, key), hash};
}

std::size_t
EvCache::find(std::size_t first, std::size_t count,
              std::uint64_t key) const
{
    for (std::size_t line = first; line < first + count; ++line) {
        if (lines_[line].key == key && lines_[line].lastUse != 0)
            return line;
    }
    return kNoLine;
}

std::size_t
EvCache::lruLine(std::size_t first, std::size_t count) const
{
    // Free lines carry stamp 0, so the first of them wins before any
    // valid line is considered for eviction. Strict "<" keeps the
    // first of equal stamps; the selects compile to cmovs, since the
    // stamps' order is unpredictable.
    std::size_t victim = first;
    std::uint64_t oldest = lines_[first].lastUse;
    for (std::size_t line = first + 1; line < first + count; ++line) {
        const std::uint64_t stamp = lines_[line].lastUse;
        const bool older = stamp < oldest;
        victim = older ? line : victim;
        oldest = older ? stamp : oldest;
    }
    return victim;
}

std::span<const std::uint8_t>
EvCache::lineData(std::size_t line) const
{
    if (!hasData(line))
        return {};
    return std::span(data_).subspan(line * lineBytes_.raw(),
                                    lineBytes_.raw());
}

void
EvCache::install(std::size_t line, std::uint64_t key,
                 std::span<const std::uint8_t> data)
{
    lines_[line] = Line{key, ++tick_};
    if (data.empty()) {
        if (!hasData_.empty())
            hasData_[line] = 0;
        return;
    }
    RMSSD_ASSERT(data.size() == lineBytes_.raw(),
                 "EV cache fill is not one line long");
    // Line bytes appear with the first real fill: a timing-only run
    // never holds any.
    if (data_.empty()) {
        hasData_.assign(lines_.size(), 0);
        data_.resize(lines_.size() * lineBytes_.raw());
    }
    hasData_[line] = 1;
    std::memcpy(data_.data() + line * lineBytes_.raw(), data.data(),
                data.size());
}

bool
EvCache::lookup(const Slot &slot, std::uint64_t key,
                std::span<const std::uint8_t> *out)
{
    if (sketch_)
        sketch_->record(key, slot.hash);
    // A functional caller needs the bytes; a line installed by a
    // timing-only run has none, so it cannot serve the hit.
    if (slot.line == kNoLine || (out && !hasData(slot.line))) {
        misses_.inc();
        return false;
    }
    lines_[slot.line].lastUse = ++tick_;
    hits_.inc();
    if (out)
        *out = lineData(slot.line);
    return true;
}

void
EvCache::fill(const Slot &slot, std::uint64_t key,
              std::span<const std::uint8_t> data)
{
    // Refresh an existing line, else take the first free way, else
    // the least recently used one.
    std::size_t victim = slot.line;
    if (victim == kNoLine) {
        victim = lruLine(slot.base, ways_);
        if (lines_[victim].lastUse != 0) {
            // TinyLFU admission: displacing a valid line must be
            // earned — the candidate's estimated frequency has to beat
            // the victim's, otherwise the one-hit cold tail would keep
            // flushing hot lines exactly as under plain LRU.
            if (sketch_ && sketch_->estimate(key, slot.hash) <=
                               sketch_->estimate(lines_[victim].key)) {
                admissionRejects_.inc();
                return;
            }
            evictions_.inc();
        }
    }
    install(victim, key, data);
    fills_.inc();
}

bool
EvCache::lookup(TableId tableId, EvIndex index,
                std::span<const std::uint8_t> *out)
{
    const std::uint64_t key = evKey(tableId, index);
    return lookup(probe(tableId, key, splitmix64(key)), key, out);
}

void
EvCache::fill(TableId tableId, EvIndex index,
              std::span<const std::uint8_t> data)
{
    const std::uint64_t key = evKey(tableId, index);
    fill(probe(tableId, key, splitmix64(key)), key, data);
}

bool
EvCache::contains(TableId tableId, EvIndex index) const
{
    const std::uint64_t key = evKey(tableId, index);
    return probe(tableId, key, splitmix64(key)).line != kNoLine;
}

} // namespace rmssd::engine
