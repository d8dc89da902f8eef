#include "engine/embedding_engine.h"

#include <algorithm>

#include "engine/ev_sum.h"
#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::engine {

namespace {

/**
 * Start pulling a flash view's host cache lines in, so the slice's
 * reads miss in parallel before its EV sum reads them.
 */
void
prefetch(std::span<const std::uint8_t> bytes)
{
    constexpr std::size_t kLineBytes = 64;
    for (std::size_t off = 0; off < bytes.size(); off += kLineBytes)
        __builtin_prefetch(bytes.data() + off);
}

} // namespace

EmbeddingEngine::EmbeddingEngine(EvTranslator &translator, ftl::Ftl &ftl,
                                 EvCache *cache, bool coalesce)
    : translator_(translator), ftl_(ftl), cache_(cache),
      coalesce_(coalesce)
{
}

EmbeddingResult
EmbeddingEngine::run(Cycle start, std::span<const model::Sample> samples,
                     bool functional)
{
    EmbeddingResult result;
    result.startCycle = start;

    // Step 1 of Fig. 6: scan table metadata once per batch, then the
    // translation pipeline issues one read per cycle.
    Cycle issue = start + translator_.metadataScanCycles() +
                  EvTranslator::kPipelineFillCycles;

    // Coalescing state: completion cycle (and bytes, when functional)
    // of every unique (table, index) already served this micro-batch.
    if (coalesce_) {
        std::size_t batchLookups = 0;
        for (const model::Sample &sample : samples) {
            for (const auto &indices : sample.indices)
                batchLookups += indices.size();
        }
        seen_.reset(batchLookups);
    }
    if (functional)
        result.pooled.reserve(samples.size());

    Cycle lastDone = issue;
    for (const model::Sample &sample : samples) {
        // Each table's vectors pool straight into its slice of the
        // sample's output.
        model::Vector pooledSample;
        if (functional) {
            std::size_t width = 0;
            for (std::size_t t = 0; t < sample.indices.size(); ++t)
                width += translator_
                             .vectorBytes(
                                 TableId{static_cast<std::uint32_t>(t)})
                             .raw() /
                         sizeof(float);
            pooledSample.assign(width, 0.0f);
        }
        std::size_t offset = 0;
        for (std::size_t t = 0; t < sample.indices.size(); ++t) {
            const TableId tableId{static_cast<std::uint32_t>(t)};
            const std::vector<std::uint64_t> &slice = sample.indices[t];
            // The slice's bus share, once per slice rather than per read.
            const flash::VectorTransfer xfer =
                ftl_.array().vectorTransfer(translator_.vectorBytes(tableId));
            const std::uint64_t vecBytes = xfer.bytes.raw();
            const std::size_t dim = vecBytes / sizeof(float);
            const std::span<float> acc =
                functional ? std::span(pooledSample).subspan(offset, dim)
                           : std::span<float>();
            offset += dim;
            if (functional) {
                // Each flash read of the slice owns one vector of
                // filler scratch, sized before the first read, so no
                // pending view into it dangles.
                if (scratch_.size() < slice.size() * vecBytes)
                    scratch_.resize(slice.size() * vecBytes);
                pending_.clear();
            }

            Cycle tableDone = issue;
            std::uint64_t sliceReads = 0;
            for (std::size_t i = 0; i < slice.size(); ++i) {
                const EvIndex index{slice[i]};
                const std::uint64_t key = evKey(tableId, index);
                // The coalescing table's home and the cache's set both
                // come from this one hash.
                const std::uint64_t hash =
                    coalesce_ || cache_ ? splitmix64(key) : 0;
                std::span<const std::uint8_t> bytes;
                Cycle done;

                const std::size_t seenSlot =
                    coalesce_ ? seen_.probe(key, hash) : 0;
                const CoalescingTable::Entry *dup =
                    coalesce_ ? seen_.entry(seenSlot) : nullptr;
                if (dup) {
                    // Duplicate within the batch: the vector was read
                    // once already; fanning it into this sample's EV
                    // Sum costs no flash or cache access.
                    done = std::max(issue, dup->done);
                    if (functional)
                        sumNow(seen_.data(*dup), acc);
                    coalesced_.inc();
                } else {
                    const EvCache::Slot cached =
                        cache_ ? cache_->probe(tableId, key, hash)
                               : EvCache::Slot{};
                    if (cache_ &&
                        cache_->lookup(cached, key,
                                       functional ? &bytes : nullptr)) {
                        done = issue + kEvCacheHitCycles;
                        if (functional)
                            sumNow(bytes, acc);
                    } else {
                        const EvReadRequest req =
                            translator_.translate(tableId, index);
                        if (functional) {
                            const flash::VectorRead read =
                                ftl_.readVector(
                                    issue, req.lpn, req.byteInPage, xfer,
                                    std::span(scratch_).subspan(
                                        i * vecBytes, vecBytes));
                            done = read.done;
                            bytes = read.data;
                            prefetch(bytes);
                            pending_.push_back(bytes);
                        } else {
                            done = ftl_.readVector(issue, req.lpn,
                                                   req.byteInPage, xfer);
                        }
                        ++sliceReads;
                        if (cache_)
                            cache_->fill(cached, key, bytes);
                    }
                    if (coalesce_)
                        seen_.insertAt(seenSlot, key, done, bytes);
                }

                tableDone = std::max(tableDone, done);
                issue += EvTranslator::kCyclesPerIndex;
            }
            lookups_.inc(slice.size());
            flashReads_.inc(sliceReads);
            lookupBytes_.inc(sliceReads * vecBytes);
            if (functional)
                sumPending(acc);
            // fadd pipeline drains after the table's last vector.
            lastDone = std::max(lastDone, tableDone + EvSum::kDrainCycles);
        }
        if (functional)
            result.pooled.push_back(std::move(pooledSample));
    }
    result.issueEndCycle = issue;
    result.doneCycle = lastDone;
    return result;
}

void
EmbeddingEngine::sumPending(std::span<float> acc)
{
    for (const std::span<const std::uint8_t> bytes : pending_)
        EvSum::accumulateBytes(bytes, acc);
    pending_.clear();
}

void
EmbeddingEngine::sumNow(std::span<const std::uint8_t> bytes,
                        std::span<float> acc)
{
    // The slice's earlier flash reads are added first: each element
    // still folds its rows in lookup order.
    sumPending(acc);
    EvSum::accumulateBytes(bytes, acc);
}

double
EmbeddingEngine::steadyStateCyclesPerRead(
    const flash::Geometry &geometry, const flash::NandTiming &timing,
    Bytes evBytes)
{
    // Per channel, a vector read occupies its die for the flush and
    // the shared bus for the transfer; with D dies the flushes
    // overlap, so the channel sustains one read per
    // max(flush/D, transfer) cycles. Channels run in parallel.
    const double flushShare =
        static_cast<double>(timing.flushCycles().raw()) /
        static_cast<double>(geometry.diesPerChannel);
    const double busShare =
        static_cast<double>(timing.transferCycles(evBytes).raw());
    return std::max(flushShare, busShare) /
           static_cast<double>(geometry.numChannels);
}

double
EmbeddingEngine::effectiveCyclesPerRead(
    const flash::Geometry &geometry, const flash::NandTiming &timing,
    Bytes evBytes, double hitRatio)
{
    const double base =
        steadyStateCyclesPerRead(geometry, timing, evBytes);
    const double missFraction =
        std::clamp(1.0 - hitRatio, 0.0, 1.0);
    // Hits stream out of the cache at the translator's issue rate, so
    // the device never sustains more than one read per index cycle.
    return std::max(
        static_cast<double>(EvTranslator::kCyclesPerIndex.raw()),
        missFraction * base);
}

} // namespace rmssd::engine
