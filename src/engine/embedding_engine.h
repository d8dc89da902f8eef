/**
 * @file
 * Embedding Lookup Engine (Section IV-B): the two-stage vector-grained
 * read pipeline. Stage one (device): EV Translator resolves indices
 * and EV Sum pools returned vectors; stage two (flash channel):
 * EV-FMCs fetch exactly EVsize bytes per lookup, striped across all
 * channels and dies.
 *
 * Two optional reuse mechanisms sit between the stages (both off by
 * default, keeping the paper-faithful locality-insensitive device):
 *  - intra-batch coalescing: duplicate (table, index) pairs of one
 *    micro-batch are folded so each unique vector is read once and
 *    fanned out to the EV Sum of every sample referencing it;
 *  - a device-side EV cache (EvCache): unique lookups probe a small
 *    set-associative SRAM cache before the EV-FMC, paying a short hit
 *    latency instead of the full CEV flash read.
 *
 * The host-side lookup path allocates nothing per lookup and copies
 * no vector out of flash: the coalescing table, the filler scratch and
 * the pending-view list are engine members reused across
 * micro-batches, and each sample's pooled vector is summed straight
 * into its output. A flash read hands back a view into the stored
 * page; the engine prefetches it at issue and sums a table slice's
 * pending flash views, in order, at the end of the slice. A cache hit
 * or coalesced duplicate first sums the pending views and then its
 * own, so each element still folds its rows in lookup order, and only
 * views into the backing store (or the filler scratch) are ever
 * pending: never one into an EvCache line or the coalescing arena,
 * which a later fill or insert may overwrite (DESIGN.md §6).
 */

#ifndef RMSSD_ENGINE_EMBEDDING_ENGINE_H
#define RMSSD_ENGINE_EMBEDDING_ENGINE_H

#include <cstdint>
#include <span>
#include <vector>

#include "engine/coalescing_table.h"
#include "engine/ev_cache.h"
#include "engine/ev_translator.h"
#include "ftl/ftl.h"
#include "model/dlrm.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::engine {

/** Outcome of one micro-batch of embedding lookups. */
struct EmbeddingResult
{
    Cycle startCycle;
    Cycle doneCycle;
    /** Cycle the translator finished issuing this batch's reads. */
    Cycle issueEndCycle;
    /** Per-sample pooled vectors (numTables*dim); empty if timing-only. */
    std::vector<model::Vector> pooled;

    /**
     * reachability: test-observer — read by
     * EmbeddingEngine.TimingCoversAtLeastOneVectorRead and
     * EvCacheTiming.WarmBatchFinishesEarlier, which time one batch.
     */
    Cycle elapsed() const { return doneCycle - startCycle; }
};

/** The in-storage embedding lookup engine. */
class EmbeddingEngine
{
  public:
    /**
     * @param cache optional device-side EV cache probed by unique
     *        lookups (nullptr = no cache, the paper's device)
     * @param coalesce fold duplicate (table, index) pairs of a
     *        micro-batch into one flash/cache access
     */
    EmbeddingEngine(EvTranslator &translator, ftl::Ftl &ftl,
                    EvCache *cache = nullptr, bool coalesce = false);

    /**
     * Look up and pool all indices of @p samples.
     * @param start cycle the batch's indices are available on-device
     * @param functional when true, vectors are actually read and
     *        pooled; when false only timing is computed
     */
    EmbeddingResult run(Cycle start,
                        std::span<const model::Sample> samples,
                        bool functional);

    /**
     * Analytic steady-state device-wide cycles per vector read: the
     * bEV of Eq. 1a, used by the kernel search to estimate Temb.
     */
    static double steadyStateCyclesPerRead(
        const flash::Geometry &geometry,
        const flash::NandTiming &timing, Bytes evBytes);

    /**
     * Cache-aware variant: with a fraction @p hitRatio of lookups
     * served by the EV cache, only the misses occupy flash, so the
     * sustained device-wide cycles per read shrink to
     * (1 - hitRatio) * bEV, floored at the translator's one-index-per-
     * cycle issue rate. Feeds the kernel search so the MLP kernels are
     * sized against the cache-accelerated T_emb.
     */
    static double effectiveCyclesPerRead(
        const flash::Geometry &geometry,
        const flash::NandTiming &timing, Bytes evBytes,
        double hitRatio);

    const Counter &lookups() const { return lookups_; }
    const Counter &lookupBytes() const { return lookupBytes_; }
    /** Lookups that went all the way to flash (misses). */
    const Counter &flashReads() const { return flashReads_; }
    /** Lookups folded by intra-batch coalescing. */
    const Counter &coalescedLookups() const { return coalesced_; }

    /**
     * reachability: test-observer — read by
     * Placement.PlanHotPagesAggregatesRowsToPages and
     * SteadyStateRate.AnalyticFormulaTracksSimulation, which translate
     * rows as the engine does.
     */
    EvTranslator &translator() { return translator_; }
    /**
     * The device-side EV cache; nullptr when disabled.
     * reachability: test-observer — read by
     * EmbeddingEngineDifferential.RandomCachedCoalescedBatchesAreBitExact,
     * which compares cache state with its reference.
     */
    const EvCache *cache() const { return cache_; }

  private:
    EvTranslator &translator_;
    ftl::Ftl &ftl_;
    EvCache *cache_;
    bool coalesce_;

    /** Add the slice's pending flash views into @p acc, in order. */
    void sumPending(std::span<float> acc);
    /** Add the pending views, then @p bytes (a cache or coalesced
     *  view, which must not outlive this call) into @p acc. */
    void sumNow(std::span<const std::uint8_t> bytes, std::span<float> acc);

    /** Unique vectors of the running micro-batch (coalescing only). */
    CoalescingTable seen_;
    /** Filler bytes of unwritten pages: one vector per slice lookup. */
    std::vector<std::uint8_t> scratch_;
    /** Flash views of the running slice not yet summed. */
    std::vector<std::span<const std::uint8_t>> pending_;

    Counter lookups_;
    Counter lookupBytes_;
    Counter flashReads_;
    Counter coalesced_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_EMBEDDING_ENGINE_H
