/**
 * @file
 * Host-DRAM embedding tier: hotness-driven DRAM/SSD placement in
 * front of an inference device.
 *
 * Production DLRM fleets split embeddings across host DRAM and SSD by
 * hotness — serving the Zipf head from DRAM is the biggest tail-
 * latency lever once the device-side cache saturates. The tier holds
 * an engine::TierPlan's rows (whole small-hot tables plus the top-K
 * rows of large tables), intercepts each request's indices before
 * they reach the device, serves what it can at a modeled DRAM cost
 * and forwards only the residual indices — shrinking input DMA,
 * EV-translator issue work and flash reads on the hot path.
 *
 * Byte-exactness: pooled floats are a fold-left sum in lookup order,
 * which is NOT associative — splitting one (sample, table) slice's
 * fold between DRAM and flash and adding the partials would change
 * low-order bits. The tier therefore intercepts at slice granularity,
 * all-or-nothing: a slice is served only when *every* looked-up row
 * is resident, and its pooled partial then replaces the device's
 * (empty-slice, all-zero) output as a placement copy — exactly the
 * mechanism that makes the cluster's scatter/gather byte-identical to
 * one device. Slices with any non-resident lookup forward whole.
 */

#ifndef RMSSD_HOST_EMBEDDING_TIER_H
#define RMSSD_HOST_EMBEDDING_TIER_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/placement.h"
#include "model/dlrm.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::host {

/**
 * DRAM service-time model of the tier (strong-typed, mirroring
 * host::CpuCosts). The tier path is leaner than the PyTorch SLS
 * operator of the DRAM baseline — no framework dispatch, wide SIMD
 * pooling — so the per-row cost sits well under CpuCosts'
 * slsFixedNanos while the streaming rate matches commodity DDR.
 */
struct TierTiming
{
    /** Fixed probe/dispatch cost per intercepted request. */
    Nanos perRequestNanos{500};
    /** Amortized DRAM random-access cost per served row. */
    Nanos perRowNanos{2};
    /** Streaming cost per served byte (0.01 ns/B = 100 GB/s). */
    double nanosPerByte = 0.01;
};

/** Host-DRAM embedding store in front of an InferenceDevice. */
class EmbeddingTier
{
  public:
    /**
     * @p model is the backend's *full* model (the tier sits above any
     * sharding); row bytes are synthesized from its specs, so tier
     * partials are bit-identical to flash reads of the same rows.
     */
    explicit EmbeddingTier(const model::DlrmModel &model,
                           const TierTiming &timing = {});

    /** Load a planned residency (replaces any previous plan). */
    void provision(const engine::TierPlan &plan);

    /** Whether any row is resident (an empty tier intercepts nothing). */
    bool active() const { return residentRows_ > 0; }

    /** Whether (global table, row) is tier-resident. */
    bool resident(std::uint32_t globalTable, std::uint64_t row) const;

    /** One (sample, table) slice served wholly from the tier. */
    struct ServedSlice
    {
        std::uint32_t table = 0; //!< local table position in the sample
        /** Pooled partial (fold-left over the slice); empty when the
         *  intercept ran timing-only. */
        model::Vector pooled;
    };

    /** Result of intercepting one request. */
    struct Intercept
    {
        /** Forwarded samples: served slices emptied, the rest intact. */
        std::vector<model::Sample> residual;
        /** Served slices per sample (same indexing as residual). */
        std::vector<std::vector<ServedSlice>> served;
        /** Host DRAM time consumed serving the resident slices. */
        Nanos hostNanos;
        std::uint64_t servedSlices = 0;
        std::uint64_t servedRows = 0;
        Bytes servedBytes;
        /** Indices remaining in residual (actual input DMA payload). */
        std::uint64_t residualIndices = 0;
    };

    /**
     * Intercept a request: serve every fully-resident slice at DRAM
     * cost, forward the rest. With @p functional the served partials
     * carry pooled floats (bit-identical to the device's fold);
     * timing-only runs track counts and bytes without materializing
     * data.
     */
    Intercept intercept(std::span<const model::Sample> samples,
                        bool functional);

    /** Slices served wholly from DRAM. */
    const Counter &sliceHits() const { return sliceHits_; }
    /** Slices forwarded to the device (>= 1 non-resident lookup). */
    const Counter &sliceMisses() const { return sliceMisses_; }
    /** Rows served from DRAM. */
    const Counter &rowsServed() const { return rowsServed_; }
    /** Embedding bytes served from DRAM. */
    const Counter &bytesServed() const { return bytesServed_; }
    /** Requests intercepted. */
    const Counter &requests() const { return requests_; }

    /** Resident rows of one global table (residency gauge). */
    std::uint64_t residentRows(std::uint32_t globalTable) const;
    /** Total resident DRAM bytes. */
    Bytes residentBytes() const { return residentBytes_; }

    /** Register hit/miss/byte counters + per-table residency gauges. */
    void registerStats(StatsRegistry &registry,
                       const std::string &prefix) const;

    const model::DlrmModel &model() const { return model_; }
    const TierTiming &timing() const { return timing_; }

  private:
    /** Residency of one global table. */
    struct TableResidency
    {
        bool whole = false;
        /** Resident row ids, sorted and unique (binary-searched). */
        std::vector<std::uint64_t> rows;

        bool contains(std::uint64_t row) const;
    };

    const model::DlrmModel &model_;
    TierTiming timing_;
    /** Indexed by global table id. */
    std::vector<TableResidency> tables_;
    std::uint64_t residentRows_ = 0;
    Bytes residentBytes_;

    Counter sliceHits_;
    Counter sliceMisses_;
    Counter rowsServed_;
    Counter bytesServed_;
    Counter requests_;
};

} // namespace rmssd::host

#endif // RMSSD_HOST_EMBEDDING_TIER_H
