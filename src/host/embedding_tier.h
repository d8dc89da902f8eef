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
 *
 * Stored rows: like a DRAM row cache, the tier pools a served slice
 * from the rows it stores. A resident row's slot comes from the same
 * probe that answers its residency (a whole table's slot is the row
 * itself); its bytes are filled from EmbeddingTableSpec::fillRows the
 * first time a functional intercept reads it, and every later read
 * pools the stored floats. A timing-only tier never allocates row
 * storage, so a full-size or 2^18-row timing run costs no DRAM here.
 */

#ifndef RMSSD_HOST_EMBEDDING_TIER_H
#define RMSSD_HOST_EMBEDDING_TIER_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/placement.h"
#include "model/dlrm.h"
#include "sim/flat_map.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::host {

// DRAM service-time model of the tier (strong-typed, mirroring
// host::CpuCosts). The tier path is leaner than the PyTorch SLS
// operator of the DRAM baseline — no framework dispatch, wide SIMD
// pooling — so the per-row cost sits well under CpuCosts'
// slsFixedNanos while the streaming rate matches commodity DDR.

/** Fixed probe/dispatch cost per intercepted request. */
inline constexpr Nanos kTierPerRequestNanos{500};
/** Amortized DRAM random-access cost per served row. */
inline constexpr Nanos kTierPerRowNanos{2};
/** Streaming cost per served byte (0.01 ns/B = 100 GB/s). */
inline constexpr double kTierNanosPerByte = 0.01;

/** Host-DRAM embedding store in front of an InferenceDevice. */
class EmbeddingTier
{
  public:
    /**
     * @p model is the backend's *full* model (the tier sits above any
     * sharding); row bytes are synthesized from its specs, so tier
     * partials are bit-identical to flash reads of the same rows.
     */
    explicit EmbeddingTier(const model::DlrmModel &model);

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
    /** Requests intercepted. */
    const Counter &requests() const { return requests_; }

    /** Resident rows of one global table (residency gauge). */
    std::uint64_t residentRows(std::uint32_t globalTable) const;
    /** Total resident DRAM bytes. */
    Bytes residentBytes() const { return residentBytes_; }
    /**
     * Rows whose bytes a functional intercept has stored so far.
     * reachability: test-observer — read by
     * EmbeddingTier.TimingOnlyInterceptFillsNoRow and
     * EmbeddingTier.ProvisionClearsStoredRows, which check that rows
     * fill lazily, only on a functional read.
     */
    std::uint64_t storedRows() const { return storedRows_; }

    /** Register hit/miss/byte counters + per-table residency gauges. */
    void registerStats(StatsRegistry &registry,
                       const std::string &prefix) const;

    const model::DlrmModel &model() const { return model_; }

  private:
    /** TableResidency::slotOf() of a row that is not resident. */
    static constexpr std::uint64_t kNotResident = ~std::uint64_t{0};

    /** Residency of one global table, and its stored rows. */
    struct TableResidency
    {
        bool whole = false;
        /** Partially resident rows: row -> slot, slots dense from 0. */
        FlatMap<std::uint32_t> slots;
        /**
         * Stored row floats, slot-major (one dim-wide row per slot);
         * allocated uninitialized by the first functional read.
         */
        std::unique_ptr<float[]> values;
        /** Whether each slot's row has been filled into values. */
        std::vector<bool> filled;

        /** Slot of @p row, or kNotResident. */
        std::uint64_t
        slotOf(std::uint64_t row) const
        {
            if (whole)
                return row;
            const std::uint32_t *slot = slots.find(row);
            return slot == nullptr ? kNotResident : *slot;
        }
    };

    /**
     * Fold-left of table @p local's rows @p rows, whose slots in
     * @p table are slotBuf_, over the stored rows; fills each row on
     * its first read.
     */
    model::Vector poolStored(TableResidency &table, std::uint32_t local,
                             std::span<const std::uint64_t> rows);

    const model::DlrmModel &model_;
    /** Indexed by global table id. */
    std::vector<TableResidency> tables_;
    std::uint64_t residentRows_ = 0;
    Bytes residentBytes_;
    std::uint64_t storedRows_ = 0;
    /** Slots of the slice being intercepted (reused per slice). */
    std::vector<std::uint64_t> slotBuf_;

    Counter sliceHits_;
    Counter sliceMisses_;
    Counter rowsServed_;
    Counter bytesServed_;
    Counter requests_;
};

} // namespace rmssd::host

#endif // RMSSD_HOST_EMBEDDING_TIER_H
