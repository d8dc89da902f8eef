/**
 * @file
 * RM-SSD: the complete in-storage recommendation inference device
 * (Fig. 5) — flash array + FTL + NVMe/MMIO/DMA front-ends + Embedding
 * Lookup Engine + MLP Acceleration Engine + system-level micro-batch
 * pipelining (Section IV-D).
 *
 * The device is simultaneously timed (micro-batches stream through the
 * engines with real flash contention) and functional (with loaded
 * tables, outputs equal the reference DLRM inference).
 */

#ifndef RMSSD_ENGINE_RM_SSD_H
#define RMSSD_ENGINE_RM_SSD_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/embedding_engine.h"
#include "engine/ev_translator.h"
#include "engine/inference_device.h"
#include "engine/kernel_search.h"
#include "engine/mlp_engine.h"
#include "engine/pipelined_device.h"
#include "engine/placement.h"
#include "flash/flash_array.h"
#include "ftl/freq_mapping.h"
#include "ftl/ftl.h"
#include "host/embedding_tier.h"
#include "model/dlrm.h"
#include "nvme/dma.h"
#include "nvme/mmio.h"
#include "nvme/nvme.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rmssd::engine {

/** How the MLP engine is configured. */
enum class EngineVariant : std::uint8_t
{
    /** Full RM-SSD: decomposition + composition + kernel search. */
    Searched,
    /** Default kernels (16x16), decomposition + composition kept. */
    DefaultKernels,
    /** MLP-naive: 16x16 kernels, no decomposition, no composition. */
    Naive,
    /** Embedding Lookup Engine only; MLP stays on the host. */
    EmbeddingOnly,
};

/**
 * Frequency-aware flash data mapping (off by default: the linear
 * layout keeps every existing configuration bit-identical). When
 * enabled the device swaps ftl::LinearMapping for
 * ftl::FrequencyMapping: hot pages stripe round-robin across
 * channels x dies, cold pages stay packed, and a background
 * migration pass re-stripes when the online heat estimate drifts.
 * When enabled, RmSsd's constructor fatal()s unless
 * 1 <= hotPageCount <= the device's page count and
 * migrationDriftThreshold is in [0, 1].
 */
struct PlacementOptions
{
    bool enabled = false;
    /**
     * Hot-tier size in flash pages. Physical pages 0..hotPageCount-1
     * stripe perfectly over (channel, die) pairs, so the tier should
     * cover the workload's hot set but stay small enough to keep the
     * mapping tables sparse.
     */
    std::uint64_t hotPageCount = 4096;
    /**
     * Fraction of the observed hot set that must live outside the
     * hot tier before a migration pass fires. 0 migrates on any
     * drift.
     */
    double migrationDriftThreshold = 0.0;
    /** EV reads a drift check needs before it may trust the sketch. */
    std::uint64_t minObservedReads = 2048;
    /**
     * Relocation budget per migration pass. Each swap costs two page
     * reads plus two page programs of timed background traffic, so
     * the bound caps interference with foreground reads.
     */
    std::uint32_t maxSwapsPerPass = 32;
};

/** Device construction options. */
struct RmSsdOptions
{
    flash::Geometry geometry = flash::tableIIGeometry();
    flash::NandTiming timing = flash::tableIITiming();
    SearchConfig search = {};
    EngineVariant variant = EngineVariant::Searched;
    /**
     * System-level pipeline (Section IV-D): the host pre-sends the
     * next request's inputs during the current request's compute, so
     * back-to-back infer() calls overlap one-deep. Disable for
     * synchronous hosts that block on results (e.g. EMB-VectorSum's
     * host-side MLP).
     */
    bool presend = true;
    /** Load real table bytes into flash (small tables only). */
    bool functional = false;
    /** Split table allocations to exercise multi-extent translation. */
    Sectors maxExtentSectors;
    /**
     * Device-side EV cache in front of the EV-FMC read path. Off by
     * default: the paper-faithful RM-SSD has no reuse path and is
     * locality-insensitive (Fig. 14). When enabled, the kernel search
     * sizes the MLP against the cache-accelerated T_emb using
     * evCache.expectedHitRatio.
     */
    EvCacheConfig evCache = {};
    /** Fold duplicate (table, index) pairs within a micro-batch. */
    bool coalesceIndices = false;
    /** Frequency-aware flash data mapping (default: linear layout). */
    PlacementOptions placement = {};
};

/** One issued-but-not-retired RmSsd request (async pipeline). */
struct RmSsdRequest
{
    RequestId id = 0;
    Cycle t0;          //!< host issue time (request arrival)
    Cycle inputsReady; //!< indices + dense inputs DMA'd in
    Cycle lastDone;    //!< last micro-batch through the engines
    Bytes resultBytes; //!< result payload awaiting readback
    std::vector<float> outputs;
};

/**
 * The RM-SSD device. Requests pipeline through the shared async queue
 * (PipelinedDevice): the issue stage runs at submit — inputs DMA in
 * and the micro-batches are scheduled onto the engine occupancy tracks
 * (embedding issue port, bottom/top MLP units), overlapping with up to
 * maxInflight()-1 older requests still draining through the MLP — and
 * the retire stage (result readback + host presend bookkeeping) runs
 * when the request leaves the queue. A request is done once its last
 * micro-batch is through the engines.
 */
class RmSsd : public PipelinedDevice<RmSsdRequest>
{
  public:
    RmSsd(const model::ModelConfig &config, const RmSsdOptions &options);

    /**
     * Whether @p config's embedding tables fit @p geometry's capacity.
     * The constructor is fatal when they do not; this is its check,
     * free of the u64 product ModelConfig::embeddingBytes() wraps on.
     */
    static bool tablesFit(const model::ModelConfig &config,
                          const flash::Geometry &geometry);

    /** Allocate, register and (optionally) load all embedding tables. */
    void loadTables();

    /**
     * Like loadTables(), but the table bytes are programmed through
     * the timed flash write path (RM_create_table's block-I/O flow).
     * @return the cycle the last program completes — the table
     *         provisioning time
     */
    Cycle loadTablesTimed();

    /**
     * Register one table at an externally chosen layout (the runtime
     * API's RM_open_table path). Data is written when the device is
     * functional, one FTL write per flash page. Inference unlocks once
     * all tables are registered. fatal()s unless every extent starts
     * and ends on a flash page boundary.
     */
    void registerTable(TableId tableId,
                       const ftl::ExtentList &extents);

    const MlpPlan &plan() const { return searchResult_.plan; }
    const SearchResult &searchResult() const { return searchResult_; }

    /**
     * Hit ratio the current plan was sized against (starts at
     * evCache.expectedHitRatio; updated by replanIfDrifted). 0 when
     * the cache is off.
     */
    double plannedHitRatio() const;

    /**
     * Adaptive re-planning (feedback loop): compare the hit ratio
     * measured since the previous call — a fresh window, so old
     * history cannot mask drift — against the ratio the current plan
     * assumed. When the drift exceeds @p threshold, re-run the kernel
     * search with the observed ratio so the MLP kernels re-balance
     * against the real T_emb' (Eq. 2 with the measured bEV).
     * @return true when the device re-planned
     */
    bool replanIfDrifted(double threshold) override;

    /**
     * Offline placement planning: aggregate @p rows to page heat and
     * re-stripe the hot tier now, untimed (page bytes move only on a
     * functional device) — the operator's provisioning-time layout
     * pass. Only meaningful with placement.enabled; call after
     * loadTables().
     */
    void planPlacement(std::span<const RowHeat> rows);

    /**
     * Background migration (see PlacementOptions): when enough reads
     * were observed and the online hot set drifted off the hot tier,
     * relocate up to maxSwapsPerPass pages through the timed flash
     * path and reset the observation window.
     * @return pages migrated by this pass
     */
    std::uint64_t migrateIfDrifted() override;

    std::uint64_t migratedPageCount() const override
    {
        return migratedPages_.value();
    }

    /** Pages relocated (hot page + displaced partner count as 2). */
    const Counter &migratedPages() const { return migratedPages_; }

    /**
     * Charge input DMA by the actual per-sample index counts instead
     * of the config formula (batch * lookupsPerSample). The cluster
     * layer sets this on its shards when a tier runs above the router,
     * so residual requests pay for the indices they carry — off by
     * default to keep legacy accounting bit-identical.
     */
    void setChargeActualIndexBytes(bool on) override
    {
        chargeActualIndexBytes_ = on;
    }

    /** Number of adaptive re-plans performed. */
    const Counter &replans() const { return replans_; }
    const model::DlrmModel &model() const override { return model_; }
    flash::FlashArray &flash() { return *flash_; }
    const flash::FlashArray &flash() const { return *flash_; }
    ftl::Ftl &ftl() { return *ftl_; }
    nvme::NvmeController &nvme() { return *nvme_; }
    /**
     * The device's embedding engine.
     * reachability: test-observer — the engine that
     * EmbeddingEngineDifferential.RandomCachedCoalescedBatchesAreBitExact,
     * SweepEvSizes/SteadyStateRate.AnalyticFormulaTracksSimulation and
     * the EvCache device tests run and read inside a fully built
     * device.
     */
    EmbeddingEngine &embeddingEngine() { return *embeddingEngine_; }
    /**
     * Device-side EV cache; nullptr when the option is off.
     * reachability: test-observer — read by
     * EvCacheHitRatio.TracksLocalityKTraceEstimate and
     * TinyLfuAdmission.PooledOutputsBitIdentical.
     */
    const EvCache *evCache() const { return evCache_.get(); }

    /** Host bytes read from the device per inference accounting. */
    const Counter &hostBytesRead() const override
    {
        return hostBytesRead_;
    }
    /** Host bytes written to the device (indices + dense inputs). */
    const Counter &hostBytesWritten() const override
    {
        return hostBytesWritten_;
    }
    const Counter &inferences() const { return inferences_; }

    /** Current device clock (advances across infer calls). */
    Cycle deviceNow() const override { return deviceNow_; }

    /** Completion cycle of the most recent request. */
    Cycle lastCompletion() const override { return lastCompletion_; }

    /** Samples per micro-batch of the planned pipeline. */
    std::uint32_t pipelineMicroBatch() const override
    {
        return searchResult_.plan.microBatch;
    }

    bool hasEvCache() const override { return evCache_ != nullptr; }
    std::uint64_t cacheHits() const override
    {
        return evCache_ ? evCache_->hits().value() : 0;
    }
    std::uint64_t cacheMisses() const override
    {
        return evCache_ ? evCache_->misses().value() : 0;
    }
    std::uint64_t replanCount() const override
    {
        return replans_.value();
    }

    /**
     * Account host-side work between requests (e.g. the host MLP of
     * the EMB-VectorSum configuration): the next request cannot be
     * issued before the host finishes.
     */
    void advanceHostClock(Nanos hostNanos) override;

    /**
     * Pull the device clock forward to absolute cycle @p cycle (never
     * backward). The cluster layer uses this to synchronize shard
     * clocks to a request's scatter time.
     */
    void advanceClockTo(Cycle cycle);

    /** Idle the device: clears all timing state (not the counters). */
    void resetTiming() override;

    /**
     * Register every device counter under @p prefix (gem5-style
     * stats dump support).
     */
    void registerStats(StatsRegistry &registry,
                       const std::string &prefix = "rmssd")
        const override;

  private:
    /** Timing of one micro-batch's MLP stages given its read time. */
    struct MicroBatchDone
    {
        Cycle done;
        Cycle issueEnd;
    };
    MicroBatchDone runMicroBatch(
        Cycle inputsReady, std::span<const model::Sample> samples,
        std::vector<float> *outputs,
        std::span<const std::vector<host::EmbeddingTier::ServedSlice>>
            served = {});

    /**
     * Issue stage: MMIO doorbell, input DMA and the micro-batch
     * pipeline. With a host tier, @p icpt's served partials merge into
     * the micro-batch results and its byte counts shape the DMA
     * accounting.
     */
    RmSsdRequest issue(std::span<const model::Sample> samples,
                       host::EmbeddingTier::Intercept *icpt) override;
    Cycle readyCycle(const RmSsdRequest &request) const override
    {
        return request.lastDone;
    }
    /** Retire stage: result readback + presend clock bookkeeping. */
    InferenceOutcome retire(RmSsdRequest request) override;

    /** (Re)build searchResult_ for the variant at the given bEV. */
    void buildPlan(double readCyclesPerVector);

    /** Mapping matching options.placement (linear or frequency). */
    static std::unique_ptr<ftl::Mapping>
    makeMapping(const RmSsdOptions &options);

    /**
     * Execute planned relocations: per swap, the page-byte copy
     * (functional devices only; a timing-only device keeps no bytes to
     * move), the timed flash reads and programs (when @p timed), then
     * the mapping commit.
     * @return pages moved (2 per swap)
     */
    std::uint64_t
    applySwaps(std::span<const ftl::FrequencyMapping::Swap> swaps,
               bool timed);

    model::ModelConfig config_;
    RmSsdOptions options_;
    model::DlrmModel model_;

    std::unique_ptr<flash::FlashArray> flash_;
    std::unique_ptr<ftl::Ftl> ftl_;
    std::unique_ptr<nvme::NvmeController> nvme_;
    nvme::MmioManager mmio_;
    nvme::DmaEngine dma_;
    std::unique_ptr<EvTranslator> translator_;
    std::unique_ptr<EvCache> evCache_;
    std::unique_ptr<EmbeddingEngine> embeddingEngine_;
    /** Borrowed from ftl_; nullptr when placement is off. */
    ftl::FrequencyMapping *freqMapping_ = nullptr;
    bool chargeActualIndexBytes_ = false;

    SearchResult searchResult_;
    bool tablesLoaded_ = false;
    double plannedHitRatio_ = 0.0;
    /** Cache-counter snapshots delimiting the current drift window. */
    std::uint64_t windowHitsBase_ = 0;
    std::uint64_t windowMissesBase_ = 0;

    Cycle deviceNow_;
    Cycle lastCompletion_;
    Cycle secondLastCompletion_;
    Cycle bottomUnitFree_;
    Cycle topUnitFree_;
    /**
     * Embedding-engine issue port occupancy across requests. Only
     * enforced at maxInflight() > 1: the depth-1 pipeline already
     * serializes requests through the host, and the blocking path
     * never applied this bound (bit-for-bit compatibility).
     */
    Cycle embIssueFree_;

    Counter hostBytesRead_;
    Counter hostBytesWritten_;
    Counter inferences_;
    Counter replans_;
    Counter migrationPasses_;
    Counter migratedPages_;
    /** Per-engine occupancy (utilization = busy / wall cycles). */
    Counter embIssueBusy_;
    Counter mlpBottomBusy_;
    Counter mlpTopBusy_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_RM_SSD_H
