#include "engine/rm_ssd.h"

#include <algorithm>
#include <cmath>

#include "ftl/extent.h"
#include "sim/log.h"

namespace rmssd::engine {

namespace {

/** fatal() unless @p placement describes a usable hot tier. */
void
validatePlacement(const PlacementOptions &placement,
                  std::uint64_t totalPages)
{
    if (placement.hotPageCount < 1 || placement.hotPageCount > totalPages)
        fatal("placement.hotPageCount is %llu; it must be in [1, %llu] "
              "(the device's page count)",
              static_cast<unsigned long long>(placement.hotPageCount),
              static_cast<unsigned long long>(totalPages));
    // Written so that NaN fails too.
    const double threshold = placement.migrationDriftThreshold;
    if (!(threshold >= 0.0 && threshold <= 1.0))
        fatal("placement.migrationDriftThreshold is %g; it must be a "
              "fraction in [0, 1]",
              threshold);
}

/**
 * Call @p visit(lba, firstRow, rows) for each flash page of a table
 * laid out over page-aligned @p extents that holds rows, in row order.
 * Every page holds whole rows (RmSsd's constructor checks that vectors
 * tile a page); only the table's last page may hold fewer than a
 * page's worth.
 */
template <typename Visit>
void
forEachTablePage(const flash::Geometry &geometry,
                 const model::EmbeddingTableSpec &spec,
                 const ftl::ExtentList &extents, Visit &&visit)
{
    const std::uint32_t sectorsPerPage = geometry.sectorsPerPage();
    const std::uint64_t rowsPerPage =
        geometry.pageSizeBytes.raw() / spec.vectorBytes();
    std::uint64_t row = 0;
    for (const ftl::Extent &e : extents.extents()) {
        for (std::uint64_t s = 0;
             s < e.sectorCount.raw() && row < spec.numRows;
             s += sectorsPerPage) {
            const std::uint64_t rows =
                std::min(rowsPerPage, spec.numRows - row);
            visit(e.startLba + Sectors{s}, row, rows);
            row += rows;
        }
    }
}

/**
 * Extents of every table, allocated in table order from LBA 0. Tables
 * are keyed by their local position: a sharded sub-model keeps the
 * parent's global ids in spec.tableId (they seed the synthetic
 * content), but the device address space is local.
 */
std::vector<ftl::ExtentList>
allocateTables(const RmSsdOptions &options,
               const std::vector<model::EmbeddingTableSpec> &tables)
{
    const std::uint64_t sectorSize = options.geometry.sectorSizeBytes.raw();
    ftl::ExtentAllocator allocator(
        Sectors{options.geometry.capacityBytes() / sectorSize},
        options.maxExtentSectors);
    std::vector<ftl::ExtentList> extents;
    for (const model::EmbeddingTableSpec &spec : tables) {
        const Sectors sectors{(spec.totalBytes() + sectorSize - 1) /
                              sectorSize};
        extents.push_back(allocator.allocate(
            sectors, options.geometry.sectorsPerPage()));
    }
    return extents;
}

} // namespace

RmSsd::RmSsd(const model::ModelConfig &config, const RmSsdOptions &options)
    : PipelinedDevice(options.functional), config_(config),
      options_(options),
      // Only a functional device runs the MLP math; a timing-only one
      // keeps the layer shapes, which is all the kernel search reads.
      model_(config, options.functional ? model::Weights::Built
                                        : model::Weights::ShapesOnly),
      flash_(std::make_unique<flash::FlashArray>(options.geometry,
                                                 options.timing)),
      ftl_(std::make_unique<ftl::Ftl>(*flash_, makeMapping(options))),
      nvme_(std::make_unique<nvme::NvmeController>(*ftl_)),
      translator_(std::make_unique<EvTranslator>(
          options.geometry.sectorSizeBytes,
          options.geometry.pageSizeBytes)),
      evCache_(options.evCache.enabled
                   ? std::make_unique<EvCache>(
                         options.evCache, Bytes{config.vectorBytes()})
                   : nullptr),
      embeddingEngine_(std::make_unique<EmbeddingEngine>(
          *translator_, *ftl_, evCache_.get(),
          options.coalesceIndices))
{
    if (!tablesFit(config_, options_.geometry))
        fatal("embedding tables (%.1f GB) exceed device capacity",
              static_cast<double>(config_.rowsPerTable) *
                  static_cast<double>(config_.numTables) *
                  static_cast<double>(config_.vectorBytes()) / 1e9);
    // A vector read is served from one flash page, so whole vectors
    // must tile a page; otherwise some row would straddle two pages.
    const std::uint64_t pageSize = options_.geometry.pageSizeBytes.raw();
    if (config_.vectorBytes() == 0 ||
        pageSize % config_.vectorBytes() != 0)
        fatal("embDim %u gives %u-byte embedding vectors, which do not "
              "tile the %llu-byte flash page: the page size must be a "
              "whole multiple of the vector size",
              config_.embDim, config_.vectorBytes(),
              static_cast<unsigned long long>(pageSize));

    if (options_.placement.enabled) {
        validatePlacement(options_.placement,
                          options_.geometry.totalPages());
        freqMapping_ =
            static_cast<ftl::FrequencyMapping *>(&ftl_->mapping());
    }

    // The kernel search balances the MLP against T_emb; with the EV
    // cache on, the expected hit ratio shrinks the effective per-read
    // cost, so the search picks faster (larger) MLP kernels to match.
    plannedHitRatio_ =
        options_.evCache.enabled ? options_.evCache.expectedHitRatio
                                 : 0.0;
    const double rcpv =
        options_.evCache.enabled
            ? EmbeddingEngine::effectiveCyclesPerRead(
                  options_.geometry, options_.timing,
                  Bytes{config_.vectorBytes()},
                  options_.evCache.expectedHitRatio)
            : EmbeddingEngine::steadyStateCyclesPerRead(
                  options_.geometry, options_.timing,
                  Bytes{config_.vectorBytes()});
    buildPlan(rcpv);
}

bool
RmSsd::tablesFit(const model::ModelConfig &config,
                 const flash::Geometry &geometry)
{
    // rows * bytesPerRow <= capacity, as a division: the product of
    // two u32 fits in u64, the product with the row count may not.
    const std::uint64_t bytesPerRow =
        static_cast<std::uint64_t>(config.numTables) * config.vectorBytes();
    return bytesPerRow == 0 ||
           config.rowsPerTable <= geometry.capacityBytes() / bytesPerRow;
}

std::unique_ptr<ftl::Mapping>
RmSsd::makeMapping(const RmSsdOptions &options)
{
    const std::uint64_t totalPages = options.geometry.totalPages();
    if (!options.placement.enabled)
        return std::make_unique<ftl::LinearMapping>(totalPages);

    return std::make_unique<ftl::FrequencyMapping>(
        totalPages, ftl::FrequencyMapping::Options{});
}

std::uint64_t
RmSsd::applySwaps(std::span<const ftl::FrequencyMapping::Swap> swaps,
                  bool timed)
{
    RMSSD_ASSERT(freqMapping_ != nullptr,
                 "placement pass without a frequency mapping");
    // Only a functional device keeps page bytes, so only it has
    // content to move: a timing-only device writes no table bytes and
    // returns no outputs, so copies there would be unobservable.
    const bool copyBytes = options_.functional;
    const std::size_t pageSize =
        copyBytes ? static_cast<std::size_t>(
                        options_.geometry.pageSizeBytes.raw())
                  : 0;
    std::vector<std::uint8_t> bufA(pageSize);
    std::vector<std::uint8_t> bufB(pageSize);
    flash::BackingStore &store = flash_->store();
    for (const ftl::FrequencyMapping::Swap &swap : swaps) {
        if (copyBytes) {
            // Materialize both pages (unwritten pages read as
            // PPN-keyed filler, so the bytes must move with the
            // logical page for reads to stay byte-stable), then swap.
            store.read(swap.fromPpn, Bytes{}, bufA);
            store.read(swap.toPpn, Bytes{}, bufB);
            store.writePage(swap.toPpn, bufA);
            store.writePage(swap.fromPpn, bufB);
        }

        if (timed) {
            // Background traffic: the copies occupy dies and channel
            // buses from the current device time, contending with
            // foreground reads, but never stall the host clock.
            const flash::ReadTiming ra =
                flash_->readPage(deviceNow_, swap.fromPpn, {});
            const flash::ReadTiming rb =
                flash_->readPage(deviceNow_, swap.toPpn, {});
            flash_->programPage(ra.done, swap.toPpn, {});
            flash_->programPage(rb.done, swap.fromPpn, {});
        }
        freqMapping_->commitSwap(swap);
    }
    return 2 * swaps.size();
}

void
RmSsd::planPlacement(std::span<const RowHeat> rows)
{
    if (!freqMapping_)
        return;
    const std::vector<PageId> hot =
        planHotPages(*translator_, rows, options_.placement.hotPageCount);
    applySwaps(freqMapping_->planHotSet(hot), /*timed=*/false);
    freqMapping_->resetObservation();
}

std::uint64_t
RmSsd::migrateIfDrifted()
{
    const PlacementOptions &placement = options_.placement;
    if (!freqMapping_ ||
        freqMapping_->observedReads() < placement.minObservedReads)
        return 0;

    const ftl::FrequencyMapping::MigrationPlan plan =
        freqMapping_->planMigration(placement.hotPageCount,
                                    placement.migrationDriftThreshold,
                                    placement.maxSwapsPerPass);
    if (plan.observed == 0)
        return 0;

    const std::uint64_t moved = applySwaps(plan.swaps, /*timed=*/true);
    if (moved > 0) {
        migrationPasses_.inc();
        migratedPages_.inc(moved);
    }
    freqMapping_->resetObservation();
    return moved;
}

void
RmSsd::buildPlan(double readCyclesPerVector)
{
    const double rcpv = readCyclesPerVector;
    const KernelSearch search(options_.search);
    searchResult_ = {};

    if (options_.variant == EngineVariant::Searched) {
        searchResult_ = search.search(config_, rcpv);
    } else {
        // Fixed max-size kernels; only the naive engine gives up
        // decomposition and composition.
        const bool split = options_.variant != EngineVariant::Naive;
        MlpPlan plan = makePlan(
            config_,
            KernelConfig{options_.search.maxKernelDim,
                         options_.search.maxKernelDim},
            /*decompose=*/split, /*compose=*/split);
        plan.ii = options_.search.ii;
        search.placeWeights(plan, searchResult_.notes);
        search.chooseMicroBatch(plan, config_, rcpv,
                                searchResult_.notes);
        searchResult_.plan = plan;
        searchResult_.embReadCycles =
            search.embReadCycles(config_, rcpv, plan.microBatch);
        searchResult_.timing =
            planTiming(plan, searchResult_.embReadCycles);
        searchResult_.resources =
            ResourceModel(options_.search.costs)
                .engineResources(plan.allLayers(), plan.ii);
        searchResult_.feasible = true;
    }
    searchResult_.readCyclesPerVector = rcpv;
}

double
RmSsd::plannedHitRatio() const
{
    return evCache_ ? plannedHitRatio_ : 0.0;
}

bool
RmSsd::replanIfDrifted(double threshold)
{
    RMSSD_ASSERT(threshold >= 0.0, "negative drift threshold");
    if (!evCache_)
        return false;

    // Drift is judged over the window since the previous call so a
    // long warm history cannot average away a recent locality shift.
    const std::uint64_t hits = evCache_->hits().value();
    const std::uint64_t misses = evCache_->misses().value();
    const std::uint64_t windowHits = hits - windowHitsBase_;
    const std::uint64_t windowMisses = misses - windowMissesBase_;
    windowHitsBase_ = hits;
    windowMissesBase_ = misses;
    if (windowHits + windowMisses == 0)
        return false;

    const double measured =
        static_cast<double>(windowHits) /
        static_cast<double>(windowHits + windowMisses);
    if (std::abs(measured - plannedHitRatio_) <= threshold)
        return false;

    plannedHitRatio_ = measured;
    buildPlan(EmbeddingEngine::effectiveCyclesPerRead(
        options_.geometry, options_.timing, Bytes{config_.vectorBytes()},
        measured));
    replans_.inc();
    return true;
}

void
RmSsd::registerTable(TableId tableId,
                     const ftl::ExtentList &extents)
{
    RMSSD_ASSERT(tableId.raw() < config_.numTables,
                 "table id out of range");
    const std::uint32_t sectorsPerPage =
        options_.geometry.sectorsPerPage();
    for (const ftl::Extent &e : extents.extents()) {
        if (e.startLba.raw() % sectorsPerPage != 0 ||
            e.sectorCount.raw() % sectorsPerPage != 0)
            fatal("table %u has an extent of %llu sectors at LBA %llu; "
                  "table extents must start and end on %u-sector flash "
                  "pages",
                  tableId.raw(),
                  static_cast<unsigned long long>(e.sectorCount.raw()),
                  static_cast<unsigned long long>(e.startLba.raw()),
                  sectorsPerPage);
    }
    const auto &spec = model_.embedding().tables()[tableId.raw()];
    translator_->registerTable(tableId, extents,
                               Bytes{spec.vectorBytes()}, spec.numRows);

    if (options_.functional) {
        // One FTL write per page: the page's rows are synthesised
        // into one buffer in one call, so only the tail of the
        // table's last page is left for the backing store's filler.
        // Whole vectors tile the page (checked at construction).
        std::vector<float> page(options_.geometry.pageSizeBytes.raw() /
                                sizeof(float));
        forEachTablePage(
            options_.geometry, spec, extents,
            [&](Lba lba, std::uint64_t firstRow, std::uint64_t rows) {
                const std::span<float> values =
                    std::span(page).first(rows * spec.dim);
                spec.fillRows(firstRow, rows, values);
                ftl_->writeBytesFunctional(
                    lba, Bytes{},
                    {reinterpret_cast<const std::uint8_t *>(values.data()),
                     values.size_bytes()});
            });
    }
    tablesLoaded_ = translator_->numTables() == config_.numTables;
}

void
RmSsd::loadTables()
{
    const std::vector<ftl::ExtentList> extents =
        allocateTables(options_, model_.embedding().tables());
    for (std::uint32_t t = 0; t < extents.size(); ++t)
        registerTable(TableId{t}, extents[t]);
}

Cycle
RmSsd::loadTablesTimed()
{
    // The bytes land exactly as loadTables() lays them out; the timed
    // write path then programs every page holding rows, striped over
    // channels/dies by the FTL layout.
    const auto &tables = model_.embedding().tables();
    const std::vector<ftl::ExtentList> extents =
        allocateTables(options_, tables);
    Cycle done = deviceNow_;
    for (std::uint32_t t = 0; t < extents.size(); ++t) {
        registerTable(TableId{t}, extents[t]);
        forEachTablePage(
            options_.geometry, tables[t], extents[t],
            [&](Lba lba, std::uint64_t, std::uint64_t) {
                done = std::max(
                    done, flash_->programPage(
                              deviceNow_, ftl_->translate(lba).ppn, {}));
            });
    }
    deviceNow_ = done;
    lastCompletion_ = done;
    return done;
}

RmSsd::MicroBatchDone
RmSsd::runMicroBatch(
    Cycle inputsReady, std::span<const model::Sample> samples,
    std::vector<float> *outputs,
    std::span<const std::vector<host::EmbeddingTier::ServedSlice>>
        served)
{
    RMSSD_ASSERT(tablesLoaded_, "tables must be loaded before inference");
    const MlpPlan &plan = searchResult_.plan;
    const bool functional = options_.functional;

    // Pipelined plans overlap lookups with the previous micro-batch's
    // MLP; the naive engine serializes behind its GEMM unit.
    const bool pipelined = plan.decomposed && plan.composed;
    const Cycle embStart =
        (pipelined || options_.variant == EngineVariant::EmbeddingOnly)
            ? inputsReady
            : std::max(inputsReady, topUnitFree_);
    EmbeddingResult emb =
        embeddingEngine_->run(embStart, samples, functional);
    embIssueBusy_.inc((emb.issueEndCycle - embStart).raw());

    // Host-tier merge: a served slice's lookup list arrived empty, so
    // the engine pooled it to exact zeros; the tier's pooled partial
    // overwrites that slice in place (a placement copy, never a float
    // add — the fold stayed whole on one side, so results are
    // byte-identical to the un-tiered device).
    if (functional && !served.empty()) {
        const std::uint32_t dim = config_.embDim;
        for (std::size_t s = 0; s < samples.size(); ++s) {
            for (const host::EmbeddingTier::ServedSlice &slice :
                 served[s]) {
                std::copy(slice.pooled.begin(), slice.pooled.end(),
                          emb.pooled[s].begin() +
                              static_cast<std::ptrdiff_t>(
                                  slice.table) *
                                  dim);
            }
        }
    }

    MicroBatchDone out;
    if (options_.variant == EngineVariant::EmbeddingOnly) {
        out.done = emb.doneCycle;
        out.issueEnd = emb.issueEndCycle;
        if (functional && outputs) {
            for (const model::Vector &pooled : emb.pooled)
                outputs->insert(outputs->end(), pooled.begin(),
                                pooled.end());
        }
        return out;
    }

    const Cycle botPrime =
        plan.composed ? composedCycles(plan.bottom, plan.ii)
                      : sequentialCycles(plan.bottom, plan.ii);
    const Cycle topPrime =
        plan.composed ? composedCycles(plan.top, plan.ii)
                      : sequentialCycles(plan.top, plan.ii);
    mlpBottomBusy_.inc(botPrime.raw());
    mlpTopBusy_.inc(topPrime.raw());

    if (plan.decomposed && plan.composed) {
        // Bottom MLP runs concurrently with the lookups; the unit
        // accepts a new micro-batch every botPrime cycles.
        const Cycle bottomStart = std::max(inputsReady, bottomUnitFree_);
        const Cycle bottomDone = bottomStart + botPrime;
        bottomUnitFree_ = bottomDone;

        // Le consumes pooled vectors as tables complete (Eq. 1a).
        const Cycle embPrimeDone = std::max(
            emb.doneCycle,
            inputsReady + fcLayerCycles(plan.embeddingSplit, plan.ii));

        const Cycle ready = std::max(embPrimeDone, bottomDone);
        const Cycle topStart = std::max(ready, topUnitFree_);
        const Cycle topDone = topStart + topPrime;
        topUnitFree_ = topDone;

        out.done = topDone;
        out.issueEnd = emb.issueEndCycle;
    } else {
        // Naive (Centaur-style GEMM unit): embedding, bottom MLP and
        // top MLP run back-to-back with the concat barrier in
        // between; no stage pipelining across micro-batches.
        const Cycle topDone = emb.doneCycle + botPrime + topPrime;
        bottomUnitFree_ = topDone;
        topUnitFree_ = topDone;
        out.done = topDone;
        out.issueEnd = topDone;
    }

    if (functional && outputs) {
        for (std::size_t s = 0; s < samples.size(); ++s) {
            const float ctr =
                plan.decomposed
                    ? decomposedForward(model_, samples[s].dense,
                                        emb.pooled[s])
                    : model_.inferenceWithPooled(samples[s].dense,
                                                 emb.pooled[s]);
            outputs->push_back(ctr);
        }
    }
    return out;
}

RmSsdRequest
RmSsd::issue(std::span<const model::Sample> samples,
             host::EmbeddingTier::Intercept *icpt)
{
    const MlpPlan &plan = searchResult_.plan;
    RmSsdRequest request;
    request.t0 = deviceNow_;

    // Host sends control parameters over MMIO (posted writes) and the
    // indices + dense inputs via DMA (RM_send_inputs). With a tier in
    // front, the index payload is the actual residual count, and the
    // non-embedding-only variants also ship the tier's pooled partials
    // down so the on-device top MLP can consume the full concat.
    const Cycle paramsDone = mmio_.write(
        request.t0, static_cast<std::uint32_t>(nvme::RmReg::NumLookups),
        config_.lookupsPerTable);
    mmio_.poke(static_cast<std::uint32_t>(nvme::RmReg::BatchSize),
               samples.size());
    std::uint64_t indexBytes =
        samples.size() * config_.lookupsPerSample() *
        sizeof(std::uint32_t);
    if (chargeActualIndexBytes_ || icpt) {
        std::uint64_t indices = 0;
        if (icpt) {
            indices = icpt->residualIndices;
        } else {
            for (const model::Sample &sample : samples)
                for (const std::vector<std::uint64_t> &slice :
                     sample.indices)
                    indices += slice.size();
        }
        indexBytes = indices * sizeof(std::uint32_t);
    }
    const std::uint64_t partialBytes =
        (icpt && options_.variant != EngineVariant::EmbeddingOnly)
            ? icpt->servedSlices * config_.embDim * sizeof(float)
            : 0;
    const std::uint64_t denseBytes =
        samples.size() * config_.denseInputDim() * sizeof(float);
    request.inputsReady = dma_.transfer(
        paramsDone, Bytes{indexBytes + denseBytes + partialBytes});
    hostBytesWritten_.inc(indexBytes + denseBytes + partialBytes);

    std::vector<float> *outPtr =
        options_.functional ? &request.outputs : nullptr;
    if (outPtr)
        outPtr->reserve(
            options_.variant == EngineVariant::EmbeddingOnly
                ? samples.size() * config_.numTables * config_.embDim
                : samples.size());

    // Partition into micro-batches streaming through the engines. At
    // depth > 1 the embedding engine's issue port is an occupancy
    // track shared across requests: request r+1's lookups queue
    // behind r's issue tail while r's MLP micro-batches keep
    // draining. The depth-1 path leaves the bound off — the blocking
    // pipeline never applied it, and the host serializes anyway.
    const std::size_t mbSize =
        std::min<std::size_t>(plan.microBatch, samples.size());
    Cycle issueChain = request.inputsReady;
    if (maxInflight() > 1)
        issueChain = std::max(issueChain, embIssueFree_);
    Cycle lastDone = request.inputsReady;
    for (std::size_t pos = 0; pos < samples.size(); pos += mbSize) {
        const std::size_t n = std::min(mbSize, samples.size() - pos);
        const MicroBatchDone mb = runMicroBatch(
            issueChain, samples.subspan(pos, n), outPtr,
            icpt ? std::span(icpt->served).subspan(pos, n)
                 : std::span<const std::vector<
                       host::EmbeddingTier::ServedSlice>>{});
        issueChain = std::max(issueChain, mb.issueEnd);
        lastDone = std::max(lastDone, mb.done);
    }
    embIssueFree_ = std::max(embIssueFree_, issueChain);
    request.lastDone = lastDone;

    // Embedding-only results shrink by what the tier already holds:
    // served slices never left the host, so only residual pooled
    // slices ride the readback DMA.
    const std::uint64_t totalSlices =
        static_cast<std::uint64_t>(config_.numTables) * samples.size();
    const std::uint64_t servedSlices = icpt ? icpt->servedSlices : 0;
    RMSSD_ASSERT(servedSlices <= totalSlices,
                 "tier served more slices than the request has");
    request.resultBytes =
        options_.variant == EngineVariant::EmbeddingOnly
            ? Bytes{(totalSlices - servedSlices) * config_.embDim *
                    sizeof(float)}
            : Bytes{samples.size() * sizeof(float)};

    inferences_.inc(samples.size());

    // The host is busy until its inputs are sent; completions of
    // older requests fold in at their retire (max-accumulation, so
    // issue/retire interleavings cannot move the clock backward).
    deviceNow_ = std::max(deviceNow_, request.inputsReady);
    return request;
}

InferenceOutcome
RmSsd::retire(RmSsdRequest request)
{
    // Results: the host polls the status register; small results ride
    // the 64-byte MMIO read, larger ones take a DMA transfer.
    mmio_.poke(static_cast<std::uint32_t>(nvme::RmReg::ResultStatus), 1);
    Cycle end = mmio_.read(request.lastDone,
                           static_cast<std::uint32_t>(
                               nvme::RmReg::ResultStatus))
                    .done;
    if (request.resultBytes > nvme::MmioManager::kDataWidthBytes) {
        end = dma_.transfer(end, request.resultBytes);
        hostBytesRead_.inc(request.resultBytes.raw());
    } else {
        hostBytesRead_.inc(nvme::MmioManager::kDataWidthBytes.raw());
    }

    // System-level pipeline (Section IV-D): the host double-buffers —
    // it pre-sends the next request's inputs during the current
    // request's compute and only blocks when two requests are still
    // in flight, so the host clock advances to the later of this
    // request's input transfer and the completion of the request two
    // back. Synchronous hosts (presend off) block on this request's
    // own completion.
    if (options_.presend)
        deviceNow_ = std::max(
            deviceNow_,
            std::max(request.inputsReady, secondLastCompletion_));
    else
        deviceNow_ = std::max(deviceNow_, end);
    secondLastCompletion_ = lastCompletion_;
    lastCompletion_ = end;

    InferenceOutcome outcome;
    outcome.latency = cyclesToNanos(end - request.t0);
    outcome.completionCycle = end;
    outcome.outputs = std::move(request.outputs);
    return outcome;
}

void
RmSsd::registerStats(StatsRegistry &registry,
                     const std::string &prefix) const
{
    const ScopedStats stats = registry.scoped(prefix);
    stats.addCounter("inferences", &inferences_);
    const ScopedStats host = stats.scoped("host");
    host.addCounter("bytesRead", &hostBytesRead_);
    host.addCounter("bytesWritten", &hostBytesWritten_);
    const ScopedStats emb = stats.scoped("emb");
    emb.addCounter("lookups", &embeddingEngine_->lookups());
    emb.addCounter("lookupBytes", &embeddingEngine_->lookupBytes());
    emb.addCounter("flashReads", &embeddingEngine_->flashReads());
    emb.addCounter("coalesced", &embeddingEngine_->coalescedLookups());
    if (evCache_) {
        const ScopedStats cache = emb.scoped("cache");
        cache.addCounter("hits", &evCache_->hits());
        cache.addCounter("misses", &evCache_->misses());
        cache.addCounter("fills", &evCache_->fills());
        cache.addCounter("evictions", &evCache_->evictions());
        cache.addCounter("admissionRejects",
                         &evCache_->admissionRejects());
        cache.addCounter("replans", &replans_);
        cache.addRatio("hitRatio", &evCache_->hits(),
                       &evCache_->misses());
    }
    if (const host::EmbeddingTier *tier = hostTier()) {
        const ScopedStats tierStats = host.scoped("tier");
        tier->registerStats(tierStats.registry(), tierStats.prefix());
    }
    const ScopedStats ftl = stats.scoped("ftl");
    ftl.addCounter("blockRequests", &ftl_->blockRequests());
    ftl.addCounter("evRequests", &ftl_->evRequests());
    const ScopedStats queue = stats.scoped("queue");
    queue.addCounter("submitted", &submitted_);
    queue.addCounter("retired", &retired_);
    queue.addDistribution("depth", &queueDepthOnSubmit_);
    emb.addCounter("issueBusyCycles", &embIssueBusy_);
    const ScopedStats mlp = stats.scoped("mlp");
    mlp.addCounter("bottomBusyCycles", &mlpBottomBusy_);
    mlp.addCounter("topBusyCycles", &mlpTopBusy_);
    const ScopedStats dma = stats.scoped("dma");
    dma.addCounter("transfers", &dma_.transfers());
    dma.addCounter("bytes", &dma_.bytesMoved());
    dma.addCounter("busyCycles", &dma_.busyCycles());
    const ScopedStats mmio = stats.scoped("mmio");
    mmio.addCounter("reads", &mmio_.hostReads());
    mmio.addCounter("writes", &mmio_.hostWrites());
    if (freqMapping_) {
        const ScopedStats placement = stats.scoped("placement");
        placement.addCounter("migrationPasses", &migrationPasses_);
        placement.addCounter("migratedPages", &migratedPages_);
    }
    const ScopedStats flashStats = stats.scoped("flash");
    for (std::uint32_t c = 0; c < options_.geometry.numChannels; ++c) {
        const ScopedStats ch =
            flashStats.scoped("ch" + std::to_string(c));
        const flash::Fmc *fmc = &flash_->fmc(c);
        ch.addCounter("pageReads", &fmc->pageReads());
        ch.addCounter("vectorReads", &fmc->vectorReads());
        ch.addCounter("busBytes", &fmc->busBytes());
        ch.addCounter("pagePrograms", &fmc->pagePrograms());
        ch.addCounter("dieConflicts", &fmc->dieConflicts());
        // Busy cycles live inside occupancy trackers that reset with
        // timing state, so they export as gauges, sampled at dump.
        ch.addGauge("busyCycles", [fmc]() {
            return fmc->busBusyCycles().raw();
        });
        for (std::uint32_t d = 0; d < fmc->numDies(); ++d) {
            ch.addGauge("die" + std::to_string(d) + ".busyCycles",
                        [fmc, d]() { return fmc->dieBusyCycles(d).raw(); });
        }
    }
}

void
RmSsd::advanceHostClock(Nanos hostNanos)
{
    deviceNow_ += nanosToCycles(hostNanos);
}

void
RmSsd::advanceClockTo(Cycle cycle)
{
    deviceNow_ = std::max(deviceNow_, cycle);
}

void
RmSsd::resetTiming()
{
    flash_->resetTiming();
    dma_.resetTiming();
    deviceNow_ = {};
    lastCompletion_ = {};
    secondLastCompletion_ = {};
    bottomUnitFree_ = {};
    topUnitFree_ = {};
    embIssueFree_ = {};
    clearRequests();
}

} // namespace rmssd::engine
