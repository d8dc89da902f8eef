#include "catalog/tenant.h"

#include <algorithm>
#include <utility>

#include "sim/log.h"

namespace rmssd::catalog {

namespace {

/** Lookups per table profiled per tenant for the budget planners. */
constexpr std::uint64_t kProfileLookups = 4096;

/**
 * Content seed of a multi-tenant union layout (colocated table content
 * is defined by the union model — the honest reading for synthetic
 * tables). Single-tenant fleets keep the tenant's seed.
 */
constexpr std::uint64_t kUnionSeed = 42;

} // namespace

UnionLayout
buildUnionLayout(std::span<const TenantSpec> tenants,
                 std::uint64_t unionSeed)
{
    RMSSD_ASSERT(!tenants.empty(), "fleet needs at least one tenant");
    UnionLayout layout;

    if (tenants.size() == 1) {
        // One tenant: the union IS the tenant config, verbatim, so
        // samples and outcomes pass through untouched (bit-exact
        // against a bare device built from the same config).
        layout.config = tenants[0].config;
        layout.passthrough = true;
        layout.lanes = {1};
        layout.slots.emplace_back();
        for (std::uint32_t t = 0; t < layout.config.numTables; ++t)
            layout.slots[0].push_back(t);
        return layout;
    }

    std::uint32_t fleetDim = tenants[0].config.embDim;
    for (const TenantSpec &spec : tenants)
        fleetDim = std::min(fleetDim, spec.config.embDim);
    RMSSD_ASSERT(fleetDim > 0, "tenant embedding dim must be positive");

    layout.config = tenants[0].config;
    layout.config.name = "fleet-union";
    layout.config.embDim = fleetDim;
    layout.config.seed = unionSeed;
    layout.config.tableIds.clear();

    std::uint64_t rows = 0;
    std::uint32_t lookups = 0;
    std::uint64_t slots = 0;
    for (const TenantSpec &spec : tenants) {
        const model::ModelConfig &mc = spec.config;
        if (mc.embDim % fleetDim != 0)
            fatal("tenant '%s' embDim %u is not a multiple of the "
                  "fleet lane dim %u",
                  spec.id.c_str(), static_cast<unsigned>(mc.embDim),
                  static_cast<unsigned>(fleetDim));
        const std::uint32_t lanes = mc.embDim / fleetDim;
        layout.lanes.push_back(lanes);
        layout.slots.emplace_back();
        for (std::uint32_t t = 0; t < mc.numTables; ++t)
            for (std::uint32_t l = 0; l < lanes; ++l)
                layout.slots.back().push_back(static_cast<std::uint32_t>(
                    slots + static_cast<std::uint64_t>(t) * lanes + l));
        slots += static_cast<std::uint64_t>(mc.numTables) * lanes;
        rows = std::max(rows, mc.rowsPerTable);
        lookups = std::max(lookups, mc.lookupsPerTable);
    }
    RMSSD_ASSERT(slots <= 0xffffffffULL, "union table count overflow");
    layout.config.numTables = static_cast<std::uint32_t>(slots);
    layout.config.rowsPerTable = rows;
    layout.config.lookupsPerTable = lookups;
    return layout;
}

TenantFleet::TenantFleet(std::vector<TenantSpec> tenants,
                         const FleetOptions &options)
    : layout_(buildUnionLayout(tenants, kUnionSeed)), options_(options)
{
    if (options_.numDevices > layout_.config.numTables)
        fatal("FleetOptions::numDevices %u exceeds the %u union tables",
              static_cast<unsigned>(options_.numDevices),
              static_cast<unsigned>(layout_.config.numTables));
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantSpec &spec = tenants[i];
        RMSSD_ASSERT(!spec.id.empty(), "tenant id must be non-empty");
        for (std::size_t j = 0; j < i; ++j)
            if (tenants[j].id == spec.id)
                fatal("duplicate tenant id '%s'", spec.id.c_str());
        auto state = std::make_unique<TenantState>();
        state->spec = spec;
        tenants_.push_back(std::move(state));
    }

    const bool multi = tenants_.size() > 1;
    engine::RmSsdOptions devOpts = options_.device;
    if (multi)
        devOpts.variant = engine::EngineVariant::EmbeddingOnly;

    // Per-tenant traffic profiles feed every shared-resource planner:
    // the EV-cache carve, the host-tier carve, and the sharding
    // planner of a multi-device backend.
    const bool wantTier = options_.hostTierBytes.raw() > 0;
    std::vector<std::vector<workload::TraceGenerator::TableHistogram>>
        hists;
    if (multi || wantTier || options_.numDevices > 1) {
        for (const auto &st : tenants_) {
            workload::TraceGenerator gen(st->spec.config,
                                         st->spec.trace);
            hists.push_back(gen.tableHistograms(kProfileLookups));
        }
    }

    if (multi && devOpts.evCache.enabled &&
        devOpts.evCache.tableShares.empty())
        carveEvCacheShares(devOpts, hists);

    if (options_.numDevices <= 1) {
        auto device =
            std::make_unique<engine::RmSsd>(layout_.config, devOpts);
        device->loadTables();
        device_ = std::move(device);
    } else {
        cluster::ClusterOptions copts;
        copts.sharding.numDevices = options_.numDevices;
        copts.policy = options_.policy;
        copts.device = devOpts;
        copts.embeddingOnly =
            devOpts.variant == engine::EngineVariant::EmbeddingOnly;
        if (!hists.empty()) {
            // Union-slot traffic profile: every lane of a tenant
            // table carries that table's index stream verbatim.
            copts.histograms.resize(layout_.config.numTables);
            for (std::size_t i = 0; i < tenants_.size(); ++i)
                for (std::uint32_t t = 0;
                     t < tenants_[i]->spec.config.numTables; ++t)
                    for (std::uint32_t l = 0; l < layout_.lanes[i];
                         ++l)
                        copts.histograms[layout_.slots[i]
                                             [static_cast<std::size_t>(
                                                  t) *
                                                  layout_.lanes[i] +
                                              l]] = hists[i][t];
        }
        device_ = std::make_unique<cluster::RmSsdCluster>(
            layout_.config, copts);
    }

    if (wantTier)
        provisionSharedTier(options_, hists);

    // The union config's lookupsPerSample formula has no relation to
    // what any one tenant's request carries (only the tenant's own
    // slots hold indices), so input DMA must charge the indices
    // actually shipped. Set after the tier attach so the knob sticks.
    if (multi)
        device_->setChargeActualIndexBytes(true);
}

TenantFleet::~TenantFleet() = default;

const TenantSpec &
TenantFleet::tenant(std::size_t i) const
{
    RMSSD_ASSERT(i < tenants_.size(), "tenant index out of range");
    return tenants_[i]->spec;
}

void
TenantFleet::carveEvCacheShares(
    engine::RmSsdOptions &deviceOptions,
    const std::vector<
        std::vector<workload::TraceGenerator::TableHistogram>>
        &histograms) const
{
    // Each tenant buys an equal fraction of the shared set array
    // regardless of its lane count; within a tenant the
    // budget follows the trace's per-table hot working sets. Dividing
    // by the lane count keeps a 2-lane table from drawing twice its
    // tenant's budget (its lanes each get half of the table's share).
    // engine::planTablePartitions turns the shares into hard
    // per-table set quotas, so the carve is structural isolation: one
    // tenant's traffic cannot evict another tenant's lines.
    std::vector<double> shares(layout_.config.numTables, 0.0);
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        const std::vector<double> w =
            workload::planTableShares(histograms[i]);
        double sum = 0.0;
        for (const double v : w)
            sum += v;
        const auto &st = *tenants_[i];
        for (std::uint32_t t = 0; t < st.spec.config.numTables; ++t)
            for (std::uint32_t l = 0; l < layout_.lanes[i]; ++l)
                shares[layout_.slots[i][static_cast<std::size_t>(t) *
                                            layout_.lanes[i] +
                                        l]] =
                    w[t] / (sum * layout_.lanes[i]);
    }
    deviceOptions.evCache.tableShares = std::move(shares);
}

void
TenantFleet::provisionSharedTier(
    const FleetOptions &options,
    const std::vector<
        std::vector<workload::TraceGenerator::TableHistogram>>
        &histograms)
{
    // Split the shared DRAM pool across tenants by tierShare via
    // largest-remainder apportionment over union row slots (the same
    // quota scheme the EV-cache partitioner and planHostTier use),
    // then let each tenant spend its budget on its own hottest rows.
    const std::uint64_t slotBytes = layout_.config.vectorBytes();
    const std::uint64_t totalSlots =
        options.hostTierBytes.raw() / slotBytes;
    double sumShare = 0.0;
    for (const auto &st : tenants_)
        sumShare += std::max(st->spec.tierShare, 0.0);

    std::vector<std::uint64_t> quota(tenants_.size(), 0);
    if (sumShare > 0.0 && totalSlots > 0) {
        std::vector<double> remainder(tenants_.size(), 0.0);
        std::uint64_t assigned = 0;
        for (std::size_t i = 0; i < tenants_.size(); ++i) {
            const double exact =
                static_cast<double>(totalSlots) *
                std::max(tenants_[i]->spec.tierShare, 0.0) / sumShare;
            quota[i] = static_cast<std::uint64_t>(exact);
            remainder[i] = exact - static_cast<double>(quota[i]);
            assigned += quota[i];
        }
        std::vector<std::size_t> order(tenants_.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return remainder[a] > remainder[b];
                         });
        for (std::size_t k = 0;
             k < order.size() && assigned < totalSlots; ++k, ++assigned)
            ++quota[order[k]];
    }

    engine::TierPlan plan;
    plan.budgetBytes = options.hostTierBytes;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        auto &st = *tenants_[i];
        const model::ModelConfig &mc = st.spec.config;
        const std::uint32_t lanes = layout_.lanes[i];
        st.tierBudget = Bytes{quota[i] * slotBytes};
        if (st.tierBudget.raw() == 0)
            continue;
        // Plan in the TENANT's shape (its vectorBytes is the true
        // per-row DRAM cost: all lanes of a row are resident
        // together), then expand each entry to its union lanes.
        workload::TraceGenerator gen(mc, st.spec.trace);
        const std::vector<double> shares =
            workload::planTierShares(histograms[i]);
        const std::vector<engine::RowHeat> heats = gen.hotRowHeats();
        const engine::TierPlan tenantPlan = engine::planHostTier(
            mc.rowsPerTable, Bytes{mc.vectorBytes()}, shares, heats,
            st.tierBudget);
        st.tierPlanned = tenantPlan.plannedBytes;
        plan.plannedBytes += tenantPlan.plannedBytes;
        for (const engine::TierPlanEntry &entry : tenantPlan.entries) {
            const std::uint32_t t = entry.table.raw();
            for (std::uint32_t l = 0; l < lanes; ++l) {
                engine::TierPlanEntry lane = entry;
                lane.table = TableId{
                    layout_.slots[i][static_cast<std::size_t>(t) *
                                         lanes +
                                     l]};
                lane.bytes = entry.bytes / lanes;
                plan.entries.push_back(std::move(lane));
            }
        }
    }

    tier_ = std::make_shared<host::EmbeddingTier>(device_->model());
    tier_->provision(plan);
    device_->attachHostTier(tier_);
}

std::vector<model::Sample>
TenantFleet::remapSamples(std::size_t i,
                          std::span<const model::Sample> samples) const
{
    const auto &slots = layout_.slots[i];
    const std::uint32_t lanes = layout_.lanes[i];
    const std::uint32_t numTables = tenants_[i]->spec.config.numTables;
    std::vector<model::Sample> mapped(samples.size());
    for (std::size_t s = 0; s < samples.size(); ++s) {
        RMSSD_ASSERT(samples[s].indices.size() == numTables,
                     "sample table count mismatch");
        model::Sample &out = mapped[s];
        // The union MLP never runs (EmbeddingOnly backend); the dense
        // vector only sizes the input DMA.
        out.dense.assign(layout_.config.denseInputDim(), 0.0f);
        out.indices.resize(layout_.config.numTables);
        for (std::uint32_t t = 0; t < numTables; ++t)
            for (std::uint32_t l = 0; l < lanes; ++l)
                out.indices[slots[static_cast<std::size_t>(t) * lanes +
                                  l]] = samples[s].indices[t];
    }
    return mapped;
}

void
TenantFleet::attributeTierSlices(
    std::size_t i, std::span<const model::Sample> samples)
{
    if (!tier_ || !tier_->active())
        return;
    auto &st = *tenants_[i];
    const auto &slots = layout_.slots[i];
    const std::uint32_t lanes = layout_.lanes[i];
    for (const model::Sample &sample : samples) {
        for (std::uint32_t t = 0; t < st.spec.config.numTables; ++t) {
            const auto &idx = sample.indices[t];
            if (idx.empty())
                continue;
            // All lanes of a tenant row are provisioned together, so
            // lane 0's residency speaks for the whole row.
            const std::uint32_t slot0 =
                slots[static_cast<std::size_t>(t) * lanes];
            bool all = true;
            for (const std::uint64_t row : idx)
                if (!tier_->resident(slot0, row)) {
                    all = false;
                    break;
                }
            (all ? st.tierSliceHits : st.tierSliceMisses).inc();
        }
    }
}

void
TenantFleet::harvest()
{
    while (auto completion = device_->poll())
        finalize(std::move(*completion));
}

void
TenantFleet::finalize(engine::AsyncCompletion completion)
{
    RMSSD_ASSERT(!inflight_.empty(),
                 "backend completion without a fleet request");
    FleetInflight front = std::move(inflight_.front());
    inflight_.pop_front();
    RMSSD_ASSERT(front.deviceId == completion.id,
                 "backend completions out of FIFO order");

    auto &st = *tenants_[front.tenant];
    engine::InferenceOutcome outcome = std::move(completion.outcome);

    if (!layout_.passthrough && !outcome.outputs.empty()) {
        // The tenant's slots are consecutive and its lanes are
        // adjacent per table, so its pooled floats are one contiguous
        // run per sample — already in the tenant's own table-major
        // (table, dim) layout.
        const std::size_t stride =
            static_cast<std::size_t>(layout_.config.numTables) *
            layout_.config.embDim;
        const std::size_t begin =
            static_cast<std::size_t>(layout_.slots[front.tenant][0]) *
            layout_.config.embDim;
        const std::size_t len =
            layout_.slots[front.tenant].size() *
            static_cast<std::size_t>(layout_.config.embDim);
        std::vector<float> sliced(front.numSamples * len);
        for (std::size_t s = 0; s < front.numSamples; ++s)
            std::copy_n(outcome.outputs.begin() +
                            static_cast<std::ptrdiff_t>(s * stride +
                                                        begin),
                        static_cast<std::ptrdiff_t>(len),
                        sliced.begin() +
                            static_cast<std::ptrdiff_t>(s * len));
        outcome.outputs = std::move(sliced);
    }

    RMSSD_ASSERT(st.inflightCount > 0, "tenant inflight underflow");
    --st.inflightCount;
    st.retired.inc();
    st.samples.inc(front.numSamples);
    st.latencies.add(outcome.latency);
    st.lastCompletion = outcome.completionCycle;
    lastCompletion_ = outcome.completionCycle;
    retired_.inc();
    pushCompletion({front.fleetId, std::move(outcome)});
}

engine::RequestId
TenantFleet::submitTenant(std::size_t i,
                          std::span<const model::Sample> samples)
{
    RMSSD_ASSERT(i < tenants_.size(), "tenant index out of range");
    RMSSD_ASSERT(!samples.empty(), "empty inference request");
    auto &st = *tenants_[i];

    harvest();
    // Fleet-level backpressure mirrors the backend queue 1:1, so the
    // backend never force-retires behind the fleet's back.
    while (inflight_.size() >= maxInflight())
        retireNext();

    attributeTierSlices(i, samples);

    FleetInflight entry;
    entry.tenant = i;
    entry.numSamples = samples.size();
    if (layout_.passthrough) {
        entry.deviceId = device_->submit(samples);
    } else {
        const std::vector<model::Sample> mapped =
            remapSamples(i, samples);
        entry.deviceId = device_->submit(mapped);
    }
    entry.fleetId = allocateRequestId();
    const engine::RequestId id = entry.fleetId;

    ++st.inflightCount;
    st.submitted.inc();
    st.inflightOnSubmit.sample(static_cast<double>(st.inflightCount));
    submitted_.inc();
    inflight_.push_back(std::move(entry));
    queueDepthOnSubmit_.sample(static_cast<double>(inflight_.size()));
    harvest();
    return id;
}

engine::InferenceOutcome
TenantFleet::inferTenant(std::size_t i,
                         std::span<const model::Sample> samples)
{
    return drainFor(submitTenant(i, samples));
}

engine::InferenceOutcome
TenantFleet::infer(std::span<const model::Sample> samples)
{
    return inferTenant(0, samples);
}

engine::RequestId
TenantFleet::submit(std::span<const model::Sample> samples)
{
    return submitTenant(0, samples);
}

bool
TenantFleet::retireNext()
{
    if (auto completion = device_->poll()) {
        finalize(std::move(*completion));
        return true;
    }
    if (inflight_.empty())
        return false;
    if (!device_->retireNext())
        return false;
    auto completion = device_->poll();
    RMSSD_ASSERT(completion.has_value(),
                 "backend retired without a completion");
    finalize(std::move(*completion));
    return true;
}

void
TenantFleet::setMaxInflight(std::uint32_t depth)
{
    device_->setMaxInflight(depth);
    harvest();
    engine::InferenceDevice::setMaxInflight(depth);
}

const model::DlrmModel &
TenantFleet::model() const
{
    return device_->model();
}

void
TenantFleet::resetTiming()
{
    device_->resetTiming();
    inflight_.clear();
    clearCompletions();
    for (const auto &st : tenants_) {
        st->inflightCount = 0;
        st->lastCompletion = Cycle{};
    }
    lastCompletion_ = Cycle{};
}

Bytes
TenantFleet::tenantTierBudget(std::size_t i) const
{
    return tenants_[i]->tierBudget;
}

Bytes
TenantFleet::tenantTierPlannedBytes(std::size_t i) const
{
    return tenants_[i]->tierPlanned;
}

std::uint64_t
TenantFleet::tierSliceHits() const
{
    std::uint64_t hits = 0;
    for (const auto &st : tenants_)
        hits += st->tierSliceHits.value();
    return hits;
}

std::uint64_t
TenantFleet::tierSliceMisses() const
{
    std::uint64_t misses = 0;
    for (const auto &st : tenants_)
        misses += st->tierSliceMisses.value();
    return misses;
}

void
TenantFleet::registerStats(StatsRegistry &registry,
                           const std::string &prefix) const
{
    const ScopedStats stats = registry.scoped(prefix);
    for (const auto &statePtr : tenants_) {
        TenantState *st = statePtr.get();
        const ScopedStats t = stats.scoped("tenant." + st->spec.id);
        t.addCounter("submitted", &st->submitted);
        t.addCounter("retired", &st->retired);
        t.addCounter("samples", &st->samples);
        t.addDistribution("queue.depth", &st->inflightOnSubmit);
        t.addCounter("tier.sliceHits", &st->tierSliceHits);
        t.addCounter("tier.sliceMisses", &st->tierSliceMisses);
        t.addRatio("tier.sliceHitRatio", &st->tierSliceHits,
                   &st->tierSliceMisses);
        t.addGauge("tier.budgetBytes",
                   [st] { return st->tierBudget.raw(); });
        t.addGauge("tier.plannedBytes",
                   [st] { return st->tierPlanned.raw(); });
        t.addGauge("latency.meanNanos",
                   [st] { return st->latencies.mean().raw(); });
        t.addGauge("latency.p50Nanos", [st] {
            return st->latencies.percentile(50.0).raw();
        });
        t.addGauge("latency.p99Nanos", [st] {
            return st->latencies.percentile(99.0).raw();
        });
        t.addGauge("latency.maxNanos",
                   [st] { return st->latencies.max().raw(); });
        t.addGauge("qps", [st] {
            const double seconds = nanosToSeconds(
                cyclesToNanos(st->lastCompletion));
            return seconds > 0.0
                       ? static_cast<std::uint64_t>(
                             static_cast<double>(st->samples.value()) /
                             seconds)
                       : 0;
        });
    }
    const ScopedStats dev = stats.scoped("device");
    device_->registerStats(dev.registry(), dev.prefix());
}

} // namespace rmssd::catalog
