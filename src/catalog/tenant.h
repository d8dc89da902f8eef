/**
 * @file
 * Multi-tenant model fleet: colocate heterogeneous catalog models
 * (RMC1's 32-dim tables beside RMC2's 64-dim ones) on one shared
 * RM-SSD / RmSsdCluster, with per-tenant isolation and stats.
 *
 * A TenantSpec binds a model spec to a tenant id, a locality profile
 * and a host-DRAM share. TenantFleet is an engine::InferenceDevice front:
 * tenant-tagged requests flow through the existing submit/poll/drain
 * path of one shared backend whose flash holds the union layout of
 * every tenant's tables.
 *
 * **Union layout (global-id offsetting + dim-lane splitting).** The
 * backend serves one ModelConfig whose embDim is the minimum tenant
 * dim; a tenant table of k*embDim splits into k consecutive union
 * tables ("lanes") that receive the same index list, so its pooled
 * vector is the concatenation of the lanes' pooled partials. Pooling
 * folds per column independently and lanes preserve the lookup
 * order, so a tenant's pooled floats are bit-identical to a bare
 * device serving that tenant's slots (the same
 * ModelConfig::withTableSubset idiom the cluster tests rely on).
 * Union slots are globally numbered, so tenants' tables coexist on
 * one flash layout without id collisions.
 *
 * **Isolation.** Per-tenant inflight caps are not enforced here: they
 * are class caps of the serving loop (TenantLoad::maxInflight ->
 * workload::ServingClass::maxInflight), which holds a tenant at its
 * cap out of dispatch so a flash-crowd tenant cannot queue unbounded
 * work ahead of its neighbors. The fleet carves the shared device
 * EV cache per tenant via EvCacheConfig::tableShares
 * (engine::planTablePartitions' largest-remainder quotas make the
 * split structural: one tenant's traffic cannot evict another's
 * partition), and per-tenant host-DRAM budgets carve the shared tier
 * pool via engine::planHostTier.
 *
 * **Stats.** Every tenant exports namespaced `tenant.<id>.*` counters
 * (submitted/retired/samples, service-latency percentiles, QPS, tier
 * hit ratio, queue occupancy) beside the backend's device counters.
 */

#ifndef RMSSD_CATALOG_TENANT_H
#define RMSSD_CATALOG_TENANT_H

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "engine/inference_device.h"
#include "engine/rm_ssd.h"
#include "host/embedding_tier.h"
#include "model/dlrm.h"
#include "sim/stats.h"
#include "sim/types.h"
#include "workload/serving.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd::catalog {

/** One tenant: a catalog model bound to an id and resource policy. */
struct TenantSpec
{
    /** Stats namespace (tenant.<id>.*) and report label. */
    std::string id;
    /** The tenant's model (a catalog model or a scaled variant). */
    model::ModelConfig config;
    /** Locality profile; drives the budget planners' traffic profiling. */
    workload::TraceConfig trace;
    /** Relative weight of the shared host-DRAM pool carve. */
    double tierShare = 1.0;
};

/** Fleet construction options. */
struct FleetOptions
{
    /** Backend width: 1 = single RmSsd, >1 = RmSsdCluster shards. */
    std::uint32_t numDevices = 1;
    /** Router policy of the cluster backend (numDevices > 1). */
    cluster::RouterPolicy policy = cluster::RouterPolicy::LeastOutstanding;
    /**
     * Shared backend knobs (geometry, EV-cache pool, placement...).
     * The variant is forced to EmbeddingOnly whenever the union layout
     * spans several tenants (outputs are the tenants' pooled vectors);
     * a single-tenant fleet keeps the requested variant (bit-exact
     * passthrough).
     */
    engine::RmSsdOptions device;
    /** Shared host-DRAM embedding pool; 0 = no tier. */
    Bytes hostTierBytes;
};

/**
 * The union flash layout of a tenant set: the backend's ModelConfig
 * plus each tenant's lane-expanded slot map.
 */
struct UnionLayout
{
    model::ModelConfig config;
    /**
     * slots[i][t * lanes[i] + l] = union table id of tenant i's table
     * t, lane l. Slots of one tenant are consecutive, table-major.
     */
    std::vector<std::vector<std::uint32_t>> slots;
    /** Lanes per tenant: tenant embDim / union embDim. */
    std::vector<std::uint32_t> lanes;
    /** Single tenant: the union IS the tenant config, verbatim. */
    bool passthrough = false;
};

/**
 * Build the union layout: single tenant passes through verbatim;
 * several tenants combine at embDim = min tenant dim (every tenant
 * dim must be a multiple), rowsPerTable/lookupsPerTable = max, and
 * numTables = sum of lane-expanded table counts.
 */
UnionLayout buildUnionLayout(std::span<const TenantSpec> tenants,
                             std::uint64_t unionSeed);

/** N tenants multiplexed onto one shared RM-SSD backend. */
class TenantFleet : public engine::InferenceDevice
{
  public:
    TenantFleet(std::vector<TenantSpec> tenants,
                const FleetOptions &options);
    ~TenantFleet() override;

    std::size_t numTenants() const { return tenants_.size(); }
    const TenantSpec &tenant(std::size_t i) const;
    const UnionLayout &unionLayout() const { return layout_; }
    /** Union slots (lane-expanded) of tenant @p i. */
    const std::vector<std::uint32_t> &tenantSlots(std::size_t i) const
    {
        return layout_.slots[i];
    }

    /**
     * Issue one request for tenant @p i. Samples are in the TENANT's
     * shape (its numTables / embDim); the fleet remaps them onto the
     * union layout. Applies the backend's maxInflight backpressure;
     * a tenant's inflight cap is the serving loop's class cap
     * (TenantLoad::maxInflight), not a gate here.
     */
    engine::RequestId submitTenant(std::size_t i,
                                   std::span<const model::Sample> samples);

    /** Synchronous submitTenant + drain for tenant @p i. */
    engine::InferenceOutcome
    inferTenant(std::size_t i, std::span<const model::Sample> samples);

    /** Carved host-DRAM budget of tenant @p i (0 without a tier). */
    Bytes tenantTierBudget(std::size_t i) const;
    /** Bytes the tier actually planned for tenant @p i. */
    Bytes tenantTierPlannedBytes(std::size_t i) const;

    // ---- InferenceDevice contract (tenant 0 = default route) ------

    engine::InferenceOutcome
    infer(std::span<const model::Sample> samples) override;
    engine::RequestId
    submit(std::span<const model::Sample> samples) override;
    bool retireNext() override;
    /** Device-side status poll: a queued completion or the backend's. */
    bool oldestDoneBy(Cycle when) const override
    {
        return hasQueuedCompletion() || device_->oldestDoneBy(when);
    }
    /** Backend's next completion cycle (fleet retires stay FIFO). */
    Cycle nextDoneCycle() const override
    {
        return device_->nextDoneCycle();
    }
    std::uint32_t inflight() const override
    {
        return static_cast<std::uint32_t>(inflight_.size());
    }
    void setMaxInflight(std::uint32_t depth) override;
    const model::DlrmModel &model() const override;
    Cycle deviceNow() const override { return device_->deviceNow(); }
    Cycle lastCompletion() const override { return lastCompletion_; }
    void advanceHostClock(Nanos hostNanos) override
    {
        device_->advanceHostClock(hostNanos);
    }
    void resetTiming() override;
    void registerStats(StatsRegistry &registry,
                       const std::string &prefix = "fleet")
        const override;
    const Counter &hostBytesRead() const override
    {
        return device_->hostBytesRead();
    }
    const Counter &hostBytesWritten() const override
    {
        return device_->hostBytesWritten();
    }
    std::uint32_t pipelineMicroBatch() const override
    {
        return device_->pipelineMicroBatch();
    }
    bool hasEvCache() const override { return device_->hasEvCache(); }
    std::uint64_t cacheHits() const override
    {
        return device_->cacheHits();
    }
    std::uint64_t cacheMisses() const override
    {
        return device_->cacheMisses();
    }
    bool replanIfDrifted(double threshold) override
    {
        return device_->replanIfDrifted(threshold);
    }
    std::uint64_t replanCount() const override
    {
        return device_->replanCount();
    }
    std::uint64_t migrateIfDrifted() override
    {
        return device_->migrateIfDrifted();
    }
    std::uint64_t migratedPageCount() const override
    {
        return device_->migratedPageCount();
    }
    const host::EmbeddingTier *hostTier() const override
    {
        return device_->hostTier();
    }
    /**
     * Tier slices attributed to the tenants, summed: only a tenant's
     * own table slices count. (The backend's union counters also
     * count every other tenant's empty slots as hits.)
     */
    std::uint64_t tierSliceHits() const override;
    std::uint64_t tierSliceMisses() const override;
    void setChargeActualIndexBytes(bool on) override
    {
        device_->setChargeActualIndexBytes(on);
    }

  private:
    /** Per-tenant runtime state (stable addresses for stat gauges). */
    struct TenantState
    {
        TenantSpec spec;
        std::uint32_t inflightCount = 0;
        Cycle lastCompletion;
        Bytes tierBudget;
        Bytes tierPlanned;
        Counter submitted;
        Counter retired;
        Counter samples;
        Counter tierSliceHits;
        Counter tierSliceMisses;
        Distribution inflightOnSubmit;
        workload::LatencyRecorder latencies;
    };

    /** One issued-but-not-retired fleet request. */
    struct FleetInflight
    {
        engine::RequestId fleetId = 0;
        engine::RequestId deviceId = 0;
        std::size_t tenant = 0;
        std::size_t numSamples = 0;
    };

    /** Remap tenant samples onto the union layout (lane duplication). */
    std::vector<model::Sample>
    remapSamples(std::size_t i,
                 std::span<const model::Sample> samples) const;

    /** Probe the shared tier for per-tenant slice-hit attribution. */
    void attributeTierSlices(std::size_t i,
                             std::span<const model::Sample> samples);

    /** Finalize the oldest fleet request from @p completion. */
    void finalize(engine::AsyncCompletion completion);

    /** Harvest every backend completion already retired. */
    void harvest();

    /** Carve the EV-cache pool into per-tenant tableShares. */
    void carveEvCacheShares(
        engine::RmSsdOptions &deviceOptions,
        const std::vector<
            std::vector<workload::TraceGenerator::TableHistogram>>
            &histograms) const;

    /** Plan + provision the shared host tier from per-tenant budgets. */
    void provisionSharedTier(
        const FleetOptions &options,
        const std::vector<
            std::vector<workload::TraceGenerator::TableHistogram>>
            &histograms);

    UnionLayout layout_;
    FleetOptions options_;
    std::vector<std::unique_ptr<TenantState>> tenants_;
    std::unique_ptr<engine::InferenceDevice> device_;
    /** Shared host tier (references device_->model(); declared after
     *  device_ so it destructs first). */
    std::shared_ptr<host::EmbeddingTier> tier_;

    std::deque<FleetInflight> inflight_;
    Cycle lastCompletion_;
};

} // namespace rmssd::catalog

#endif // RMSSD_CATALOG_TENANT_H
