/**
 * @file
 * Model + system catalog: the one factory for every comparison
 * system, keyed by the paper's system names.
 *
 * A ModelCatalog holds two kinds of entries:
 *  - named model specs (`model::ModelConfig`) — the zoo models plus
 *    any bench-local variants a caller registers; and
 *  - named system recipes (`SystemRecipe`) — how to turn a config
 *    into a live `baseline::InferenceSystem`, with the tuning knobs
 *    (SSD utilization, engine variant, EV-cache delta, cluster
 *    options) as data instead of copy-paste construction blocks.
 *
 * The paper-name strings ("DRAM", ..., "RM-SSD+part", "RM-SSD x4")
 * are builtin() entries, so every fig02–fig19 golden keeps building
 * byte-identical systems; makeSystem() looks them up in builtin().
 */

#ifndef RMSSD_CATALOG_CATALOG_H
#define RMSSD_CATALOG_CATALOG_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/system.h"
#include "cluster/cluster.h"
#include "engine/ev_cache.h"
#include "engine/rm_ssd.h"
#include "model/dlrm.h"

namespace rmssd::catalog {

/**
 * How a catalog entry turns a ModelConfig into a live system. One
 * recipe kind per architecture; the knobs below the kind are only
 * read by the kinds that need them.
 */
struct SystemRecipe
{
    enum class Kind : std::uint8_t
    {
        Dram,          ///< host DRAM baseline
        SsdNaive,      ///< block SSD + host MLP (utilization knob)
        EmbMmio,       ///< embedding offload, MMIO result path
        EmbPageSum,    ///< embedding offload, page-granular pooling
        EmbVectorSum,  ///< embedding offload, vector-granular pooling
        Recssd,        ///< RecSSD-style host-managed offload
        RmSsd,         ///< full in-storage inference (variant knob)
        RmSsdCached,   ///< RM-SSD + device EV cache (evCache delta)
        Cluster,       ///< scale-out RM-SSD fleet (cluster options)
    };

    Kind kind = Kind::RmSsd;

    /** SsdNaive: fraction of raw SSD bandwidth the host path sees. */
    double ssdUtilization = 0.25;

    /** RmSsd: kernel-search vs naive engine. */
    engine::EngineVariant variant = engine::EngineVariant::Searched;

    /**
     * RmSsdCached: the one EvCacheConfig delta that distinguishes the
     * cache variants (+cache = defaults, +lfu = TinyLFU admission,
     * +part = TinyLFU + per-table partitioning). Copy-paste config
     * blocks fold into this field.
     */
    engine::EvCacheConfig evCache;

    /**
     * RmSsdCached: fill evCache.tableShares with config.numTables
     * equal shares at make() time ("+part" — the catalog has no trace
     * to profile, so tables split evenly; benches with a trace derive
     * shares via workload::planTableShares).
     */
    bool evenTableShares = false;

    /** Cluster: sharding width, router policy, shard options. */
    cluster::ClusterOptions cluster;
};

/** A named system recipe. */
struct SystemEntry
{
    std::string name; ///< unique key (the paper name)
    SystemRecipe recipe;
};

/**
 * Registry of named model specs and system recipes.
 *
 * Determinism audit: entries live in registration-order vectors with
 * std::map name indexes, so listing order is stable across runs and
 * address-space layouts.
 */
class ModelCatalog
{
  public:
    /** Register a model spec keyed by config.name. Fatal on dup. */
    void addModel(const model::ModelConfig &config);

    /** Register a system recipe keyed by entry.name. Fatal on dup. */
    void addSystem(SystemEntry entry);

    /** Look up a registered model spec. Fatal on unknown names. */
    const model::ModelConfig &model(const std::string &name) const;

    /** Look up a registered system entry. Fatal on unknown names. */
    const SystemEntry &system(const std::string &name) const;

    /**
     * System names in registration order.
     * reachability: test-observer — the names that
     * Catalog.EverySystemEntryServesATinyTrace and
     * Registry.BuildsEverySystem build every registered system from.
     */
    std::vector<std::string> systemNames() const;

    /** Instantiate a system recipe for @p config. Fatal on unknown. */
    std::unique_ptr<baseline::InferenceSystem>
    make(const std::string &name, const model::ModelConfig &config) const;

    /** Instantiate a recipe for a registered model, both by name. */
    std::unique_ptr<baseline::InferenceSystem>
    make(const std::string &systemName, const std::string &modelName) const;

    /**
     * The builtin catalog: the five zoo models and every paper
     * system ("DRAM" ... "RM-SSD+part" plus "RM-SSD x2"/"x4").
     */
    static const ModelCatalog &builtin();

  private:
    std::vector<model::ModelConfig> models_;
    std::vector<SystemEntry> systems_;
    std::map<std::string, std::size_t> modelIndex_;
    std::map<std::string, std::size_t> systemIndex_;
};

/** Shorthand for ModelCatalog::builtin().make(name, config). */
std::unique_ptr<baseline::InferenceSystem>
makeSystem(const std::string &name, const model::ModelConfig &config);

} // namespace rmssd::catalog

#endif // RMSSD_CATALOG_CATALOG_H
