#include "host/embedding_tier.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"

namespace rmssd::host {

EmbeddingTier::EmbeddingTier(const model::DlrmModel &model,
                             const TierTiming &timing)
    : model_(model), timing_(timing)
{
    tables_.resize(model_.config().numTables);
}

void
EmbeddingTier::provision(const engine::TierPlan &plan)
{
    for (TableResidency &table : tables_)
        table = TableResidency{};
    residentRows_ = 0;
    residentBytes_ = Bytes{0};

    const model::ModelConfig &cfg = model_.config();
    for (const engine::TierPlanEntry &entry : plan.entries) {
        RMSSD_ASSERT(entry.table.raw() < tables_.size(),
                     "tier plan table out of range");
        TableResidency &table = tables_[entry.table.raw()];
        if (entry.wholeTable) {
            table.whole = true;
            residentRows_ += cfg.rowsPerTable;
            continue;
        }
        table.rows.reserve(table.rows.size() + entry.rows.size());
        for (const EvIndex row : entry.rows) {
            RMSSD_ASSERT(row.raw() < cfg.rowsPerTable,
                         "tier plan row out of range");
            table.rows.push_back(row.raw());
        }
    }
    for (TableResidency &table : tables_) {
        std::sort(table.rows.begin(), table.rows.end());
        table.rows.erase(std::unique(table.rows.begin(), table.rows.end()),
                         table.rows.end());
        residentRows_ += table.rows.size();
    }
    residentBytes_ = Bytes{residentRows_ * cfg.vectorBytes()};
}

bool
EmbeddingTier::TableResidency::contains(std::uint64_t row) const
{
    return whole || std::binary_search(rows.begin(), rows.end(), row);
}

bool
EmbeddingTier::resident(std::uint32_t globalTable,
                        std::uint64_t row) const
{
    RMSSD_ASSERT(globalTable < tables_.size(), "table out of range");
    return tables_[globalTable].contains(row);
}

EmbeddingTier::Intercept
EmbeddingTier::intercept(std::span<const model::Sample> samples,
                         bool functional)
{
    Intercept icpt;
    icpt.residual.assign(samples.begin(), samples.end());
    icpt.served.resize(samples.size());
    requests_.inc();

    const model::ModelConfig &cfg = model_.config();
    const std::uint64_t vecBytes = cfg.vectorBytes();
    for (std::size_t s = 0; s < samples.size(); ++s) {
        model::Sample &sample = icpt.residual[s];
        icpt.served[s].reserve(sample.indices.size());
        for (std::uint32_t t = 0; t < sample.indices.size(); ++t) {
            std::vector<std::uint64_t> &slice = sample.indices[t];
            const std::uint32_t global = cfg.globalTableId(t);
            const TableResidency &table = tables_[global];
            const bool hit =
                (table.whole || !table.rows.empty()) &&
                std::all_of(slice.begin(), slice.end(),
                            [&](std::uint64_t row) {
                                return table.contains(row);
                            });
            if (!hit) {
                sliceMisses_.inc();
                icpt.residualIndices += slice.size();
                continue;
            }
            sliceHits_.inc();
            ++icpt.servedSlices;
            icpt.servedRows += slice.size();
            ServedSlice &served = icpt.served[s].emplace_back();
            served.table = t;
            if (functional)
                served.pooled =
                    model_.embedding().tables()[t].slsReference(slice);
            slice.clear();
        }
    }

    icpt.servedBytes = Bytes{icpt.servedRows * vecBytes};
    rowsServed_.inc(icpt.servedRows);
    bytesServed_.inc(icpt.servedBytes.raw());

    // All-integer DRAM cost: fixed dispatch + per-row random access +
    // streamed bytes (ceil so a served byte never rounds to free).
    icpt.hostNanos = Nanos{
        timing_.perRequestNanos.raw() +
        icpt.servedRows * timing_.perRowNanos.raw() +
        static_cast<std::uint64_t>(
            std::ceil(static_cast<double>(icpt.servedBytes.raw()) *
                      timing_.nanosPerByte))};
    return icpt;
}

std::uint64_t
EmbeddingTier::residentRows(std::uint32_t globalTable) const
{
    RMSSD_ASSERT(globalTable < tables_.size(), "table out of range");
    const TableResidency &table = tables_[globalTable];
    return table.whole ? model_.config().rowsPerTable
                       : table.rows.size();
}

void
EmbeddingTier::registerStats(StatsRegistry &registry,
                             const std::string &prefix) const
{
    registry.addCounter(prefix + ".hits", &sliceHits_);
    registry.addCounter(prefix + ".misses", &sliceMisses_);
    registry.addCounter(prefix + ".rows", &rowsServed_);
    registry.addCounter(prefix + ".bytes", &bytesServed_);
    registry.addCounter(prefix + ".requests", &requests_);
    registry.addRatio(prefix + ".hitRatio", &sliceHits_, &sliceMisses_);
    registry.addGauge(prefix + ".residentBytes",
                      [this] { return residentBytes_.raw(); });
    for (std::uint32_t t = 0; t < tables_.size(); ++t)
        registry.addGauge(prefix + ".table" + std::to_string(t) +
                              ".residentRows",
                          [this, t] { return residentRows(t); });
}

} // namespace rmssd::host
