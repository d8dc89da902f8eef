#include "host/embedding_tier.h"

#include <algorithm>
#include <cmath>

#include "sim/log.h"

namespace rmssd::host {

EmbeddingTier::EmbeddingTier(const model::DlrmModel &model)
    : model_(model)
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
    storedRows_ = 0;

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
        for (const EvIndex row : entry.rows) {
            RMSSD_ASSERT(row.raw() < cfg.rowsPerTable,
                         "tier plan row out of range");
            bool created = false;
            std::uint32_t &slot =
                table.slots.findOrInsert(row.raw(), created);
            if (created) {
                RMSSD_ASSERT(table.slots.size() <= UINT32_MAX,
                             "tier table slots exhausted");
                slot = static_cast<std::uint32_t>(table.slots.size() - 1);
            }
        }
    }
    for (const TableResidency &table : tables_)
        residentRows_ += table.slots.size();
    residentBytes_ = Bytes{residentRows_ * cfg.vectorBytes()};
}

bool
EmbeddingTier::resident(std::uint32_t globalTable,
                        std::uint64_t row) const
{
    RMSSD_ASSERT(globalTable < tables_.size(), "table out of range");
    return tables_[globalTable].slotOf(row) != kNotResident;
}

model::Vector
EmbeddingTier::poolStored(TableResidency &table, std::uint32_t local,
                          std::span<const std::uint64_t> rows)
{
    const model::EmbeddingTableSpec &spec =
        model_.embedding().tables()[local];
    const std::uint64_t dim = spec.dim;
    if (!table.values) {
        const std::uint64_t numSlots =
            table.whole ? model_.config().rowsPerTable : table.slots.size();
        table.values = std::make_unique_for_overwrite<float[]>(numSlots * dim);
        table.filled.assign(numSlots, false);
    }
    // Each element folds the slice's rows in lookup order, as
    // slsReference and the device's EV sum do.
    model::Vector acc(dim, 0.0f);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::uint64_t slot = slotBuf_[i];
        float *row = table.values.get() + slot * dim;
        if (!table.filled[slot]) {
            spec.fillRows(rows[i], 1, {row, dim});
            table.filled[slot] = true;
            ++storedRows_;
        }
        for (std::uint64_t d = 0; d < dim; ++d)
            acc[d] += row[d];
    }
    return acc;
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
            TableResidency &table = tables_[global];
            // One probe per row answers whether it is resident and
            // where it is stored.
            bool hit = table.whole || table.slots.size() > 0;
            slotBuf_.clear();
            for (std::size_t i = 0; hit && i < slice.size(); ++i) {
                const std::uint64_t slot = table.slotOf(slice[i]);
                hit = slot != kNotResident;
                slotBuf_.push_back(slot);
            }
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
                served.pooled = poolStored(table, t, slice);
            slice.clear();
        }
    }

    icpt.servedBytes = Bytes{icpt.servedRows * vecBytes};
    rowsServed_.inc(icpt.servedRows);
    bytesServed_.inc(icpt.servedBytes.raw());

    // All-integer DRAM cost: fixed dispatch + per-row random access +
    // streamed bytes (ceil so a served byte never rounds to free).
    icpt.hostNanos = Nanos{
        kTierPerRequestNanos.raw() +
        icpt.servedRows * kTierPerRowNanos.raw() +
        static_cast<std::uint64_t>(
            std::ceil(static_cast<double>(icpt.servedBytes.raw()) *
                      kTierNanosPerByte))};
    return icpt;
}

std::uint64_t
EmbeddingTier::residentRows(std::uint32_t globalTable) const
{
    RMSSD_ASSERT(globalTable < tables_.size(), "table out of range");
    const TableResidency &table = tables_[globalTable];
    return table.whole ? model_.config().rowsPerTable
                       : table.slots.size();
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
