#include "model/dlrm.h"

#include <cmath>

#include "sim/log.h"
#include "sim/rng.h"

namespace rmssd::model {

std::uint32_t
ModelConfig::denseInputDim() const
{
    RMSSD_ASSERT(bottomWidths.size() >= 2,
                 "bottom MLP needs input and at least one layer");
    return bottomWidths.front();
}

std::uint32_t
ModelConfig::bottomOutputDim() const
{
    RMSSD_ASSERT(bottomWidths.size() >= 2,
                 "bottom MLP needs input and at least one layer");
    return bottomWidths.back();
}

std::uint32_t
ModelConfig::topInputDim() const
{
    return numTables * embDim + bottomOutputDim();
}

std::uint32_t
ModelConfig::vectorBytes() const
{
    return embDim * static_cast<std::uint32_t>(sizeof(float));
}

std::uint64_t
ModelConfig::embeddingBytes() const
{
    return static_cast<std::uint64_t>(numTables) * rowsPerTable *
           vectorBytes();
}

std::uint64_t
ModelConfig::lookupsPerSample() const
{
    return static_cast<std::uint64_t>(numTables) * lookupsPerTable;
}

std::vector<LayerShape>
ModelConfig::bottomShapes() const
{
    RMSSD_ASSERT(bottomWidths.size() >= 2,
                 "bottom MLP needs input and at least one layer");
    std::vector<LayerShape> shapes;
    for (std::size_t i = 0; i + 1 < bottomWidths.size(); ++i)
        shapes.push_back(LayerShape{bottomWidths[i], bottomWidths[i + 1]});
    return shapes;
}

std::vector<LayerShape>
ModelConfig::topShapes() const
{
    std::vector<LayerShape> shapes;
    std::uint32_t in = topInputDim();
    for (const std::uint32_t w : topWidths) {
        shapes.push_back(LayerShape{in, w});
        in = w;
    }
    return shapes;
}

std::vector<LayerShape>
ModelConfig::allShapes() const
{
    std::vector<LayerShape> shapes = bottomShapes();
    const std::vector<LayerShape> top = topShapes();
    shapes.insert(shapes.end(), top.begin(), top.end());
    return shapes;
}

ModelConfig &
ModelConfig::withTotalEmbeddingGB(double gb)
{
    const double totalBytes = gb * 1e9;
    rowsPerTable = static_cast<std::uint64_t>(
        totalBytes / (static_cast<double>(numTables) * vectorBytes()));
    return *this;
}

ModelConfig &
ModelConfig::withRowsPerTable(std::uint64_t rows)
{
    rowsPerTable = rows;
    return *this;
}

std::uint32_t
ModelConfig::globalTableId(std::uint32_t t) const
{
    RMSSD_ASSERT(t < numTables, "table position out of range");
    if (tableIds.empty())
        return t;
    return tableIds[t];
}

ModelConfig
ModelConfig::withTableSubset(const std::vector<std::uint32_t> &tables) const
{
    RMSSD_ASSERT(!tables.empty(), "empty table subset");
    ModelConfig sub = *this;
    sub.tableIds.clear();
    sub.tableIds.reserve(tables.size());
    for (const std::uint32_t t : tables)
        sub.tableIds.push_back(globalTableId(t));
    sub.numTables = static_cast<std::uint32_t>(tables.size());
    return sub;
}

DlrmModel::DlrmModel(const ModelConfig &config, Weights weights)
    : config_(config),
      bottom_(config.denseInputDim(),
              std::vector<std::uint32_t>(config.bottomWidths.begin() + 1,
                                         config.bottomWidths.end()),
              Activation::Relu, hashCombine(config.seed, 0xb07ULL),
              weights),
      top_(config.topInputDim(), config.topWidths, Activation::Sigmoid,
           hashCombine(config.seed, 0x709ULL), weights)
{
    std::vector<EmbeddingTableSpec> tables;
    tables.reserve(config.numTables);
    for (std::uint32_t t = 0; t < config.numTables; ++t) {
        // Content is a pure function of (seed, tableId): both use the
        // GLOBAL id so a sharded sub-model reproduces the parent's
        // table bytes exactly.
        const std::uint32_t gid = config.globalTableId(t);
        tables.push_back(EmbeddingTableSpec{
            gid, config.rowsPerTable, config.embDim,
            hashCombine(config.seed, 0xe3bULL + gid)});
    }
    embedding_ = EmbeddingLayer(std::move(tables));
}

float
DlrmModel::referenceInference(const Sample &sample) const
{
    const Vector pooled = embedding_.pooledReference(sample.indices);
    return inferenceWithPooled(sample.dense, pooled);
}

float
DlrmModel::inferenceWithPooled(const Vector &dense,
                               const Vector &pooled) const
{
    const Vector bottomOut = bottom_.forward(dense);
    // Feature interaction: concat(embedding pooled, bottom output).
    const Vector topIn = concat(pooled, bottomOut);
    const Vector out = top_.forward(topIn);
    RMSSD_ASSERT(out.size() == 1, "top MLP must emit one CTR value");
    return out[0];
}

Sample
DlrmModel::makeSample(std::uint64_t sampleSeed) const
{
    Sample s;
    s.dense.resize(config_.denseInputDim());
    Rng rng(hashCombine(config_.seed, sampleSeed));
    for (auto &v : s.dense)
        v = static_cast<float>(rng.nextDouble());
    s.indices.resize(config_.numTables);
    for (std::uint32_t t = 0; t < config_.numTables; ++t) {
        s.indices[t].resize(config_.lookupsPerTable);
        for (auto &idx : s.indices[t])
            idx = rng.nextBounded(config_.rowsPerTable);
    }
    return s;
}

} // namespace rmssd::model
