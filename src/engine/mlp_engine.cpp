#include "engine/mlp_engine.h"

#include <algorithm>

#include "sim/log.h"

namespace rmssd::engine {

namespace {

EngineLayer
makeLayer(std::string label, const model::LayerShape &shape,
          const KernelConfig &kernel, LayerRole role, bool rowFirst)
{
    EngineLayer layer;
    layer.label = std::move(label);
    layer.shape = shape;
    layer.kernel = clampKernel(kernel, shape);
    layer.role = role;
    layer.scan = rowFirst ? ScanDirection::RowFirst
                          : ScanDirection::ColumnFirst;
    return layer;
}

} // namespace

std::vector<EngineLayer>
MlpPlan::allLayers() const
{
    std::vector<EngineLayer> layers = bottom;
    if (decomposed)
        layers.push_back(embeddingSplit);
    layers.insert(layers.end(), top.begin(), top.end());
    return layers;
}

std::uint64_t
MlpPlan::bramWeightBytes() const
{
    std::uint64_t bytes = 0;
    for (const EngineLayer &layer : allLayers()) {
        if (!layer.weightsInDram)
            bytes += layer.weightBytes();
    }
    return bytes;
}

MlpPlan
makePlan(const model::ModelConfig &config, const KernelConfig &kernel,
         bool decompose, bool compose)
{
    MlpPlan plan;
    plan.decomposed = decompose;
    plan.composed = compose;

    const auto bottomShapes = config.bottomShapes();
    const auto topShapes = config.topShapes();
    RMSSD_ASSERT(!topShapes.empty(), "model without a top MLP");

    std::uint32_t pos = 0;
    for (std::size_t i = 0; i < bottomShapes.size(); ++i) {
        plan.bottom.push_back(makeLayer("Lb" + std::to_string(i),
                                        bottomShapes[i], kernel,
                                        LayerRole::Bottom,
                                        compose && (pos % 2 == 1)));
        ++pos;
    }

    const model::LayerShape l0 = topShapes.front();
    if (decompose) {
        // Fig. 8: L0's columns split between the bottom-MLP part Rb
        // and the embedding part Re.
        const model::LayerShape lbShape{config.bottomOutputDim(),
                                        l0.outputs};
        const model::LayerShape leShape{config.numTables * config.embDim,
                                        l0.outputs};
        plan.bottom.push_back(makeLayer("Lb", lbShape, kernel,
                                        LayerRole::BottomSplit,
                                        compose && (pos % 2 == 1)));
        plan.embeddingSplit = makeLayer("Le", leShape, kernel,
                                        LayerRole::EmbeddingSplit,
                                        false);
        ++pos;
    } else {
        plan.top.push_back(makeLayer("Lt0", l0, kernel, LayerRole::Top,
                                     compose && (pos % 2 == 1)));
        ++pos;
    }
    for (std::size_t j = 1; j < topShapes.size(); ++j) {
        plan.top.push_back(makeLayer("Lt" + std::to_string(j),
                                     topShapes[j], kernel,
                                     LayerRole::Top,
                                     compose && (pos % 2 == 1)));
        ++pos;
    }
    return plan;
}

Cycle
composedCycles(const std::vector<EngineLayer> &layers, std::uint32_t ii)
{
    // Eq. 1b/1c: adjacent layers pair up; each pair costs the max of
    // its two members, an odd tail layer costs itself.
    Cycle total;
    for (std::size_t i = 0; i < layers.size(); i += 2) {
        Cycle pair = fcLayerCycles(layers[i], ii);
        if (i + 1 < layers.size()) {
            pair = std::max(pair, fcLayerCycles(layers[i + 1], ii));
        }
        total += pair;
    }
    return total;
}

Cycle
sequentialCycles(const std::vector<EngineLayer> &layers, std::uint32_t ii)
{
    Cycle total;
    for (const EngineLayer &layer : layers)
        total += fcLayerCycles(layer, ii);
    return total;
}

MlpTiming
planTiming(const MlpPlan &plan, Cycle embReadCycles)
{
    RMSSD_ASSERT(plan.microBatch >= 1 && plan.microBatch <= plan.ii,
                 "micro-batch must be in [1, II]");
    MlpTiming t;

    const auto seqCost = [&](const std::vector<EngineLayer> &layers) {
        return plan.composed ? composedCycles(layers, plan.ii)
                             : sequentialCycles(layers, plan.ii);
    };

    t.botPrime = seqCost(plan.bottom);
    t.topPrime = seqCost(plan.top);
    if (plan.decomposed) {
        // Eq. 1a: lookups and Le proceed concurrently.
        t.embPrime = std::max(
            embReadCycles, fcLayerCycles(plan.embeddingSplit, plan.ii));
        t.pipelineInterval =
            std::max({t.embPrime, t.botPrime, t.topPrime});
        t.latency = std::max(t.embPrime, t.botPrime) + t.topPrime;
    } else {
        // Concat barrier: embedding and bottom finish, then the whole
        // top MLP (including the undecomposed L0) runs; no stage
        // pipelining across micro-batches.
        t.embPrime = embReadCycles;
        t.latency = std::max(t.embPrime, t.botPrime) + t.topPrime;
        t.pipelineInterval = t.latency;
    }
    return t;
}

float
decomposedForward(const model::DlrmModel &model,
                  const model::Vector &dense,
                  const model::Vector &pooled)
{
    const model::ModelConfig &cfg = model.config();
    const std::uint32_t embWidth = cfg.numTables * cfg.embDim;
    RMSSD_ASSERT(pooled.size() == embWidth, "pooled width mismatch");

    const model::Vector bottomOut = model.bottomMlp().forward(dense);

    const model::FcLayer &l0 = model.topMlp().layers().front();
    RMSSD_ASSERT(l0.inputs() == embWidth + bottomOut.size(),
                 "L0 input is not the interaction concat");

    // Le over the pooled columns and Lb over the bottom-MLP columns
    // merge in one accumulator per output: no concat barrier.
    model::Vector v = l0.forward(pooled, bottomOut);
    const auto &layers = model.topMlp().layers();
    for (std::size_t j = 1; j < layers.size(); ++j)
        v = layers[j].forward(v);
    RMSSD_ASSERT(v.size() == 1, "top MLP must emit one CTR value");
    return v[0];
}

} // namespace rmssd::engine
