/**
 * @file
 * MLP Acceleration Engine (Section IV-C): the recommendation model's
 * FC layers remapped onto the FPGA.
 *
 * - Intra-layer decomposition (IV-C2, Fig. 8): the first top-MLP layer
 *   L0 splits column-wise into Lb (fed by the bottom MLP) and Le (fed
 *   by the embedding engine), removing the concat barrier.
 * - Inter-layer composition (IV-C3, Fig. 9): adjacent layers alternate
 *   scan direction, so a pair costs max(T_i, T_i+1) instead of
 *   T_i + T_i+1 (Eq. 1b/1c).
 * - The engine is both timed (Eq. 1) and functional: the decomposed
 *   forward pass provably equals the reference DLRM inference.
 */

#ifndef RMSSD_ENGINE_MLP_ENGINE_H
#define RMSSD_ENGINE_MLP_ENGINE_H

#include <cstdint>
#include <vector>

#include "engine/fc_kernel.h"
#include "model/dlrm.h"
#include "sim/types.h"

namespace rmssd::engine {

/** The model's FC layers as mapped onto the FPGA. */
struct MlpPlan
{
    /** bot': original bottom layers, then Lb when decomposed. */
    std::vector<EngineLayer> bottom;
    /** Le (embedding part of L0); unused when !decomposed. */
    EngineLayer embeddingSplit;
    /** top': layers after L0 when decomposed, else L0 + the rest. */
    std::vector<EngineLayer> top;

    std::uint32_t ii = kDefaultII;
    /** Micro-batch Nbatch (Rule Three); samples sharing the II slots. */
    std::uint32_t microBatch = 1;
    bool decomposed = true; //!< intra-layer decomposition applied
    bool composed = true;   //!< inter-layer composition applied

    /** All FC layers of the plan (for resource accounting). */
    std::vector<EngineLayer> allLayers() const;

    /** Total weight bytes held on-chip (BRAM) by this plan. */
    std::uint64_t bramWeightBytes() const;
};

/**
 * Build a plan for @p config with every layer at @p kernel (clamped to
 * layer dimensions). Used as the naive/default configuration and as
 * the kernel search starting point.
 */
MlpPlan makePlan(const model::ModelConfig &config,
                 const KernelConfig &kernel, bool decompose,
                 bool compose);

/** Timing of one micro-batch through the plan (Eq. 1a-1c). */
struct MlpTiming
{
    Cycle embPrime; //!< Eq. 1a: max(flash reads, Le)
    Cycle botPrime; //!< Eq. 1b
    Cycle topPrime; //!< Eq. 1c
    /** Steady-state initiation interval of the inference pipeline. */
    Cycle pipelineInterval;
    /** Fill latency of one micro-batch through all stages. */
    Cycle latency;
};

/**
 * Evaluate Eq. 1 for @p plan given the flash read time of one
 * micro-batch, @p embReadCycles.
 */
MlpTiming planTiming(const MlpPlan &plan, Cycle embReadCycles);

/** Composed sequence cost: sum over adjacent pairs of max(Ti, Ti+1). */
Cycle composedCycles(const std::vector<EngineLayer> &layers,
                     std::uint32_t ii);

/** Uncomposed sequence cost: plain sum of layer times. */
Cycle sequentialCycles(const std::vector<EngineLayer> &layers,
                       std::uint32_t ii);

/**
 * Functional decomposed forward: computes the model output from dense
 * input and pooled embeddings along the decomposed topology (Le and
 * Lb evaluated separately, partial sums merged, then the remaining
 * top layers). Le and Lb share L0's per-output accumulator through
 * model::gemv(), so the result equals DlrmModel::inferenceWithPooled
 * bit for bit.
 */
float decomposedForward(const model::DlrmModel &model,
                        const model::Vector &dense,
                        const model::Vector &pooled);

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_MLP_ENGINE_H
