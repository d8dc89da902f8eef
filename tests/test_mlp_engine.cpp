/**
 * @file
 * Tests for the MLP Acceleration Engine: kernel timing formula, the
 * remapped plan (Fig. 8), inter-layer composition (Eq. 1), and the
 * functional exactness of intra-layer decomposition.
 */

#include <gtest/gtest.h>

#include <bit>

#include "engine/fc_kernel.h"
#include "engine/mlp_engine.h"
#include "model/model_zoo.h"

namespace rmssd::engine {
namespace {

TEST(FcKernel, TimeFormulaMatchesPaper)
{
    // T = ceil(R/kr) * ceil(C/kc) * II.
    EXPECT_EQ(fcLayerCycles({256, 64}, {4, 2}, 8),
              Cycle{(256u / 4u) * (64u / 2u) * 8u});
    // Ceilings apply to non-divisible shapes.
    EXPECT_EQ(fcLayerCycles({100, 10}, {16, 16}, 8),
              Cycle{7u * 1u * 8u});
}

TEST(FcKernel, ClampKernelBoundsToShape)
{
    const KernelConfig k = clampKernel({16, 16}, {8, 1});
    EXPECT_EQ(k.kr, 8u);
    EXPECT_EQ(k.kc, 1u);
}

TEST(MlpPlan, DecomposedPlanSplitsL0)
{
    const model::ModelConfig cfg = model::rmc1();
    const MlpPlan plan = makePlan(cfg, {16, 16}, true, true);

    // bot' = Lb0, Lb1, Lb (Fig. 8's new bottom MLP).
    ASSERT_EQ(plan.bottom.size(), 3u);
    EXPECT_EQ(plan.bottom[0].label, "Lb0");
    EXPECT_EQ(plan.bottom[2].label, "Lb");
    EXPECT_EQ(plan.bottom[2].shape, (model::LayerShape{32, 256}));
    EXPECT_EQ(plan.bottom[2].role, LayerRole::BottomSplit);

    // Le takes the embedding columns of L0.
    EXPECT_EQ(plan.embeddingSplit.shape,
              (model::LayerShape{256, 256}));
    EXPECT_EQ(plan.embeddingSplit.role, LayerRole::EmbeddingSplit);

    // top' keeps Lt1, Lt2.
    ASSERT_EQ(plan.top.size(), 2u);
    EXPECT_EQ(plan.top[0].shape, (model::LayerShape{256, 64}));
    EXPECT_EQ(plan.top[1].shape, (model::LayerShape{64, 1}));
}

TEST(MlpPlan, NaivePlanKeepsL0Whole)
{
    const model::ModelConfig cfg = model::rmc1();
    const MlpPlan plan = makePlan(cfg, {16, 16}, false, false);
    ASSERT_EQ(plan.top.size(), 3u);
    EXPECT_EQ(plan.top[0].shape, (model::LayerShape{288, 256}));
    EXPECT_EQ(plan.bottom.size(), 2u);
}

TEST(MlpPlan, AllLayersAndBramBytes)
{
    const model::ModelConfig cfg = model::rmc1();
    MlpPlan plan = makePlan(cfg, {16, 16}, true, true);
    EXPECT_EQ(plan.allLayers().size(), 6u);
    // Weight bytes of the decomposition equal the undecomposed model
    // (the split is column-wise, no duplication).
    const MlpPlan naive = makePlan(cfg, {16, 16}, false, false);
    EXPECT_EQ(plan.bramWeightBytes(), naive.bramWeightBytes());
    // DRAM spill removes a layer's bytes from BRAM.
    const std::uint64_t le = plan.embeddingSplit.weightBytes();
    plan.embeddingSplit.weightsInDram = true;
    EXPECT_EQ(plan.bramWeightBytes(), naive.bramWeightBytes() - le);
}

TEST(Composition, PairwiseMaxBeatsSequential)
{
    // Eq. 1b/1c vs the unpaired sum (Fig. 9).
    const model::ModelConfig cfg = model::rmc3();
    const MlpPlan plan = makePlan(cfg, {16, 16}, true, true);
    const Cycle composed = composedCycles(plan.bottom, 8);
    const Cycle sequential = sequentialCycles(plan.bottom, 8);
    EXPECT_LT(composed, sequential);
    // And the pairing is exact: sum over pairs of max.
    Cycle expect{};
    for (std::size_t i = 0; i < plan.bottom.size(); i += 2) {
        Cycle pair = fcLayerCycles(plan.bottom[i], 8);
        if (i + 1 < plan.bottom.size())
            pair = std::max(pair, fcLayerCycles(plan.bottom[i + 1], 8));
        expect += pair;
    }
    EXPECT_EQ(composed, expect);
}

TEST(PlanTiming, EmbPrimeIsMaxOfReadsAndLe)
{
    const model::ModelConfig cfg = model::rmc1();
    MlpPlan plan = makePlan(cfg, {16, 16}, true, true);
    plan.microBatch = 1;
    const Cycle le = fcLayerCycles(plan.embeddingSplit, plan.ii);

    const MlpTiming slowReads = planTiming(plan, le * 10);
    EXPECT_EQ(slowReads.embPrime, le * 10);
    const MlpTiming fastReads = planTiming(plan, le / 10);
    EXPECT_EQ(fastReads.embPrime, le);
}

TEST(PlanTiming, PipelineIntervalIsBottleneckStage)
{
    const model::ModelConfig cfg = model::rmc1();
    MlpPlan plan = makePlan(cfg, {16, 16}, true, true);
    plan.microBatch = 1;
    const MlpTiming t = planTiming(plan, Cycle{100000});
    EXPECT_EQ(t.pipelineInterval,
              std::max({t.embPrime, t.botPrime, t.topPrime}));
    EXPECT_EQ(t.latency, std::max(t.embPrime, t.botPrime) + t.topPrime);
}

TEST(PlanTiming, NaiveHasNoStageOverlap)
{
    const model::ModelConfig cfg = model::rmc1();
    MlpPlan plan = makePlan(cfg, {16, 16}, false, false);
    plan.microBatch = 1;
    const MlpTiming t = planTiming(plan, Cycle{5000});
    EXPECT_EQ(t.pipelineInterval, t.latency);
    EXPECT_EQ(t.latency,
              std::max(Cycle{5000}, t.botPrime) + t.topPrime);
}

TEST(PlanTiming, MicroBatchAboveIiDies)
{
    const model::ModelConfig cfg = model::rmc1();
    MlpPlan plan = makePlan(cfg, {16, 16}, true, true);
    plan.microBatch = plan.ii + 1;
    EXPECT_DEATH(planTiming(plan, Cycle{1000}), "micro-batch");
}

class DecomposedForwardTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DecomposedForwardTest, EqualsReferenceInference)
{
    // Intra-layer decomposition must be functionally exact for every
    // model in the zoo.
    model::ModelConfig cfg = model::modelByName(GetParam());
    cfg.withRowsPerTable(128);
    const model::DlrmModel m(cfg);
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const model::Sample s = m.makeSample(seed);
        const model::Vector pooled =
            m.embedding().pooledReference(s.indices);
        const float ref = m.inferenceWithPooled(s.dense, pooled);
        const float dec = decomposedForward(m, s.dense, pooled);
        EXPECT_NEAR(ref, dec, 1e-5f) << GetParam() << " seed " << seed;
    }
}

TEST_P(DecomposedForwardTest, BitEqualToReferenceInference)
{
    // Le and Lb share L0's accumulators through the one GEMV kernel,
    // so the decomposed pass reproduces the reference's bits.
    model::ModelConfig cfg = model::modelByName(GetParam());
    cfg.withRowsPerTable(64);
    const model::DlrmModel m(cfg);
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const model::Sample s = m.makeSample(seed);
        const model::Vector pooled =
            m.embedding().pooledReference(s.indices);
        const float ref = m.inferenceWithPooled(s.dense, pooled);
        const float dec = decomposedForward(m, s.dense, pooled);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(ref),
                  std::bit_cast<std::uint32_t>(dec))
            << GetParam() << " seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, DecomposedForwardTest,
                         ::testing::Values("RMC1", "RMC2", "RMC3",
                                           "NCF", "WnD"));

} // namespace
} // namespace rmssd::engine
