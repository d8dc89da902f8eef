/**
 * @file
 * Capstone test: the paper's headline claims, asserted end-to-end on
 * moderately scaled workloads (full 30 GB sweeps live in bench/).
 * Each test names the claim it guards.
 */

#include <gtest/gtest.h>

#include "baseline/rm_ssd_system.h"
#include "catalog/catalog.h"
#include "engine/embedding_engine.h"
#include "engine/kernel_search.h"
#include "model/model_zoo.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"

namespace rmssd {
namespace {

/** RMC1 scaled so host-side baselines stay fast enough to test. */
model::ModelConfig
scaledRmc1()
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(200000);
    return cfg;
}

double
systemQps(const std::string &name, const model::ModelConfig &cfg,
          std::uint32_t batch = 4)
{
    auto sys = catalog::makeSystem(name, cfg);
    workload::TraceGenerator gen(cfg, workload::localityK(0.3));
    return sys->run(gen, batch, 6, 4).qps();
}

TEST(PaperClaims, Abstract_20to100xOverBaselineSsd)
{
    // "20-100x throughput improvement compared with the baseline SSD"
    const model::ModelConfig cfg = scaledRmc1();
    const double rmssd = systemQps("RM-SSD", cfg);
    const double ssdS = systemQps("SSD-S", cfg);
    EXPECT_GE(rmssd / ssdS, 20.0);
    EXPECT_LE(rmssd / ssdS, 150.0); // and not absurdly beyond
}

TEST(PaperClaims, Abstract_1_5to15xOverRecSSD)
{
    // "1.5-15x improvement compared with the state-of-art [RecSSD]"
    const model::ModelConfig cfg = scaledRmc1();
    const double rmssd = systemQps("RM-SSD", cfg);
    const double recssd = systemQps("RecSSD", cfg);
    EXPECT_GE(rmssd / recssd, 1.5);
    EXPECT_LE(rmssd / recssd, 15.0);
}

TEST(PaperClaims, SectionVIB_VectorSumWithinReachOfDram)
{
    // Fig. 10/11: the Embedding Lookup Engine brings the SLS operator
    // within a small factor of DRAM despite living in flash.
    const model::ModelConfig cfg = scaledRmc1();
    auto vectorSum = catalog::makeSystem("EMB-VectorSum", cfg);
    vectorSum->setSlsOnly(true);
    auto dram = catalog::makeSystem("DRAM", cfg);
    dram->setSlsOnly(true);
    workload::TraceGenerator g1(cfg, workload::localityK(0.3));
    workload::TraceGenerator g2(cfg, workload::localityK(0.3));
    const Nanos tVec = vectorSum->run(g1, 1, 6, 2).latencyPerBatch();
    const Nanos tDram = dram->run(g2, 1, 6, 2).latencyPerBatch();
    EXPECT_LT(tVec, 3 * tDram);
}

TEST(PaperClaims, SectionVIC_LocalityInsensitive)
{
    // Fig. 14: RM-SSD's throughput does not depend on trace locality.
    const model::ModelConfig cfg = scaledRmc1();
    std::vector<double> qps;
    for (const double k : {0.0, 2.0}) {
        baseline::RmSsdSystem sys(cfg);
        workload::TraceGenerator gen(cfg, workload::localityK(k));
        qps.push_back(sys.run(gen, 4, 6, 1).qps());
    }
    EXPECT_NEAR(qps[0] / qps[1], 1.0, 0.15);
}

TEST(PaperClaims, SectionVIC_MlpDominatedBeatsDram)
{
    // Fig. 15: "It even achieves better performance than the
    // all-DRAM version" for NCF and WnD.
    for (const char *name : {"NCF", "WnD"}) {
        model::ModelConfig cfg = model::modelByName(name);
        cfg.withRowsPerTable(200000);
        EXPECT_GT(systemQps("RM-SSD", cfg, 8),
                  systemQps("DRAM", cfg, 8))
            << name;
    }
}

TEST(PaperClaims, SectionVID_KernelSearchSavesOrderOfMagnitude)
{
    // Table VI: "the same performance with one order of magnitude
    // less resource for RMC1 and RMC2".
    for (const char *name : {"RMC1", "RMC2"}) {
        const model::ModelConfig cfg = model::modelByName(name);
        const double rcpv =
            engine::EmbeddingEngine::steadyStateCyclesPerRead(
                flash::tableIIGeometry(), flash::tableIITiming(),
                Bytes{cfg.vectorBytes()});
        const engine::KernelSearch ks;
        const auto searched = ks.search(cfg, rcpv);

        engine::MlpPlan naive = engine::makePlan(
            cfg, engine::KernelConfig{16, 16}, false, false);
        std::vector<std::string> notes;
        ks.placeWeights(naive, notes);
        const auto naiveRes =
            engine::ResourceModel().engineResources(
                naive.allLayers(), naive.ii);

        // Order of magnitude on DSPs; same embedding-bound
        // throughput (both pipelines hide the MLP entirely).
        EXPECT_GE(static_cast<double>(naiveRes.dsp) /
                      static_cast<double>(searched.resources.dsp),
                  10.0)
            << name;
        EXPECT_TRUE(searched.feasible) << name;
    }
}

TEST(PaperClaims, SectionIVB_ReadAmplificationEliminated)
{
    // The Embedding Lookup Engine reads exactly EVsize bytes per
    // lookup off the flash bus — amplification 1.0 by construction.
    model::ModelConfig cfg = scaledRmc1();
    baseline::RmSsdSystem sys(cfg);
    workload::TraceGenerator gen(cfg, workload::localityK(0.3));
    sys.run(gen, 1, 4, 1);
    auto &dev = dynamic_cast<engine::RmSsd &>(sys.device());
    EXPECT_EQ(dev.flash().totalBusBytes(),
              dev.embeddingEngine().lookups().value() *
                  cfg.vectorBytes());
}

} // namespace
} // namespace rmssd
