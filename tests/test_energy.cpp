/**
 * @file
 * Tests for the energy model: MAC accounting, per-component
 * arithmetic, and the in-device vs host efficiency relation.
 */

#include <gtest/gtest.h>

#include "engine/energy_model.h"
#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "workload/driver.h"

namespace rmssd::engine {
namespace {

TEST(EnergyModel, MacsPerSampleCountsAllLayersAndPooling)
{
    model::ModelConfig cfg;
    cfg.name = "tiny";
    cfg.bottomWidths = {8, 4};
    cfg.topWidths = {4, 1};
    cfg.embDim = 2;
    cfg.numTables = 3;
    cfg.lookupsPerTable = 5;
    cfg.rowsPerTable = 16;

    // Layers: (8,4), (topIn=3*2+4=10 -> 4), (4,1).
    const std::uint64_t mlpMacs = 8 * 4 + 10 * 4 + 4 * 1;
    const std::uint64_t poolAdds = 15 * 2; // lookups * dim
    EXPECT_EQ(EnergyModel::macsPerSample(cfg), mlpMacs + poolAdds);
}

TEST(EnergyModel, ReportTotalsSumComponents)
{
    EnergyReport r;
    r.flashJ = 1.0;
    r.computeJ = 2.0;
    r.transferJ = 3.0;
    r.staticJ = 4.0;
    r.hostJ = 5.0;
    EXPECT_DOUBLE_EQ(r.total(), 15.0);
}

TEST(EnergyModel, HostWindowChargesCpu)
{
    const EnergyModel energy;
    const model::ModelConfig cfg = model::rmc1();
    const EnergyReport r = energy.hostWindow(
        cfg, /*elapsed=*/Nanos{1'000'000'000},
        /*hostBusy=*/Nanos{1'000'000'000},
        /*inferences=*/0, /*deviceBytes=*/Bytes{}, /*pageReads=*/0);
    // One second busy at the configured host wattage.
    EXPECT_DOUBLE_EQ(r.hostJ, energy.costs().hostCpuWatts);
    EXPECT_DOUBLE_EQ(r.staticJ, energy.costs().ssdStaticWatts);
}

TEST(EnergyModel, RmSsdWindowScalesWithCounters)
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(4096);
    cfg.lookupsPerTable = 8;

    RmSsd dev(cfg, {});
    dev.loadTables();
    const EnergyModel energy;

    std::vector<model::Sample> batch{dev.model().makeSample(0)};
    dev.infer(batch);
    const EnergyReport one =
        energy.rmSsdWindow(dev, Nanos{1'000'000}, 1);
    for (int i = 0; i < 9; ++i)
        dev.infer(batch);
    const EnergyReport ten =
        energy.rmSsdWindow(dev, Nanos{1'000'000}, 10);

    // Flash and transfer energies track the 10x counter growth.
    EXPECT_NEAR(ten.flashJ / one.flashJ, 10.0, 0.5);
    EXPECT_NEAR(ten.computeJ / one.computeJ, 10.0, 0.01);
    // Static energy depends only on the window length.
    EXPECT_DOUBLE_EQ(ten.staticJ, one.staticJ);
}

TEST(EnergyModel, InDeviceBeatsHostPerInference)
{
    // The Section III-B3 claim: ISC burns far less energy per query
    // than shuttling pages to a 100 W host.
    const model::ModelConfig cfg = model::rmc1();
    const EnergyModel energy;

    // RM-SSD: ~600 us/inference, 640 vector reads.
    model::ModelConfig small = cfg;
    small.withRowsPerTable(100000);
    RmSsd dev(small, {});
    dev.loadTables();
    const double qps = workload::steadyStateQps(dev, 4, 8);
    const std::uint64_t n = dev.inferences().value();
    const Nanos elapsed{static_cast<std::uint64_t>(
        1e9 * static_cast<double>(n) / qps)};
    const double devicePerInf =
        energy.rmSsdWindow(dev, elapsed, n).total() /
        static_cast<double>(n);

    // Naive SSD host: ~15 ms busy and ~1.7 MB of page fills per
    // inference (from the Fig. 2 / Fig. 3 measurements).
    const double hostPerInf =
        energy
            .hostWindow(cfg, Nanos{15'000'000}, Nanos{15'000'000}, 1,
                        /*deviceBytes=*/Bytes{1'700'000},
                        /*pageReads=*/420)
            .total();

    EXPECT_LT(devicePerInf * 20.0, hostPerInf);
}

} // namespace
} // namespace rmssd::engine
