/**
 * @file
 * Table provisioning study: how long RM_create_table's block-I/O
 * write path takes to load embedding tables of various sizes into
 * the simulated flash, with program accounting.
 *
 * Usage: ./build/examples/table_provisioning [gigabytes]
 *        (default 1 GB; the paper's full models use 30 GB)
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "workload/driver.h"

int
main(int argc, char **argv)
{
    using namespace rmssd;

    const double gigabytes = argc > 1 ? std::atof(argv[1]) : 1.0;
    // NaN fails both comparisons below, so reject it first.
    if (!std::isfinite(gigabytes) || gigabytes <= 0.0 ||
        gigabytes > 32.0) {
        std::printf("table size must be in (0, 32] GB\n");
        return 1;
    }

    model::ModelConfig config = model::rmc1();
    config.withTotalEmbeddingGB(gigabytes);

    engine::RmSsd device(config, {});
    const Cycle done = device.loadTablesTimed();
    const double seconds = nanosToSeconds(cyclesToNanos(done));

    const std::uint64_t programs = device.flash().totalPagePrograms();
    std::printf("loaded %.2f GB (%u tables x %llu rows x %u B)\n",
                config.embeddingBytes() / 1e9, config.numTables,
                static_cast<unsigned long long>(config.rowsPerTable),
                config.vectorBytes());
    std::printf("page programs:        %llu\n",
                static_cast<unsigned long long>(programs));
    std::printf("provisioning time:    %.2f s (simulated)\n", seconds);
    std::printf("effective bandwidth:  %.0f MB/s\n",
                config.embeddingBytes() / 1e6 / seconds);

    // The freshly provisioned device serves inference immediately.
    const double qps = workload::steadyStateQps(device, 4, 8);
    std::printf("post-load throughput: %.0f QPS\n", qps);
    return 0;
}
