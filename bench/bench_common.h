/**
 * @file
 * Shared helpers for the per-figure benchmark binaries: aligned table
 * printing, standard workload parameters, machine-readable JSON result
 * dumps, and the google-benchmark tail run.
 */

#ifndef RMSSD_BENCH_COMMON_H
#define RMSSD_BENCH_COMMON_H

#include <cstdint>
#include <string>
#include <vector>

#include "engine/ev_cache.h"
#include "engine/inference_device.h"
#include "model/dlrm.h"
#include "workload/driver.h"
#include "workload/trace.h"

namespace rmssd::bench {

/**
 * Column-aligned plain-text table. Every printed table is also
 * recorded in the process-wide JsonReport so the figure's rows land in
 * BENCH_<figure>.json (see runMicrobenchmarks).
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Label this table in the JSON dump (e.g. the model name). */
    void setCaption(std::string caption);

    void addRow(std::vector<std::string> cells);
    void print() const;

  private:
    std::string caption_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Process-wide collector of everything the figure printed, flushed as
 * BENCH_<figure>.json by runMicrobenchmarks so the perf trajectory is
 * trackable across PRs. banner() sets the current section; each
 * TextTable::print() appends one table with the rows keyed by the
 * column headers.
 */
class JsonReport
{
  public:
    static JsonReport &instance();

    void setSection(const std::string &section);
    void addTable(const std::string &caption,
                  const std::vector<std::vector<std::string>> &rows);

    bool empty() const { return tables_.empty(); }

    /** Write BENCH_<figureId>.json in the working directory. */
    void write(const std::string &figureId) const;

  private:
    struct Table
    {
        std::string section;
        std::string caption;
        std::vector<std::string> columns;
        std::vector<std::vector<std::string>> rows;
    };

    std::string section_;
    std::vector<Table> tables_;
};

/** Print a figure/table banner (also sets the JsonReport section). */
void banner(const std::string &title, const std::string &subtitle);

/** Format helpers. */
std::string fmt(double v, int precision = 1);
std::string fmtSeconds(double seconds);
std::string fmtTimesPer1k(Nanos perBatchNanos);

/** Measurement scale: requests measured per configuration. */
struct RunScale
{
    std::uint32_t numBatches = 6;
    std::uint32_t warmupBatches = 4;
};

/** The paper's default synthetic trace (K = 0.3). */
workload::TraceConfig defaultTrace();

/**
 * Closed-loop probe on the trace itself from an idle device: batch 4,
 * depth 4, @p requests requests drawn from @p tc.
 * workload::steadyStateQps() feeds a uniform sample stream, which
 * scatters evenly over the dies no matter the layout; placement and
 * tiering only show up under the skewed trace they were planned for.
 */
workload::ClosedLoopRun traceProbe(engine::InferenceDevice &dev,
                                   const workload::TraceConfig &tc,
                                   std::uint32_t requests = 32);

/**
 * EV cache sized to hold 1/@p divisor of the trace's per-table hot
 * set. divisor 1 covers the whole hot set (capacity misses vanish);
 * larger divisors create the capacity pressure under which the
 * admission policy decides the hit ratio.
 */
engine::EvCacheConfig cacheForTrace(const model::ModelConfig &cfg,
                                    const workload::TraceConfig &tc,
                                    std::uint64_t divisor = 1);

/**
 * Hand control to google-benchmark for the cases the binary
 * registered (run after printing the paper tables). Also flushes the
 * JsonReport to BENCH_<basename(argv[0])>.json.
 */
int runMicrobenchmarks(int argc, char **argv);

} // namespace rmssd::bench

#endif // RMSSD_BENCH_COMMON_H
