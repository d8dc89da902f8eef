#include "workload/trace_io.h"

#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "sim/log.h"

namespace rmssd::workload {

namespace {

constexpr const char *kMagic = "rmssd-trace-v1";

} // namespace

void
saveTrace(std::ostream &os, const model::ModelConfig &config,
          std::span<const model::Sample> samples)
{
    os << kMagic << " " << config.name << " " << config.numTables
       << " " << config.lookupsPerTable << " "
       << config.denseInputDim() << " " << samples.size() << "\n";
    // Dense features round-trip exactly through hex float format.
    os << std::hexfloat;
    for (const model::Sample &s : samples) {
        RMSSD_ASSERT(s.dense.size() == config.denseInputDim(),
                     "sample dense width mismatch");
        RMSSD_ASSERT(s.indices.size() == config.numTables,
                     "sample table count mismatch");
        for (const float v : s.dense)
            os << v << " ";
        for (const auto &table : s.indices) {
            RMSSD_ASSERT(table.size() == config.lookupsPerTable,
                         "sample lookup count mismatch");
            for (const std::uint64_t idx : table)
                os << idx << " ";
        }
        os << "\n";
    }
}

std::vector<model::Sample>
loadTrace(std::istream &is, const model::ModelConfig &config)
{
    std::string magic;
    std::string name;
    std::uint32_t tables = 0;
    std::uint32_t lookups = 0;
    std::uint32_t denseDim = 0;
    std::size_t count = 0;
    is >> magic >> name >> tables >> lookups >> denseDim >> count;
    if (!is || magic != kMagic)
        fatal("not an rmssd trace file");
    if (tables != config.numTables ||
        lookups != config.lookupsPerTable ||
        denseDim != config.denseInputDim()) {
        fatal("trace was recorded for %s (%u tables, %u lookups, "
              "dense %u); cannot replay against %s",
              name.c_str(), tables, lookups, denseDim,
              config.name.c_str());
    }

    // Samples are appended as they are read: the header's count sizes
    // nothing, so a count the file cannot back ends in "truncated".
    std::vector<model::Sample> samples;
    for (std::size_t n = 0; n < count; ++n) {
        model::Sample s;
        s.dense.resize(denseDim);
        for (float &v : s.dense) {
            std::string token;
            if (!(is >> token))
                fatal("trace file truncated");
            char *end = nullptr;
            v = std::strtof(token.c_str(), &end);
            if (*end != '\0')
                fatal("trace sample %zu has a malformed dense value '%s'",
                      n, token.c_str());
        }
        s.indices.assign(tables, {});
        for (std::uint32_t t = 0; t < tables; ++t) {
            s.indices[t].resize(lookups);
            for (std::uint64_t &row : s.indices[t]) {
                if (!(is >> row)) {
                    if (is.eof())
                        fatal("trace file truncated");
                    fatal("trace sample %zu table %u has a malformed row "
                          "index", n, t);
                }
                // Rows come from the file: one past the table is bad
                // input, rejected here as RM_send_inputs rejects it.
                if (row >= config.rowsPerTable)
                    fatal("trace sample %zu table %u reads row %llu; the "
                          "tables of %s have %llu rows",
                          n, t, static_cast<unsigned long long>(row),
                          config.name.c_str(),
                          static_cast<unsigned long long>(
                              config.rowsPerTable));
            }
        }
        samples.push_back(std::move(s));
    }
    return samples;
}

} // namespace rmssd::workload
