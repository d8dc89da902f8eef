#include "bench_common.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "sim/log.h"
#include "workload/trace_gen.h"

namespace rmssd::bench {

namespace {

/** Minimal JSON string escaping (quotes, backslash, control chars). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

TextTable::TextTable(std::vector<std::string> header)
{
    rows_.push_back(std::move(header));
}

void
TextTable::setCaption(std::string caption)
{
    caption_ = std::move(caption);
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
TextTable::print() const
{
    std::vector<std::size_t> widths;
    for (const auto &row : rows_) {
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        std::string line;
        for (std::size_t c = 0; c < rows_[r].size(); ++c) {
            std::string cell = rows_[r][c];
            cell.resize(widths[c], ' ');
            line += cell;
            line += "  ";
        }
        std::printf("%s\n", line.c_str());
        if (r == 0) {
            std::string rule;
            for (const std::size_t w : widths)
                rule += std::string(w, '-') + "  ";
            std::printf("%s\n", rule.c_str());
        }
    }
    JsonReport::instance().addTable(caption_, rows_);
}

JsonReport &
JsonReport::instance()
{
    static JsonReport report;
    return report;
}

void
JsonReport::setSection(const std::string &section)
{
    section_ = section;
}

void
JsonReport::addTable(const std::string &caption,
                     const std::vector<std::vector<std::string>> &rows)
{
    if (rows.empty())
        return;
    Table t;
    t.section = section_;
    t.caption = caption;
    t.columns = rows.front();
    t.rows.assign(rows.begin() + 1, rows.end());
    tables_.push_back(std::move(t));
}

void
JsonReport::write(const std::string &figureId) const
{
    const std::string path = "BENCH_" + figureId + ".json";
    std::ofstream os(path);
    if (!os) {
        warn("cannot write %s", path.c_str());
        return;
    }
    os << "{\n  \"figure\": \"" << jsonEscape(figureId)
       << "\",\n  \"tables\": [\n";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        const Table &tab = tables_[t];
        os << "    {\n      \"section\": \"" << jsonEscape(tab.section)
           << "\",\n      \"caption\": \"" << jsonEscape(tab.caption)
           << "\",\n      \"columns\": [";
        for (std::size_t c = 0; c < tab.columns.size(); ++c) {
            os << (c ? ", " : "") << '"' << jsonEscape(tab.columns[c])
               << '"';
        }
        os << "],\n      \"rows\": [\n";
        for (std::size_t r = 0; r < tab.rows.size(); ++r) {
            os << "        {";
            const auto &row = tab.rows[r];
            for (std::size_t c = 0;
                 c < row.size() && c < tab.columns.size(); ++c) {
                os << (c ? ", " : "") << '"'
                   << jsonEscape(tab.columns[c]) << "\": \""
                   << jsonEscape(row[c]) << '"';
            }
            os << '}' << (r + 1 < tab.rows.size() ? "," : "") << '\n';
        }
        os << "      ]\n    }"
           << (t + 1 < tables_.size() ? "," : "") << '\n';
    }
    os << "  ]\n}\n";
    std::printf("[bench] wrote %s\n", path.c_str());
}

void
banner(const std::string &title, const std::string &subtitle)
{
    std::printf("\n==============================================\n");
    std::printf("%s\n", title.c_str());
    if (!subtitle.empty())
        std::printf("%s\n", subtitle.c_str());
    std::printf("==============================================\n\n");
    JsonReport::instance().setSection(title);
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtSeconds(double seconds)
{
    char buf[64];
    if (seconds >= 1.0)
        std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
    else if (seconds >= 1e-3)
        std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
    return buf;
}

std::string
fmtTimesPer1k(Nanos perBatchNanos)
{
    // The paper reports execution time of 1K inferences.
    return fmt(nanosToSeconds(perBatchNanos) * 1000.0, 2);
}

workload::TraceConfig
defaultTrace()
{
    return workload::localityK(0.3);
}

workload::ClosedLoopRun
traceProbe(engine::InferenceDevice &dev, const workload::TraceConfig &tc,
           std::uint32_t requests)
{
    workload::TraceGenerator gen(dev.model().config(), tc);
    dev.resetTiming();
    return workload::runClosedLoop(dev, 4, requests, 4,
                                   [&](std::uint32_t) {
                                       dev.submit(gen.nextBatch(4));
                                   });
}

engine::EvCacheConfig
cacheForTrace(const model::ModelConfig &cfg,
              const workload::TraceConfig &tc, std::uint64_t divisor)
{
    engine::EvCacheConfig cc;
    cc.enabled = true;
    cc.capacityBytes = Bytes{tc.hotRowsPerTable * cfg.numTables *
                             cfg.vectorBytes() / divisor};
    const std::uint64_t rowsPerTable =
        cc.capacityBytes.raw() / cfg.vectorBytes() / cfg.numTables;
    cc.expectedHitRatio = workload::expectedHitRatio(tc, rowsPerTable);
    return cc;
}

int
runMicrobenchmarks(int argc, char **argv)
{
    // Flush the machine-readable dump before google-benchmark runs.
    const JsonReport &report = JsonReport::instance();
    if (!report.empty() && argc > 0) {
        std::string figure = argv[0];
        const std::size_t slash = figure.find_last_of('/');
        if (slash != std::string::npos)
            figure = figure.substr(slash + 1);
        report.write(figure);
    }

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace rmssd::bench
