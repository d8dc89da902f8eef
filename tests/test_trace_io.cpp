/**
 * @file
 * Tests for trace persistence: bit-exact round trips and header
 * validation against the wrong model shape.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "model/model_zoo.h"
#include "workload/trace.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

namespace rmssd::workload {
namespace {

model::ModelConfig
smallConfig()
{
    model::ModelConfig cfg = model::rmc1();
    cfg.withRowsPerTable(50000);
    cfg.lookupsPerTable = 6;
    return cfg;
}

TEST(TraceIo, RoundTripIsBitExact)
{
    const model::ModelConfig cfg = smallConfig();
    TraceGenerator gen(cfg, localityK(0.3));
    const std::vector<model::Sample> original = gen.nextBatch(16);

    std::stringstream buffer;
    saveTrace(buffer, cfg, original);
    const std::vector<model::Sample> replayed =
        loadTrace(buffer, cfg);

    ASSERT_EQ(replayed.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(replayed[i].indices, original[i].indices)
            << "sample " << i;
        ASSERT_EQ(replayed[i].dense.size(), original[i].dense.size());
        for (std::size_t d = 0; d < original[i].dense.size(); ++d) {
            // Hex-float serialization preserves every bit.
            EXPECT_EQ(replayed[i].dense[d], original[i].dense[d])
                << "sample " << i << " dim " << d;
        }
    }
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    const model::ModelConfig cfg = smallConfig();
    std::stringstream buffer;
    saveTrace(buffer, cfg, {});
    EXPECT_TRUE(loadTrace(buffer, cfg).empty());
}

TEST(TraceIo, RejectsWrongMagic)
{
    std::stringstream buffer("not-a-trace RMC1 8 6 128 0\n");
    EXPECT_EXIT(loadTrace(buffer, smallConfig()),
                ::testing::ExitedWithCode(1), "not an rmssd trace");
}

TEST(TraceIo, RejectsShapeMismatch)
{
    const model::ModelConfig cfg = smallConfig();
    TraceGenerator gen(cfg, localityK(0.3));
    std::stringstream buffer;
    const auto samples = gen.nextBatch(2);
    saveTrace(buffer, cfg, samples);

    model::ModelConfig other = cfg;
    other.lookupsPerTable = 7;
    EXPECT_EXIT(loadTrace(buffer, other),
                ::testing::ExitedWithCode(1), "cannot replay");
}

TEST(TraceIo, RejectsTruncatedFile)
{
    const model::ModelConfig cfg = smallConfig();
    TraceGenerator gen(cfg, localityK(0.3));
    std::stringstream buffer;
    const auto samples = gen.nextBatch(4);
    saveTrace(buffer, cfg, samples);

    std::string text = buffer.str();
    text.resize(text.size() / 2); // chop mid-sample
    std::stringstream truncated(text);
    EXPECT_EXIT(loadTrace(truncated, cfg),
                ::testing::ExitedWithCode(1), "truncated");
}

/** A saved two-sample trace of smallConfig(), as text. */
std::string
savedTrace()
{
    const model::ModelConfig cfg = smallConfig();
    TraceGenerator gen(cfg, localityK(0.3));
    std::stringstream buffer;
    saveTrace(buffer, cfg, gen.nextBatch(2));
    return buffer.str();
}

/** @p text with its first sample line's first token replaced. */
std::string
withFirstToken(const std::string &text, const std::string &token)
{
    const std::size_t begin = text.find('\n') + 1;
    const std::size_t end = text.find(' ', begin);
    return text.substr(0, begin) + token + text.substr(end);
}

TEST(TraceIoDeathTest, RejectsRowOutsideTheTables)
{
    // Unchecked, such a row reaches the translator, and the first
    // infer() panics there.
    const model::ModelConfig cfg = smallConfig();
    TraceGenerator gen(cfg, localityK(0.3));
    std::vector<model::Sample> samples = gen.nextBatch(2);
    samples[1].indices[3][2] = cfg.rowsPerTable;
    std::stringstream buffer;
    saveTrace(buffer, cfg, samples);
    EXPECT_EXIT(loadTrace(buffer, cfg), ::testing::ExitedWithCode(1),
                "trace sample 1 table 3 reads row 50000; the tables of "
                "RMC1 have 50000 rows");
}

TEST(TraceIoDeathTest, RejectsMalformedDenseValue)
{
    // strtof alone reads "zzz" as 0: each token must parse whole.
    for (const char *token : {"zzz", "0x1p+0junk", "1.5.5"}) {
        std::stringstream buffer(withFirstToken(savedTrace(), token));
        EXPECT_EXIT(loadTrace(buffer, smallConfig()),
                    ::testing::ExitedWithCode(1),
                    "trace sample 0 has a malformed dense value")
            << token;
    }
}

TEST(TraceIoDeathTest, RejectsMalformedRowIndex)
{
    const model::ModelConfig cfg = smallConfig();
    std::string text = savedTrace();
    // The first row index follows the sample's dense values.
    std::size_t pos = text.find('\n');
    for (std::uint32_t d = 0; d <= cfg.denseInputDim(); ++d)
        pos = text.find(' ', pos + 1);
    text.insert(pos + 1, "row");
    std::stringstream buffer(text);
    EXPECT_EXIT(loadTrace(buffer, cfg), ::testing::ExitedWithCode(1),
                "trace sample 0 table 0 has a malformed row index");
}

TEST(TraceIoDeathTest, CountBeyondTheFileIsTruncatedNotAllocated)
{
    // The header's count must size nothing before the samples are
    // read: a count above vector::max_size() would throw there. It
    // ends, like any count the file cannot back, in "truncated".
    const std::string text = savedTrace();
    const std::size_t headerEnd = text.find('\n');
    // The header without its trailing sample count of 2.
    const std::string header = text.substr(0, text.rfind(' ', headerEnd));
    const std::string body = text.substr(headerEnd);
    for (const std::size_t count :
         {std::size_t{3}, std::numeric_limits<std::size_t>::max()}) {
        ASSERT_GT(count, 2u);
        std::stringstream buffer(header + " " + std::to_string(count) +
                                 body);
        EXPECT_EXIT(loadTrace(buffer, smallConfig()),
                    ::testing::ExitedWithCode(1), "trace file truncated")
            << count;
    }
    EXPECT_GT(std::numeric_limits<std::size_t>::max(),
              std::vector<model::Sample>().max_size());
}

TEST(TraceIo, ReplayedTraceDrivesIdenticalSimulation)
{
    // A replayed trace must produce the same inference results as
    // the in-memory one (the point of persisting traces).
    const model::ModelConfig cfg = []() {
        model::ModelConfig c = model::rmc1();
        c.withRowsPerTable(512);
        c.lookupsPerTable = 4;
        return c;
    }();
    const model::DlrmModel reference(cfg);

    TraceGenerator gen(cfg, localityK(0.3));
    const auto original = gen.nextBatch(4);
    std::stringstream buffer;
    saveTrace(buffer, cfg, original);
    const auto replayed = loadTrace(buffer, cfg);

    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(reference.referenceInference(original[i]),
                  reference.referenceInference(replayed[i]));
    }
}

} // namespace
} // namespace rmssd::workload
