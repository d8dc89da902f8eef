/**
 * @file
 * Tests for the C API binding surface: session lifecycle, metadata
 * queries, the four RM_* calls, and error paths — everything a
 * Cython/ctypes integration would exercise.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "runtime/rm_capi.h"

namespace {

/** A float's bit pattern: device outputs equal the reference bit for bit. */
std::uint32_t
bits(float value)
{
    return std::bit_cast<std::uint32_t>(value);
}

using namespace rmssd;

/** RAII wrapper keeping tests leak-free. */
class Session
{
  public:
    Session(const char *name, uint64_t rows, int functional)
        : s_(rm_session_create(name, rows, functional, 42))
    {
    }
    ~Session() { rm_session_destroy(s_); }
    rm_session *get() const { return s_; }

  private:
    rm_session *s_;
};

/** Create + open every table; returns fd 0. */
int
setupTables(rm_session *s)
{
    int fd = -1;
    for (uint32_t t = 0; t < rm_num_tables(s); ++t) {
        const std::string path = "/capi/t" + std::to_string(t);
        EXPECT_EQ(rm_create_table(s, t, path.c_str()), 0);
        fd = rm_open_table(s, t, path.c_str());
        EXPECT_GE(fd, 0);
    }
    return 0;
}

TEST(CApi, SessionCreateAndMetadata)
{
    Session session("RMC1", 256, 1);
    rm_session *s = session.get();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(rm_num_tables(s), 8u);
    EXPECT_EQ(rm_lookups_per_table(s), 80u);
    EXPECT_EQ(rm_dense_dim(s), 128u);
    EXPECT_EQ(rm_embedding_dim(s), 32u);
}

TEST(CApi, UnknownModelReturnsNull)
{
    EXPECT_EQ(rm_session_create("NoSuchModel", 0, 0, 1), nullptr);
    EXPECT_EQ(rm_session_create(nullptr, 0, 0, 1), nullptr);
}

TEST(CApi, NullSessionQueriesAreSafe)
{
    EXPECT_EQ(rm_num_tables(nullptr), 0u);
    EXPECT_EQ(rm_pending_requests(nullptr), 0u);
    EXPECT_EQ(rm_last_latency_ns(nullptr), 0u);
    EXPECT_EQ(rm_create_table(nullptr, 0, "/x"), -22);
    EXPECT_EQ(rm_open_table(nullptr, 0, "/x"), -1);
    rm_session_destroy(nullptr); // no-op
}

TEST(CApi, FullInferenceFlowMatchesReference)
{
    Session session("RMC1", 256, 1);
    rm_session *s = session.get();
    ASSERT_NE(s, nullptr);
    setupTables(s);

    // Build a batch-2 request against the same deterministic model.
    model::ModelConfig cfg = model::rmc1().withRowsPerTable(256);
    const model::DlrmModel reference(cfg);
    std::vector<uint64_t> sparse;
    std::vector<float> dense;
    std::vector<model::Sample> samples;
    for (int i = 0; i < 2; ++i) {
        samples.push_back(reference.makeSample(i));
        dense.insert(dense.end(), samples.back().dense.begin(),
                     samples.back().dense.end());
        for (const auto &table : samples.back().indices)
            sparse.insert(sparse.end(), table.begin(), table.end());
    }

    ASSERT_EQ(rm_send_inputs(s, 0, rm_lookups_per_table(s),
                             sparse.data(), sparse.size(),
                             dense.data(), dense.size()),
              0);
    EXPECT_EQ(rm_pending_requests(s), 1u);

    float out[2] = {0, 0};
    ASSERT_EQ(rm_read_outputs(s, out, 2), 2);
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(bits(out[i]),
                  bits(reference.referenceInference(samples[i])))
            << i;
    }
    EXPECT_GT(rm_last_latency_ns(s), 0u);
    EXPECT_EQ(rm_pending_requests(s), 0u);
}

TEST(CApi, SendValidationFailures)
{
    Session session("RMC1", 128, 1);
    rm_session *s = session.get();
    setupTables(s);

    std::vector<uint64_t> sparse(8 * 80, 0);
    std::vector<float> dense(128, 0.0f);

    // Bad fd / bad lookup count / null arrays / short arrays.
    EXPECT_EQ(rm_send_inputs(s, -1, 80, sparse.data(), sparse.size(),
                             dense.data(), dense.size()),
              -1);
    EXPECT_EQ(rm_send_inputs(s, 0, 81, sparse.data(), sparse.size(),
                             dense.data(), dense.size()),
              -1);
    EXPECT_EQ(rm_send_inputs(s, 0, 80, nullptr, 0, dense.data(),
                             dense.size()),
              -1);
    EXPECT_EQ(rm_send_inputs(s, 0, 80, sparse.data(),
                             sparse.size() - 1, dense.data(),
                             dense.size()),
              -1);
}

TEST(CApi, BadRowIndexAndReopenedTableReturnErrors)
{
    // Out-of-range row index: an error return, nothing queued.
    {
        Session session("RMC1", 128, 1);
        rm_session *s = session.get();
        setupTables(s);
        std::vector<uint64_t> sparse(8 * 80, 0);
        std::vector<float> dense(128, 0.0f);
        sparse[5] = 128;
        EXPECT_EQ(rm_send_inputs(s, 0, 80, sparse.data(), sparse.size(),
                                 dense.data(), dense.size()),
                  -1);
        EXPECT_EQ(rm_pending_requests(s), 0u);
    }
    // One table opened num_tables times: inference stays locked.
    {
        Session session("RMC1", 128, 1);
        rm_session *s = session.get();
        ASSERT_EQ(rm_create_table(s, 0, "/capi/t0"), 0);
        for (uint32_t i = 0; i < rm_num_tables(s); ++i)
            ASSERT_GE(rm_open_table(s, 0, "/capi/t0"), 0);
        std::vector<uint64_t> sparse(8 * 80, 0);
        std::vector<float> dense(128, 0.0f);
        EXPECT_EQ(rm_send_inputs(s, 0, 80, sparse.data(), sparse.size(),
                                 dense.data(), dense.size()),
                  -1);
        EXPECT_EQ(rm_pending_requests(s), 0u);
    }
}

TEST(CApi, ReadFailuresDoNotCrash)
{
    Session session("RMC1", 128, 1);
    rm_session *s = session.get();
    setupTables(s);

    float out[4];
    // Nothing pending.
    EXPECT_EQ(rm_read_outputs(s, out, 4), -1);

    std::vector<uint64_t> sparse(8 * 80, 1);
    std::vector<float> dense(128, 0.5f);
    ASSERT_EQ(rm_send_inputs(s, 0, 80, sparse.data(), sparse.size(),
                             dense.data(), dense.size()),
              0);
    // Too-small buffer fails WITHOUT consuming the request...
    EXPECT_EQ(rm_read_outputs(s, out, 0), -1);
    EXPECT_EQ(rm_pending_requests(s), 1u);
    // ...so a properly sized retry succeeds.
    EXPECT_EQ(rm_read_outputs(s, out, 4), 1);
    EXPECT_EQ(rm_pending_requests(s), 0u);
}

TEST(CApi, CreateErrorsMapToErrno)
{
    Session session("RMC1", 128, 1);
    rm_session *s = session.get();
    EXPECT_EQ(rm_create_table(s, 0, "/dup"), 0);
    EXPECT_EQ(rm_create_table(s, 0, "/dup"), -17);  // EEXIST
    EXPECT_EQ(rm_create_table(s, 99, "/bad"), -22); // EINVAL
}

TEST(CApi, ProductionSizingWhenRowsZero)
{
    Session session("RMC2", 0, 0); // keep 30 GB sizing, timing only
    rm_session *s = session.get();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(rm_num_tables(s), 32u);
}

/** RMC1's rows per table that fill the default device exactly. */
std::uint64_t
rmc1RowsAtCapacity()
{
    const model::ModelConfig cfg = model::rmc1();
    const std::uint64_t bytesPerRow =
        std::uint64_t{cfg.numTables} * cfg.vectorBytes();
    return engine::RmSsdOptions{}.geometry.capacityBytes() / bytesPerRow;
}

TEST(CApi, OversizedTablesReturnNull)
{
    // 8 tables of 128-byte rows: 2^54 rows is 2^64 bytes, which an
    // unchecked u64 product wraps to 0.
    EXPECT_EQ(rm_session_create("RMC1", std::uint64_t{1} << 54, 0, 1),
              nullptr);
    EXPECT_EQ(rm_session_create("RMC1", UINT64_MAX, 0, 1), nullptr);
    // One row past the device is refused, not a process exit.
    const std::uint64_t full = rmc1RowsAtCapacity();
    EXPECT_EQ(rm_session_create("RMC1", full + 1, 0, 1), nullptr);
    EXPECT_EQ(rm_session_create("RMC1", full + 1, 1, 1), nullptr);
    Session exact("RMC1", full, 0);
    EXPECT_NE(exact.get(), nullptr);
}

TEST(CApi, SmallTablesStillServeAfterRefusedSizes)
{
    ASSERT_EQ(rm_session_create("RMC1", rmc1RowsAtCapacity() + 1, 1, 42),
              nullptr);
    Session session("RMC1", 64, 1);
    rm_session *s = session.get();
    ASSERT_NE(s, nullptr);
    setupTables(s);
    const model::DlrmModel reference(model::rmc1().withRowsPerTable(64));
    const model::Sample sample = reference.makeSample(3);
    std::vector<uint64_t> sparse;
    for (const auto &table : sample.indices)
        sparse.insert(sparse.end(), table.begin(), table.end());
    ASSERT_EQ(rm_send_inputs(s, 0, rm_lookups_per_table(s), sparse.data(),
                             sparse.size(), sample.dense.data(),
                             sample.dense.size()),
              0);
    float out = 0.0f;
    ASSERT_EQ(rm_read_outputs(s, &out, 1), 1);
    EXPECT_EQ(bits(out), bits(reference.referenceInference(sample)));
}

} // namespace
