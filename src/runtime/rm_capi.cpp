#include "runtime/rm_capi.h"

#include <algorithm>
#include <span>
#include <string>

#include "engine/rm_ssd.h"
#include "model/model_zoo.h"
#include "runtime/rm_api.h"

/** The opaque handle wraps the C++ runtime session. */
struct rm_session
{
    rmssd::model::ModelConfig config;
    rmssd::runtime::RmRuntime runtime;

    rm_session(const rmssd::model::ModelConfig &cfg,
               const rmssd::engine::RmSsdOptions &options,
               std::uint32_t uid)
        : config(cfg), runtime(cfg, options, uid)
    {
    }
};

extern "C" {

rm_session *
rm_session_create(const char *model_name, uint64_t rows_per_table,
                  int functional, uint32_t uid)
{
    if (model_name == nullptr)
        return nullptr;
    const std::string name(model_name);
    // modelByName is fatal on unknown names; probe the zoo instead.
    rmssd::model::ModelConfig config;
    bool found = false;
    for (const auto &candidate : rmssd::model::allModels()) {
        if (candidate.name == name) {
            config = candidate;
            found = true;
            break;
        }
    }
    if (!found)
        return nullptr;
    if (rows_per_table != 0)
        config.withRowsPerTable(rows_per_table);

    rmssd::engine::RmSsdOptions options;
    options.functional = functional != 0;
    // The device would exit the process on tables it cannot hold.
    if (!rmssd::engine::RmSsd::tablesFit(config, options.geometry))
        return nullptr;
    return new rm_session(config, options, uid);
}

void
rm_session_destroy(rm_session *session)
{
    delete session;
}

uint32_t
rm_num_tables(const rm_session *session)
{
    return session ? session->config.numTables : 0;
}

uint32_t
rm_lookups_per_table(const rm_session *session)
{
    return session ? session->config.lookupsPerTable : 0;
}

uint32_t
rm_dense_dim(const rm_session *session)
{
    return session ? session->config.denseInputDim() : 0;
}

uint32_t
rm_embedding_dim(const rm_session *session)
{
    return session ? session->config.embDim : 0;
}

int
rm_create_table(rm_session *session, uint32_t table_id, const char *path)
{
    if (session == nullptr || path == nullptr)
        return -22; // EINVAL
    return session->runtime.RM_create_table(table_id, path);
}

int
rm_open_table(rm_session *session, uint32_t table_id, const char *path)
{
    if (session == nullptr || path == nullptr)
        return -1;
    return session->runtime.RM_open_table(table_id, path);
}

int
rm_send_inputs(rm_session *session, int fd, uint32_t indices_per_lookup,
               const uint64_t *sparse, size_t sparse_len,
               const float *dense, size_t dense_len)
{
    if (session == nullptr || sparse == nullptr || dense == nullptr)
        return -1;
    const bool ok = session->runtime.RM_send_inputs(
        fd, indices_per_lookup, std::span(sparse, sparse_len),
        std::span(dense, dense_len));
    return ok ? 0 : -1;
}

int
rm_read_outputs(rm_session *session, float *out, size_t out_capacity)
{
    if (session == nullptr || out == nullptr)
        return -1;
    if (session->runtime.pendingRequests() == 0)
        return -1;
    // Refuse without consuming when the buffer cannot hold the
    // results (the caller can retry with a bigger buffer).
    if (session->runtime.nextResultCount() > out_capacity)
        return -1;
    const std::vector<float> results =
        session->runtime.RM_read_outputs();
    std::copy(results.begin(), results.end(), out);
    return static_cast<int>(results.size());
}

size_t
rm_pending_requests(const rm_session *session)
{
    return session ? session->runtime.pendingRequests() : 0;
}

uint64_t
rm_last_latency_ns(const rm_session *session)
{
    return session ? session->runtime.lastLatency().raw() : 0;
}

} // extern "C"
