/**
 * @file
 * C API for the RM-SSD runtime — the binding surface the paper wires
 * into Python frameworks via Cython (Section IV-D: "We provide a C++
 * runtime library, which can be easily integrated with Python-based
 * deep learning frameworks, e.g., PyTorch, Caffe2, using Cython").
 *
 * All functions are non-throwing; failures are negative errno-style
 * returns. The session owns a simulated RM-SSD device.
 *
 * reachability: entry-point — the C binding surface, called by
 * framework bindings outside this repo.
 */

#ifndef RMSSD_RUNTIME_RM_CAPI_H
#define RMSSD_RUNTIME_RM_CAPI_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/** Opaque RM-SSD session handle. */
typedef struct rm_session rm_session;

/**
 * Create a session for a zoo model ("RMC1", "RMC2", "RMC3", "NCF",
 * "WnD").
 *
 * @param model_name zoo model to serve
 * @param rows_per_table 0 keeps the production 30 GB sizing;
 *        otherwise tables shrink to this many rows (functional runs)
 * @param functional nonzero loads real table bytes into flash
 * @param uid caller identity for table ownership checks
 * @return session handle, or NULL for an unknown model or for tables
 *         that do not fit the device's flash capacity (including a
 *         row count whose byte size overflows 64 bits)
 */
rm_session *rm_session_create(const char *model_name,
                              uint64_t rows_per_table, int functional,
                              uint32_t uid);

/** Destroy a session and release the simulated device. */
void rm_session_destroy(rm_session *session);

/* Model metadata queries (for framework-side buffer sizing). */
uint32_t rm_num_tables(const rm_session *session);
uint32_t rm_lookups_per_table(const rm_session *session);
uint32_t rm_dense_dim(const rm_session *session);
uint32_t rm_embedding_dim(const rm_session *session);

/**
 * RM_create_table: allocate table @p table_id's file at @p path.
 * @return 0, or negative errno (-EEXIST, -EINVAL)
 */
int rm_create_table(rm_session *session, uint32_t table_id,
                    const char *path);

/**
 * RM_open_table: authenticate and push extent metadata.
 * @return fd >= 0, or -1 on authentication failure
 */
int rm_open_table(rm_session *session, uint32_t table_id,
                  const char *path);

/**
 * RM_send_inputs: queue one inference request.
 * @param sparse flattened [batch][table][lookup] row indices
 * @param dense flattened [batch][dense_dim] features
 * @return 0, or -1 on validation failure
 */
int rm_send_inputs(rm_session *session, int fd,
                   uint32_t indices_per_lookup, const uint64_t *sparse,
                   size_t sparse_len, const float *dense,
                   size_t dense_len);

/**
 * RM_read_outputs: pop the oldest pending request's results.
 * @param out destination for up to @p out_capacity floats
 * @return number of results written, or -1 when nothing is pending
 *         or the buffer is too small
 */
int rm_read_outputs(rm_session *session, float *out,
                    size_t out_capacity);

/** Pending (sent, unread) request count. */
size_t rm_pending_requests(const rm_session *session);

/** Simulated latency of the most recently read request (ns). */
uint64_t rm_last_latency_ns(const rm_session *session);

#ifdef __cplusplus
} // extern "C"
#endif

#endif // RMSSD_RUNTIME_RM_CAPI_H
