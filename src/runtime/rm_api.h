/**
 * @file
 * The RM-SSD C++ runtime library (Section IV-D): the four
 * semantic-aware interfaces a deep-learning framework integrates
 * against —
 *
 *   RM_create_table(tableSize)       block-I/O table creation
 *   RM_open_table(tableId, path)     extent push + fd authentication
 *   RM_send_inputs(fd, n, sp, de)    per-inference parameter send
 *   RM_read_outputs()                batched result read
 *
 * plus the system-level throughput optimization: inputs for the next
 * micro-batch are pre-sent while the current one computes, so
 * send/read pairs can be pipelined by queueing multiple sends before
 * a read.
 */

#ifndef RMSSD_RUNTIME_RM_API_H
#define RMSSD_RUNTIME_RM_API_H

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/rm_ssd.h"
#include "runtime/table_fs.h"

namespace rmssd::runtime {

/** A framework-facing RM-SSD session. */
class RmRuntime
{
  public:
    /**
     * @param uid the calling user; table access is checked against it
     */
    RmRuntime(const model::ModelConfig &config,
              const engine::RmSsdOptions &options, std::uint32_t uid);

    /**
     * RM_create_table: allocate and (functionally) write table
     * @p tableId's file through the block path.
     * @return 0 on success, negative errno-style code otherwise
     */
    int RM_create_table(std::uint32_t tableId, const std::string &path);

    /**
     * RM_open_table: authenticate against the file system, push the
     * extent metadata to the device, return a file descriptor.
     * @return fd >= 0 on success, -1 on authentication failure
     */
    int RM_open_table(std::uint32_t tableId, const std::string &path);

    /**
     * RM_send_inputs: queue one inference request.
     * @param fd descriptor from RM_open_table (validated)
     * @param indicesPerLookup lookups per table (must match config)
     * @param sparseIn flattened [batch][table][lookup] row indices,
     *        each below rowsPerTable
     * @param denseIn flattened [batch][denseDim] dense features
     * @return false when validation fails (nothing is queued)
     */
    bool RM_send_inputs(int fd, std::uint32_t indicesPerLookup,
                        std::span<const std::uint64_t> sparseIn,
                        std::span<const float> denseIn);

    /**
     * RM_read_outputs: results of the oldest queued request, in send
     * order. Fatal when nothing is pending.
     */
    std::vector<float> RM_read_outputs();

    /** Pending (sent but unread) request count. */
    std::size_t pendingRequests() const { return pending_.size(); }

    /** Result count of the oldest pending request (0 when none). */
    std::size_t nextResultCount() const
    {
        return pending_.empty() ? 0 : pending_.front().outputs.size();
    }

    /** Latency of the most recently completed request. */
    Nanos lastLatency() const { return lastLatency_; }

    engine::RmSsd &device() { return *device_; }

  private:
    model::ModelConfig config_;
    std::uint32_t uid_;
    std::unique_ptr<engine::RmSsd> device_;
    TableFs fs_;
    std::vector<int> openFds_; //!< fd -> tableId
    /**
     * Per table: registered on the device by some RM_open_table.
     * Inference unlocks once every table is, however often each one
     * was opened.
     */
    std::vector<bool> tableOpen_;

    struct PendingRequest
    {
        std::vector<float> outputs;
        Nanos latency;
    };
    std::deque<PendingRequest> pending_;
    Nanos lastLatency_;
};

} // namespace rmssd::runtime

#endif // RMSSD_RUNTIME_RM_API_H
