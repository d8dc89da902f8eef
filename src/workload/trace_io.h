/**
 * @file
 * Trace persistence: save/load sample streams so experiments can be
 * replayed bit-exactly across machines and library versions (the
 * paper evaluates all systems on one fixed synthetic trace).
 *
 * Format: a one-line text header binding the trace to its model
 * shape, then one line per sample (dense floats, then indices per
 * table). Human-diffable on purpose.
 *
 * reachability: entry-point — users load their own recorded traces
 * through it; nothing in the repo replays one yet.
 */

#ifndef RMSSD_WORKLOAD_TRACE_IO_H
#define RMSSD_WORKLOAD_TRACE_IO_H

#include <iosfwd>
#include <span>
#include <vector>

#include "model/dlrm.h"

namespace rmssd::workload {

/** Serialize @p samples for model @p config to @p os. */
void saveTrace(std::ostream &os, const model::ModelConfig &config,
               std::span<const model::Sample> samples);

/**
 * Parse a trace saved by saveTrace. The header must match
 * @p config's shape (tables, lookups, dense dim); mismatches are
 * fatal (replaying a trace against the wrong model is never what
 * anyone wants). So is malformed input: a file shorter than its
 * header's sample count, a dense value that is not one whole float
 * token, and a row index that is not a number or not below
 * @p config's rowsPerTable.
 */
std::vector<model::Sample> loadTrace(std::istream &is,
                                     const model::ModelConfig &config);

} // namespace rmssd::workload

#endif // RMSSD_WORKLOAD_TRACE_IO_H
