#include "runtime/rm_api.h"

#include <algorithm>

#include "sim/log.h"

namespace rmssd::runtime {

RmRuntime::RmRuntime(const model::ModelConfig &config,
                     const engine::RmSsdOptions &options,
                     std::uint32_t uid)
    : config_(config), uid_(uid),
      device_(std::make_unique<engine::RmSsd>(config, options)),
      fs_(Sectors{options.geometry.capacityBytes() /
                  options.geometry.sectorSizeBytes.raw()},
          options.geometry.sectorSizeBytes,
          options.geometry.sectorsPerPage(), options.maxExtentSectors),
      tableOpen_(config.numTables, false)
{
}

int
RmRuntime::RM_create_table(std::uint32_t tableId, const std::string &path)
{
    if (tableId >= config_.numTables)
        return -22; // EINVAL
    if (fs_.exists(path))
        return -17; // EEXIST
    const Bytes bytes{config_.rowsPerTable *
                      static_cast<std::uint64_t>(config_.vectorBytes())};
    fs_.create(tableId, path, bytes, uid_);
    return 0;
}

int
RmRuntime::RM_open_table(std::uint32_t tableId, const std::string &path)
{
    const TableFile *file = fs_.open(path, uid_);
    if (file == nullptr || file->tableId != tableId)
        return -1; // unauthorized or wrong table

    // Push (start LBA, length) of every extent to the device; the EV
    // Translator derives the index ranges (Fig. 6).
    device_->registerTable(TableId{tableId}, file->extents);

    const int fd = static_cast<int>(openFds_.size());
    openFds_.push_back(static_cast<int>(tableId));
    tableOpen_[tableId] = true;
    return fd;
}

bool
RmRuntime::RM_send_inputs(int fd, std::uint32_t indicesPerLookup,
                          std::span<const std::uint64_t> sparseIn,
                          std::span<const float> denseIn)
{
    // fd authentication (Section IV-D: the fd from RM_open_table is
    // the authentication token for the read phase).
    if (fd < 0 || static_cast<std::size_t>(fd) >= openFds_.size())
        return false;
    if (std::find(tableOpen_.begin(), tableOpen_.end(), false) !=
        tableOpen_.end())
        return false; // not all tables registered yet
    if (indicesPerLookup != config_.lookupsPerTable)
        return false;

    const std::uint64_t perSampleSparse = config_.lookupsPerSample();
    const std::uint32_t denseDim = config_.denseInputDim();
    if (sparseIn.size() % perSampleSparse != 0 ||
        denseIn.size() % denseDim != 0)
        return false;
    const std::size_t batch = sparseIn.size() / perSampleSparse;
    if (batch == 0 || denseIn.size() / denseDim != batch)
        return false;
    // Row indices come from the caller: an out-of-range one is a
    // rejected request, not a device fault.
    if (std::any_of(sparseIn.begin(), sparseIn.end(),
                    [&](std::uint64_t row) {
                        return row >= config_.rowsPerTable;
                    }))
        return false;

    // Reassemble framework-flattened arrays into device requests.
    std::vector<model::Sample> samples(batch);
    std::size_t sp = 0;
    std::size_t dp = 0;
    for (std::size_t s = 0; s < batch; ++s) {
        const auto dOff = static_cast<std::ptrdiff_t>(dp);
        samples[s].dense.assign(
            denseIn.begin() + dOff,
            denseIn.begin() + dOff +
                static_cast<std::ptrdiff_t>(denseDim));
        dp += denseDim;
        samples[s].indices.resize(config_.numTables);
        for (std::uint32_t t = 0; t < config_.numTables; ++t) {
            const auto sOff = static_cast<std::ptrdiff_t>(sp);
            samples[s].indices[t].assign(
                sparseIn.begin() + sOff,
                sparseIn.begin() + sOff + config_.lookupsPerTable);
            sp += config_.lookupsPerTable;
        }
    }

    const engine::InferenceOutcome out = device_->infer(samples);
    pending_.push_back(PendingRequest{out.outputs, out.latency});
    return true;
}

std::vector<float>
RmRuntime::RM_read_outputs()
{
    if (pending_.empty())
        fatal("RM_read_outputs with no pending request");
    PendingRequest req = std::move(pending_.front());
    pending_.pop_front();
    lastLatency_ = req.latency;
    return std::move(req.outputs);
}

} // namespace rmssd::runtime
