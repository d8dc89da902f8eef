/**
 * @file
 * Embedding Vector Sum unit (Section IV-B3): an fadd array, one adder
 * per vector dimension, accumulating returned vectors per table.
 *
 * Accumulation overlaps with flash reads (each dimension is
 * independent), so the unit only adds its pipeline drain after the
 * last vector of a table arrives — the paper notes EV extraction+sum
 * time "can be ignored" on FPGA versus the vector read itself.
 */

#ifndef RMSSD_ENGINE_EV_SUM_H
#define RMSSD_ENGINE_EV_SUM_H

#include <cstdint>
#include <span>

#include "sim/types.h"

namespace rmssd::engine {

/** fadd-array pooling unit. */
class EvSum
{
  public:
    /** Drain latency of the fadd pipeline after the last vector. */
    static constexpr Cycle kDrainCycles{8};

    /** Reinterpret @p raw as fp32 and add element-wise into @p acc. */
    static void accumulateBytes(std::span<const std::uint8_t> raw,
                                std::span<float> acc);
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_EV_SUM_H
