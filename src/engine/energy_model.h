/**
 * @file
 * Energy accounting for the in-storage computing trade-off the paper
 * motivates in Section III-B3: ISC "is more sensitive to resource
 * consumption and energy efficiency than near-memory acceleration...
 * high power consumption often leads to high temperature, which could
 * be detrimental to SSD lifetime."
 *
 * The model charges per-event energies off the simulator's counters
 * (flash flushes, bus bytes, PCIe bytes, MAC operations) plus static
 * power over the elapsed simulated time. Constants are literature-
 * class estimates (NAND page read a few uJ, fp32 FPGA MAC tens of
 * pJ, host CPU ~100 W busy); as elsewhere, the reproduced claim is
 * relative: fully in-device inference moves orders of magnitude
 * fewer bytes and burns far less host energy per query.
 */

#ifndef RMSSD_ENGINE_ENERGY_MODEL_H
#define RMSSD_ENGINE_ENERGY_MODEL_H

#include <cstdint>

#include "engine/rm_ssd.h"
#include "model/dlrm.h"
#include "sim/types.h"

namespace rmssd::engine {

/** Per-event and static energy constants. */
struct EnergyCosts
{
    /** NAND cell-array flush per page read/program (nJ). */
    double flashFlushNanojoules = 3000.0;
    /** Flash channel bus transfer (pJ per byte). */
    double busPicojoulesPerByte = 15.0;
    /** PCIe/DMA host transfer (pJ per byte). */
    double pciePicojoulesPerByte = 60.0;
    /** One fp32 multiply-accumulate on the FPGA fabric (pJ). */
    double fpgaMacPicojoules = 25.0;
    /** One fp32 MAC on the host CPU, including cache traffic (pJ). */
    double cpuMacPicojoules = 300.0;
    /** DRAM access energy (pJ per byte), host or device DRAM. */
    double dramPicojoulesPerByte = 40.0;
    /** Static power of the in-SSD FPGA engine (W). */
    double fpgaStaticWatts = 3.0;
    /** Static power of the SSD proper (controller + NAND idle, W). */
    double ssdStaticWatts = 5.0;
    /** Host CPU busy power for host-side execution phases (W). */
    double hostCpuWatts = 100.0;
};

/** Energy of one measurement window, by component (joules). */
struct EnergyReport
{
    double flashJ = 0.0;     //!< NAND flush + channel bus
    double computeJ = 0.0;   //!< MLP MACs + pooling adds
    double transferJ = 0.0;  //!< host<->device bytes
    double staticJ = 0.0;    //!< static power * elapsed time
    double hostJ = 0.0;      //!< host CPU busy energy

    double total() const
    {
        return flashJ + computeJ + transferJ + staticJ + hostJ;
    }
};

/** Energy accounting helper. */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyCosts &costs = {});

    /** reachability: test-observer — EnergyModel.HostWindowChargesCpu. */
    const EnergyCosts &costs() const { return costs_; }

    /** MAC count of one sample through every FC layer of @p config. */
    static std::uint64_t macsPerSample(const model::ModelConfig &config);

    /**
     * Energy of a fully in-device RM-SSD window, from the device's
     * cumulative counters and the window's wall-clock.
     * @param inferences samples served in the window (for compute)
     */
    EnergyReport rmSsdWindow(const RmSsd &device, Nanos elapsed,
                             std::uint64_t inferences) const;

    /**
     * Energy of a host-executed window (DRAM or naive-SSD systems):
     * host CPU busy for @p hostBusy, @p deviceBytes moved over PCIe,
     * @p pageReads whole-page flash reads.
     */
    EnergyReport hostWindow(const model::ModelConfig &config,
                            Nanos elapsed, Nanos hostBusy,
                            std::uint64_t inferences,
                            Bytes deviceBytes,
                            std::uint64_t pageReads) const;

  private:
    EnergyCosts costs_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_ENERGY_MODEL_H
