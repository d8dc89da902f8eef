/**
 * @file
 * FPGA resource accounting: LUT/FF/BRAM/DSP usage of the MLP
 * Acceleration Engine and the device catalog used by Rule One of the
 * kernel search and by Table VI.
 *
 * Per-PE costs are calibrated analytic estimates for fp32 fmul/fadd
 * soft cores on Xilinx UltraScale+ class parts; the quantities the
 * paper's evaluation depends on are *relative* (naive vs optimized
 * ~10x; RMC3-naive does not fit the low-end XC7A200T while the
 * searched configuration does), and those relations are preserved.
 */

#ifndef RMSSD_ENGINE_RESOURCE_MODEL_H
#define RMSSD_ENGINE_RESOURCE_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "engine/fc_kernel.h"

namespace rmssd::engine {

/** FPGA resource vector. BRAM is counted in BRAM36-equivalents. */
struct ResourceUsage
{
    std::uint64_t lut = 0;
    std::uint64_t ff = 0;
    double bram = 0.0;
    std::uint64_t dsp = 0;

    ResourceUsage &operator+=(const ResourceUsage &o);
    ResourceUsage operator+(const ResourceUsage &o) const;
};

/** An FPGA device's available resources. */
struct FpgaDevice
{
    std::string name;
    std::uint64_t lut = 0;
    std::uint64_t ff = 0;
    double bram = 0.0;
    std::uint64_t dsp = 0;

    /** Usable on-chip weight storage, leaving headroom for buffers. */
    double weightBramBudget() const { return bram * 0.7; }

    bool fits(const ResourceUsage &usage) const;
};

/** The paper's emulation FPGA (Table VI bottom). */
FpgaDevice xcvu9p();

/** The paper's low-end enterprise-SSD target FPGA (Table VI bottom). */
FpgaDevice xc7a200t();

/** Per-unit cost constants of the resource model. */
struct ResourceCosts
{
    // fp32 multiplier / adder soft cores
    std::uint64_t fmulLut = 600;
    std::uint64_t fmulFf = 250;
    std::uint64_t fmulDsp = 2;
    std::uint64_t faddLut = 400;
    std::uint64_t faddFf = 220;
    std::uint64_t faddDsp = 2;

    // per-layer control/addressing/buffering overhead
    std::uint64_t layerLut = 900;
    std::uint64_t layerFf = 450;
    double layerBram = 2.0;

    // fixed engine overhead (MMIO/DMA glue, EV sum, control FSM)
    std::uint64_t engineLut = 12000;
    std::uint64_t engineFf = 5000;
    double engineBram = 16.0;
    std::uint64_t engineDsp = 16;

    /** Bytes stored per BRAM36 (36 Kbit). */
    double bytesPerBram = 4608.0;
};

/** Analytic resource model. */
class ResourceModel
{
  public:
    explicit ResourceModel(const ResourceCosts &costs = {});

    /** reachability: test-observer — ResourceModel.IiReuseDividesPeCount. */
    const ResourceCosts &costs() const { return costs_; }

    /**
     * Resources of one FC layer at kernel (kr,kc) with II-cycle
     * fmul/fadd reuse: ceil(kr*kc/II) PEs plus weight BRAM (zero when
     * the layer's weights live in off-chip DRAM) and control logic.
     */
    ResourceUsage layerResources(const EngineLayer &layer,
                                 std::uint32_t ii) const;

    /** Whole-engine resources: all layers + fixed overhead. */
    ResourceUsage engineResources(const std::vector<EngineLayer> &layers,
                                  std::uint32_t ii) const;

    /** BRAM36 blocks to hold @p bytes of weights. */
    double weightBram(Bytes bytes) const;

  private:
    ResourceCosts costs_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_RESOURCE_MODEL_H
