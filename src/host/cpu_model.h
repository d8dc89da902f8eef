/**
 * @file
 * Host CPU cost model for the DRAM-only reference and the host share
 * of the naive SSD deployments.
 *
 * Calibrated against the DRAM bars of Fig. 2: a fixed per-call
 * framework overhead (PyTorch operator dispatch dominates small
 * models at batch 1), GEMM at an effective f32 rate, and SLS pooling
 * at DRAM-random-access speed. Only the *relative* relations matter
 * for reproduction: MLP-dominated vs embedding-dominated, and
 * DRAM >> naive-SSD.
 */

#ifndef RMSSD_HOST_CPU_MODEL_H
#define RMSSD_HOST_CPU_MODEL_H

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace rmssd::host {

/** Host CPU cost parameters. */
struct CpuCosts
{
    /** Per-inference-call framework/dispatch overhead (ns). */
    Nanos frameworkNanos{1'000'000};
    /** Effective f32 GEMM throughput at batch 1 (GFLOP/s). */
    double gemmGflops = 5.0;
    /**
     * Batched GEMM ceiling (GFLOP/s): larger batches amortize kernel
     * launch and reuse weights, so the effective rate scales roughly
     * linearly with batch up to this peak (calibrated to the Fig. 2
     * DRAM bars).
     */
    double maxGemmGflops = 100.0;
    /** Fixed per-lookup cost of the SLS operator (index math, ns). */
    Nanos slsFixedNanos{15};
    /** DRAM streaming cost per embedding byte (ns/B). */
    double dramNanosPerByte = 0.08;
    /** Fixed cost of the feature-interaction concat (ns). */
    Nanos concatFixedNanos{2000};
};

/** One FC layer's shape for cost purposes. */
struct FcShape
{
    std::uint32_t inputs = 0;  //!< R
    std::uint32_t outputs = 0; //!< C
};

/** Analytic host CPU model. */
class CpuModel
{
  public:
    explicit CpuModel(const CpuCosts &costs = {});

    /** reachability: test-observer — CpuModel.SlsCostPerLookup. */
    const CpuCosts &costs() const { return costs_; }

    /** Dense forward through @p layers for @p batch samples. */
    Nanos mlpNanos(const std::vector<FcShape> &layers,
                   std::uint32_t batch) const;

    /**
     * In-memory SLS pooling: gather + sum @p lookups vectors of
     * @p evBytes bytes each (per sample; multiply by batch upstream).
     */
    Nanos slsNanos(std::uint64_t lookups, Bytes evBytes) const;

    /** Feature-interaction concat of @p bytes. */
    Nanos concatNanos(Bytes bytes) const;

    /** Per-call framework overhead. */
    Nanos frameworkNanos() const { return costs_.frameworkNanos; }

  private:
    CpuCosts costs_;
};

} // namespace rmssd::host

#endif // RMSSD_HOST_CPU_MODEL_H
