/**
 * @file
 * Kernel search algorithm (Section IV-C4): pick per-layer kernel
 * sizes (kr, kc), the DRAM/BRAM placement of weights, and the
 * micro-batch size so that
 *
 *     T_bot' <= T_emb'  and  T_top' <= T_emb'        (Eq. 2 targets)
 *
 * while minimizing total kernel area  sum(kr*kc), subject to
 *
 *     kc_i >= kr_{i+1}  (no pipeline bubbles, Eq. 3)
 *     kc_e = kc_b >= kr_{t1}                         (Eq. 3)
 *     kr*kc >= II for all but the last layer         (Eq. 4, kernel
 *                                                     reuse pipeline)
 *     adjacent pair times balanced                   (Eq. 5, emergent)
 *
 * Rule One: if the weights exceed the device BRAM budget, the largest
 * layers move to off-chip DRAM. Rule Two: DRAM-fed layers are pinned
 * to (kr, kc) = (Dwidth elements, II) so compute matches the DRAM
 * stream rate. Rule Three: if even maximal kernels cannot meet the
 * targets, the micro-batch doubles (1, 2, 4, ... II), growing T_emb'
 * while per-micro-batch MLP time stays constant. Rule Four: greedy
 * minimization from an alternating minimal floor, growing the slowest
 * layer until the targets hold.
 */

#ifndef RMSSD_ENGINE_KERNEL_SEARCH_H
#define RMSSD_ENGINE_KERNEL_SEARCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "engine/mlp_engine.h"
#include "engine/resource_model.h"
#include "model/dlrm.h"

namespace rmssd::engine {

/** Search hyper-parameters. */
struct SearchConfig
{
    std::uint32_t ii = kDefaultII;
    /** Largest kernel dimension 2^Kmax (Rule Three precondition). */
    std::uint32_t maxKernelDim = 16;
    /** DRAM stream width in fp32 elements (Dwidth = 64 B). */
    std::uint32_t dramWidthElems = 16;
    FpgaDevice device = xcvu9p();
    ResourceCosts costs = {};
};

/** Search outcome. */
struct SearchResult
{
    MlpPlan plan;            //!< kernels, DRAM flags, microBatch set
    MlpTiming timing;        //!< at the chosen micro-batch
    ResourceUsage resources; //!< engine total
    Cycle embReadCycles; //!< flash read time of one micro-batch
    /**
     * The bEV cost the search balanced against (Eq. 1a). Recorded so
     * the adaptive re-planner (RmSsd::replanIfDrifted) can report
     * what the current plan assumed when the measured hit ratio
     * drifts and the search is re-run.
     */
    double readCyclesPerVector = 0.0;
    bool feasible = false;   //!< Eq. 2 targets met
    std::vector<std::string> notes; //!< human-readable decisions
};

/** The kernel search algorithm. */
class KernelSearch
{
  public:
    explicit KernelSearch(const SearchConfig &config = {});

    /**
     * Search kernels for @p model.
     * @param readCyclesPerVector steady-state device-wide cycles per
     *        embedding vector read (bEV term of Eq. 1a)
     */
    SearchResult search(const model::ModelConfig &model,
                        double readCyclesPerVector) const;

    /**
     * Eq. 3/4 validity check of a plan, written apart from search().
     * reachability: test-observer — the oracle of
     * ConstraintTest.SearchedPlanSatisfiesEq2Through5,
     * RandomModelSearch.PlanIsStructurallyValid and
     * SearchOptimality.GreedyWithinFactorOfExhaustiveOnTinyModel.
     */
    static bool satisfiesChainConstraints(const MlpPlan &plan,
                                          std::uint32_t ii);

    /**
     * Rules One/Two standalone: spill weights to DRAM until the
     * on-chip share fits the device budget (also used by the default
     * and naive engine variants). Appends decisions to @p notes.
     */
    void placeWeights(MlpPlan &plan,
                      std::vector<std::string> &notes) const;

    /**
     * Rule Three standalone: escalate the micro-batch (1, 2, 4...II)
     * until the Eq. 2 targets hold at maximal kernels. Sets
     * plan.microBatch.
     */
    void chooseMicroBatch(MlpPlan &plan,
                          const model::ModelConfig &model,
                          double readCyclesPerVector,
                          std::vector<std::string> &notes) const;

    /** Flash read cycles of one micro-batch of @p microBatch samples. */
    Cycle embReadCycles(const model::ModelConfig &model,
                        double readCyclesPerVector,
                        std::uint32_t microBatch) const;

  private:
    void assignMinimalFloor(MlpPlan &plan) const;
    bool growSlowest(std::vector<EngineLayer *> &seq,
                     std::uint32_t ii) const;

    SearchConfig config_;
};

} // namespace rmssd::engine

#endif // RMSSD_ENGINE_KERNEL_SEARCH_H
