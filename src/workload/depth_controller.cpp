#include "workload/depth_controller.h"

#include <algorithm>

#include "sim/log.h"

namespace rmssd::workload {

DepthController::DepthController(const DepthControllerConfig &config,
                                 std::uint32_t initialDepth)
    : config_(config), depth_(initialDepth)
{
    RMSSD_ASSERT(config_.minDepth >= 1, "minDepth must be >= 1");
    RMSSD_ASSERT(config_.maxDepth >= config_.minDepth,
                 "maxDepth below minDepth");
    RMSSD_ASSERT(config_.adjustEvery >= 1, "cooldown must be >= 1");
    RMSSD_ASSERT(config_.backlogLow <= config_.backlogHigh,
                 "backlog band inverted");
    RMSSD_ASSERT(config_.waitLow <= config_.waitHigh,
                 "wait band inverted");
    RMSSD_ASSERT(config_.shedPatience >= 1,
                 "shedPatience must be >= 1");
    depth_ = std::clamp(depth_, config_.minDepth, config_.maxDepth);
}

void
DepthController::onBacklog(std::size_t backlog)
{
    backlogSum_ += static_cast<double>(backlog);
    ++backlogSamples_;
}

void
DepthController::onWait(Nanos waited)
{
    waitSum_ += waited;
}

void
DepthController::prime(Nanos now)
{
    lastDecisionAt_ = now;
    primed_ = true;
}

bool
DepthController::onCompletion(Nanos now)
{
    if (!primed_)
        prime(now);
    ++completions_;
    if (completions_ % config_.adjustEvery != 0)
        return false;
    // No dispatches since the last decision (e.g. the end-of-run
    // drain): no evidence either way — hold rather than mistake the
    // silence for an empty backlog.
    if (backlogSamples_ == 0)
        return false;

    const double backlog =
        backlogSum_ / static_cast<double>(backlogSamples_);
    const Nanos elapsed =
        now > lastDecisionAt_ ? now - lastDecisionAt_ : Nanos{};
    const double waitShare =
        elapsed > Nanos{0}
            ? static_cast<double>(waitSum_.raw()) /
                  static_cast<double>(elapsed.raw())
            : (waitSum_ > Nanos{0} ? 1.0 : 0.0);
    backlogSum_ = 0.0;
    backlogSamples_ = 0;
    waitSum_ = Nanos{};
    lastDecisionAt_ = now;

    // Control law (MIAD with hysteresis and asymmetric patience):
    //  - a dispatch backlog OR a queue-wait share past its
    //    high-water mark -> the device is the bottleneck; double the
    //    overlap IMMEDIATELY (an under-provisioned depth hurts the
    //    tail right now, and multiplicative increase reaches a
    //    saturated fleet's working depth within a few requests);
    //  - both signals under their low-water marks -> nothing to
    //    overlap; the extra depth only parks requests inside the
    //    device (the Fig. 17 sub-saturation finding). Shed ONE step,
    //    and only after shedPatience consecutive quiet decisions — a
    //    burst lull must not throw away the working depth.
    const bool grow = backlog > config_.backlogHigh ||
                      waitShare > config_.waitHigh;
    const bool quiet = backlog < config_.backlogLow &&
                       waitShare < config_.waitLow;
    std::uint32_t next = depth_;
    if (grow) {
        shedStreak_ = 0;
        next = std::min(depth_ * 2, config_.maxDepth);
    } else if (quiet) {
        if (++shedStreak_ >= config_.shedPatience) {
            shedStreak_ = 0;
            next = std::max(depth_ - 1, config_.minDepth);
        }
    } else {
        shedStreak_ = 0;
    }
    if (next == depth_)
        return false;
    depth_ = next;
    ++adjustments_;
    return true;
}

} // namespace rmssd::workload
