/**
 * @file
 * Benchmark-side instrumentation of the serving stack: a host-time span
 * recorder and TimedDevice, a forwarding proxy in front of any
 * engine::InferenceDevice.
 *
 * The proxy audits that every submitted request retires exactly once
 * and records each request's simulated completion cycle (plus, on
 * request, its outputs). With a Tracer attached it also records a
 * host-time span around every call into the wrapped layer that does
 * work. All wall-clock reads live here, in tools/perf: the simulator
 * (src/) and the figures (bench/) stay on the simulated clock.
 */

#ifndef RMSSD_PERF_TIMED_DEVICE_H
#define RMSSD_PERF_TIMED_DEVICE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/inference_device.h"

namespace rmssd::perf {

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** In-memory recorder of nested host-time spans (steady clock). */
class Tracer
{
  public:
    static constexpr std::uint32_t kNoParent = ~0u;

    struct Span
    {
        const char *name = ""; //!< static string, e.g. "engine.submit"
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        engine::RequestId id = 0; //!< request the span served; 0 = none
        std::uint32_t parent = kNoParent;
    };

    Tracer();

    /** Host nanoseconds since the tracer was created. */
    std::int64_t now() const;

    /** Open a span nested in the innermost open one. @return its index */
    std::uint32_t open(const char *name);
    /** Close the innermost open span, which must be @p index. */
    void close(std::uint32_t index);
    void setId(std::uint32_t index, engine::RequestId id)
    {
        spans_[index].id = id;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

/** Opens a span on construction and closes it on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name)
        : tracer_(tracer), index_(tracer ? tracer->open(name) : 0)
    {
    }
    ~SpanScope()
    {
        if (tracer_)
            tracer_->close(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *tracer_;
    std::uint32_t index_;
};

/**
 * Forwarding proxy: every virtual forwards to the wrapped device, and
 * after each forwarded call the wrapped device's retired completions
 * move into this proxy's own completion queue in FIFO order. poll(),
 * pollId() and drain() therefore return exactly what they would on the
 * bare device, so a serving loop driving the proxy makes the same calls
 * in the same order and the simulated results are unchanged.
 */
class TimedDevice final : public engine::InferenceDevice
{
  public:
    explicit TimedDevice(engine::InferenceDevice &inner);

    /** Record host-time spans into @p tracer; nullptr = untraced. */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }
    /** Keep each retired request's outputs (for reference checks). */
    void setKeepOutputs(bool keep) { keepOutputs_ = keep; }

    /** What happened to one request submitted since the last resetAudit. */
    struct Record
    {
        Cycle completion;
        std::uint32_t retirements = 0;
        std::vector<float> outputs;
    };

    /** Forget every record; the next submit starts a new audit window. */
    void resetAudit();
    /** Ids submitted since resetAudit, in submission order. */
    const std::vector<engine::RequestId> &submitted() const
    {
        return order_;
    }
    const Record &record(engine::RequestId id) const
    {
        return records_.at(id);
    }
    /**
     * Requests of the audit window that did not retire exactly once
     * (never, or more than once), plus unknown retirements.
     */
    std::uint64_t auditFailures() const;
    /** Latest completion cycle retired in the audit window. */
    Cycle lastRetiredCycle() const { return lastRetired_; }

    engine::InferenceOutcome
    infer(std::span<const model::Sample> samples) override;
    engine::RequestId
    submit(std::span<const model::Sample> samples) override;
    bool retireNext() override;
    bool oldestDoneBy(Cycle when) const override;
    std::uint32_t harvestDoneBy(Cycle when) override;
    Cycle nextDoneCycle() const override;
    std::uint32_t inflight() const override;
    void setMaxInflight(std::uint32_t depth) override;
    const model::DlrmModel &model() const override;
    Cycle deviceNow() const override;
    Cycle lastCompletion() const override;
    void advanceHostClock(Nanos hostNanos) override;
    void resetTiming() override;
    void registerStats(StatsRegistry &registry,
                       const std::string &prefix) const override;
    const Counter &hostBytesRead() const override;
    const Counter &hostBytesWritten() const override;
    std::uint32_t pipelineMicroBatch() const override;
    bool hasEvCache() const override;
    std::uint64_t cacheHits() const override;
    std::uint64_t cacheMisses() const override;
    bool replanIfDrifted(double threshold) override;
    std::uint64_t replanCount() const override;
    std::uint64_t migrateIfDrifted() override;
    std::uint64_t migratedPageCount() const override;
    void
    attachHostTier(std::shared_ptr<host::EmbeddingTier> tier) override;
    const host::EmbeddingTier *hostTier() const override;
    std::uint64_t tierSliceHits() const override;
    std::uint64_t tierSliceMisses() const override;
    void setChargeActualIndexBytes(bool on) override;

  private:
    /**
     * Run @p call against the wrapped device inside a span named
     * @p name (when traced), then move its completions here.
     */
    template <typename Call>
    auto forward(const char *name, Call &&call);

    /** Move the wrapped device's retired completions into this queue. */
    engine::RequestId collect();

    engine::InferenceDevice &inner_;
    Tracer *tracer_ = nullptr;
    bool keepOutputs_ = false;
    std::vector<engine::RequestId> order_;
    std::unordered_map<engine::RequestId, Record> records_;
    std::uint64_t unknown_ = 0;
    Cycle lastRetired_;
};

} // namespace rmssd::perf

#endif // RMSSD_PERF_TIMED_DEVICE_H
