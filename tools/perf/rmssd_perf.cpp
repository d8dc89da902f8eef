/**
 * @file
 * rmssd_perf: run one benchmark workload and print its metrics as one
 * JSON object on stdout (progress goes to stderr).
 *
 *   rmssd_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *              [--trace-out FILE] [--selfcheck]
 *
 * A pass serves the rate points of one replica of the workload, each on
 * a fresh system: saturation and the frozen low and high rates, then
 * (on the first kBisectReplicas) the bisection for the highest rate
 * that meets the latency limit. A replica's trace and arrival streams derive
 * from the run seed and the replica's index. Every replica is served
 * once untraced, and the simulated metrics are medians over the
 * replicas. Passes then repeat the replicas in turn while another one
 * fits in --seconds; each must reproduce its replica bit for bit.
 * Host-time metrics are medians over the points, systems or passes
 * measured. With --trace 1 the repeated passes are traced (at least one
 * runs): host time per layer comes from them, and they must agree with
 * the untraced replicas on every simulated value.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.h"
#include "timed_device.h"
#include "workload/serving.h"
#include "workload/trace_gen.h"
#include "workloads.h"

namespace rmssd::perf {

namespace {

/** Registry dump parsed into name -> value. */
using Stats = std::map<std::string, double>;

/** Offered rate of the saturation point: back-to-back arrivals. */
constexpr double kSaturatingQps = 5e6;
/**
 * Requests at the saturation point. Its throughput is steady from the
 * first thousand requests on, and every request beyond that would sit
 * in the host queue at once.
 */
constexpr std::uint32_t kSatRequests = 1000;
/**
 * Independent replicas of the workload served per run. The simulated
 * metrics are medians over them: the p99 of one Poisson stream is set
 * by its few largest bursts and moves by tens of percent from seed to
 * seed.
 */
constexpr std::uint32_t kReplicas = 6;
/**
 * The first this many replicas also run the max_qps_slo bisection,
 * which costs more than all their other points together.
 */
constexpr std::uint32_t kBisectReplicas = 3;

/**
 * The seed of replica @p r of a run. Replica 0 serves the run seed
 * itself, as --selfcheck does.
 */
std::uint64_t
replicaSeed(std::uint64_t seed, std::uint32_t r)
{
    constexpr std::uint64_t kReplicaStream = 0x7265706c; // "repl"
    return r == 0 ? seed : hashCombine(hashCombine(seed, kReplicaStream), r);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
dumpStats(const engine::InferenceDevice &device)
{
    StatsRegistry registry;
    device.registerStats(registry, "dev");
    std::ostringstream os;
    registry.dump(os);
    return os.str();
}

Stats
parseStats(const std::string &dump)
{
    Stats stats;
    std::istringstream in(dump);
    std::string name;
    double value = 0.0;
    while (in >> name >> value)
        stats[name] = value;
    return stats;
}

/** Every ServingResult field, printed exactly, for equality checks. */
std::string
describe(const workload::ServingResult &r)
{
    std::ostringstream os;
    os.precision(17);
    const auto dist = [&os](const Distribution &d) {
        os << d.count() << '/' << d.sum() << '/' << d.min() << '/'
           << d.max() << ' ';
    };
    os << r.offeredQps << ' ' << r.achievedQps << ' '
       << r.meanLatency.raw() << ' ' << r.p50.raw() << ' ' << r.p95.raw()
       << ' ' << r.p99.raw() << ' ' << r.maxLatency.raw() << ' '
       << r.requests << ' ';
    dist(r.requestHitRatio);
    os << r.steadyHitRatio << ' ' << r.replans << ' ' << r.migratedPages
       << ' ' << r.tierHitRatio << ' ' << r.meanQueueDepth << ' '
       << r.meanDepthOnSubmit << ' ';
    dist(r.queueWaitNanos);
    dist(r.serviceNanos);
    os << r.deadlineMisses << ' ' << r.depthAdjustments << ' '
       << r.finalDepth;
    for (const workload::ClassServingResult &c : r.classes)
        os << " [" << c.name << ' ' << c.requests << ' '
           << c.deadlineMisses << ' ' << c.p99.raw() << ' '
           << c.meanLatency.raw() << ' ' << c.meanQueueWait.raw() << ']';
    return os.str();
}

/** The rate points of a pass; the names double as span names. */
struct PointKind
{
    const char *name;
    const char *span;
};
constexpr PointKind kSat{"sat", "point.sat"};
constexpr PointKind kLo{"lo", "point.lo"};
constexpr PointKind kHi{"hi", "point.hi"};
constexpr PointKind kBisect{"bisect", "point.bisect"};

/** Everything measured at one rate point. */
struct PointResult
{
    const char *name = "";
    double offeredQps = 0.0;
    workload::ServingResult serving;
    /** Requests over the latency limit or never retired. */
    std::uint64_t sloMisses = 0;
    /** Requests that failed a check (retirement audit, outputs). */
    std::uint64_t failures = 0;
    std::vector<std::string> failureNotes;
    /** Completions kept pace with arrivals (no growing backlog). */
    bool keptPace = false;
    /** Simulated span of the point: the last completion cycle. */
    Cycle cycles;
    /** Hash of every output float, in submission order. */
    std::uint64_t outputHash = 0;
    /** Host seconds inside simulateServing. */
    double hostS = 0.0;
    SetupTimes setup;
    /** Registry before/after (only at the point per-layer stats use). */
    std::string statsBefore;
    std::string statsAfter;
};

/**
 * Check one point's requests: each retired exactly once, the latency
 * percentiles recomputed from the scheduled arrivals equal the serving
 * loop's, and (functional workloads) every CTR is bit-equal to the host
 * reference DLRM's, cached in @p reference by the first check.
 */
void
checkPoint(PointResult &p, const WorkloadSpec &spec, const System &system,
           const workload::ServingConfig &config, const TimedDevice &front,
           std::vector<float> &reference)
{
    const auto fail = [&](std::uint64_t n, const std::string &what) {
        p.failures += n;
        p.failureNotes.push_back(std::string(p.name) + ": " + what);
    };
    if (const std::uint64_t bad = front.auditFailures())
        fail(bad, std::to_string(bad) +
                      " requests did not retire exactly once");
    if (front.submitted().size() != config.numRequests)
        fail(1, "submitted " + std::to_string(front.submitted().size()) +
                    " requests, expected " +
                    std::to_string(config.numRequests));

    // The serving loop draws one exponential gap per arrival from
    // Rng(config.seed); replaying the draws gives each request's
    // scheduled arrival, so latency counts the time it queued.
    Rng rng(config.seed);
    const double meanGapNanos = 1e9 / config.arrivalQps;
    double arrivalNanos = 0.0;
    Cycle lastArrival;
    Cycle lastCompletion;
    workload::LatencyRecorder latencies;
    std::uint64_t hash = 0;
    for (const engine::RequestId id : front.submitted()) {
        const double u = std::max(rng.nextDouble(), 1e-12);
        arrivalNanos += -meanGapNanos * std::log(u);
        const Cycle arrival = nanosToCycles(
            Nanos{static_cast<std::uint64_t>(arrivalNanos)});
        lastArrival = std::max(lastArrival, arrival);
        const TimedDevice::Record &record = front.record(id);
        for (const float out : record.outputs) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &out, sizeof bits);
            hash = hashCombine(hash, bits);
        }
        if (record.retirements != 1 || record.completion < arrival) {
            ++p.sloMisses;
            continue;
        }
        lastCompletion = std::max(lastCompletion, record.completion);
        const Nanos latency = cyclesToNanos(record.completion - arrival);
        latencies.add(latency);
        if (latency > spec.sloLimit())
            ++p.sloMisses;
    }
    p.outputHash = hash;
    if (latencies.percentile(50.0) != p.serving.p50 ||
        latencies.percentile(99.0) != p.serving.p99)
        fail(1, "latency percentiles recomputed from arrivals differ "
                "from the serving loop's");
    // Backlog test against the arrivals actually drawn, so Poisson
    // noise in the arrival span does not read as a backlog.
    p.keptPace = lastCompletion.raw() > 0 &&
                 static_cast<double>(lastArrival.raw()) >=
                     0.97 * static_cast<double>(lastCompletion.raw());

    if (!spec.checkOutputs)
        return;
    // Every point of a replica serves a prefix of the same sample
    // stream, so the reference CTRs are computed once per replica.
    if (reference.empty()) {
        workload::TraceGenerator replay(system.model, system.trace);
        for (std::uint32_t r = 0; r < system.warmupRequests; ++r)
            replay.nextBatch(config.batchSize);
        for (std::uint32_t r = 0; r < spec.numRequests; ++r) {
            for (const model::Sample &sample :
                 replay.nextBatch(config.batchSize))
                reference.push_back(
                    front.model().referenceInference(sample));
        }
    }
    std::uint64_t mismatches = 0;
    std::size_t next = 0;
    for (const engine::RequestId id : front.submitted()) {
        const std::vector<float> &outputs = front.record(id).outputs;
        const bool ok =
            outputs.size() == config.batchSize &&
            next + outputs.size() <= reference.size() &&
            std::memcmp(outputs.data(), reference.data() + next,
                        outputs.size() * sizeof(float)) == 0;
        next += config.batchSize;
        if (!ok)
            ++mismatches;
    }
    if (mismatches > 0)
        fail(mismatches, std::to_string(mismatches) +
                             " requests with CTRs not bit-equal to the "
                             "host reference");
}

/**
 * The arrival rate to configure so that the @p requests exponential
 * gaps the serving loop draws from Rng(@p seed) span exactly
 * requests / @p rateQps: every seed then offers exactly the nominal
 * load over the point. A finite Poisson sample otherwise realizes a
 * load a few percent off nominal, and near saturation that error
 * dominates the latency percentiles.
 */
double
exactLoadRate(double rateQps, std::uint64_t seed, std::uint32_t requests)
{
    Rng rng(seed);
    double gaps = 0.0;
    for (std::uint32_t r = 0; r < requests; ++r)
        gaps += -std::log(std::max(rng.nextDouble(), 1e-12));
    return rateQps * gaps / requests;
}

/** Serve one rate point on a fresh system. */
PointResult
runPoint(const WorkloadSpec &spec, std::uint64_t seed, PointKind kind,
         double rateQps, std::uint32_t requests, Tracer *tracer,
         bool layerStats, std::vector<float> &reference)
{
    PointResult p;
    p.name = kind.name;
    p.offeredQps = rateQps;

    System system = buildSystem(spec, seed, tracer);
    TimedDevice front(*system.device);
    front.setTracer(tracer);
    front.setKeepOutputs(spec.checkOutputs);
    warmUp(system, front, tracer);
    p.setup = system.setup;

    workload::ServingConfig config = system.serving;
    config.numRequests = requests;
    config.arrivalQps =
        exactLoadRate(rateQps, config.seed, config.numRequests);
    if (layerStats)
        p.statsBefore = dumpStats(front);
    front.resetAudit();
    const Clock::time_point start = Clock::now();
    {
        SpanScope span(tracer, kind.span);
        p.serving = workload::simulateServing(front, *system.gen, config);
    }
    p.hostS = secondsSince(start);
    if (layerStats)
        p.statsAfter = dumpStats(front);
    p.cycles = front.lastRetiredCycle();
    checkPoint(p, spec, system, config, front, reference);

    if (tracer) {
        // Trace generation runs inside the serving loop; replaying the
        // same stream alone separates its cost from the loop's.
        workload::TraceGenerator replay(system.model, system.trace);
        for (std::uint32_t r = 0; r < system.warmupRequests; ++r)
            replay.nextBatch(config.batchSize);
        SpanScope span(tracer, "workload.tracegen");
        for (std::uint32_t r = 0; r < config.numRequests; ++r)
            replay.nextBatch(config.batchSize);
    }
    return p;
}

/** One pass over every rate point of one replica of a workload. */
struct PassResult
{
    std::uint32_t replica = 0;
    std::vector<PointResult> points;
    /**
     * Highest feasible offered rate, samples per simulated second (0
     * when the replica does not bisect).
     */
    double maxQpsSlo = 0.0;
    /** Host seconds inside the serving loops of this pass. */
    double hostS = 0.0;
    std::uint64_t requests = 0;

    const PointResult &point(const char *name) const
    {
        for (const PointResult &p : points) {
            if (std::strcmp(p.name, name) == 0)
                return p;
        }
        return points.front();
    }
};

PassResult
runPass(const WorkloadSpec &spec, std::uint64_t runSeed,
        std::uint32_t replica, Tracer *tracer, std::vector<float> &reference)
{
    const std::uint64_t seed = replicaSeed(runSeed, replica);
    PassResult pass;
    pass.replica = replica;
    const auto add = [&](PointResult p) -> const PointResult & {
        pass.hostS += p.hostS;
        pass.requests += p.serving.requests;
        pass.points.push_back(std::move(p));
        return pass.points.back();
    };
    const std::uint32_t n = spec.numRequests;
    add(runPoint(spec, seed, kSat, kSaturatingQps, kSatRequests, tracer,
                 false, reference));
    add(runPoint(spec, seed, kLo, spec.loQps(), n, tracer, false,
                 reference));
    add(runPoint(spec, seed, kHi, spec.hiQps(), n, tracer, true,
                 reference));
    if (replica >= kBisectReplicas)
        return pass;

    // Bisect the offered rate over [0.25, 1.25] x the frozen
    // saturation rate to 1 %: feasible = p99 within the limit and
    // completions keeping pace with arrivals.
    double lo = 0.25 * spec.satRefQps;
    double hi = 1.25 * spec.satRefQps;
    while (hi - lo > 0.01 * lo) {
        const double mid = 0.5 * (lo + hi);
        const PointResult &p =
            add(runPoint(spec, seed, kBisect, mid, spec.bisectRequests,
                         tracer, false, reference));
        const bool feasible = p.serving.p99 <= spec.sloLimit() && p.keptPace;
        (feasible ? lo : hi) = mid;
    }
    pass.maxQpsSlo = lo * spec.batchSize;
    return pass;
}

/** Simulated outcome of a pass, exactly; equal passes replay bit for bit. */
std::string
fingerprint(const PassResult &pass)
{
    std::string s;
    for (const PointResult &p : pass.points)
        s += std::string(p.name) + " " + num(p.offeredQps) + " " +
             describe(p.serving) + " " +
             std::to_string(p.sloMisses) + " " +
             std::to_string(p.outputHash) + " " +
             std::to_string(p.cycles.raw()) + "\n" +
             p.statsAfter;
    return s;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Predicate on a stats-registry name. */
using NameMatch = std::function<bool(std::string_view)>;

NameMatch
endsWith(std::string_view suffix)
{
    return [suffix](std::string_view name) { return name.ends_with(suffix); };
}

/** flash.ch<N>.die<M>.busyCycles (@p die) or flash.ch<N>.busyCycles. */
NameMatch
flashBusy(bool die)
{
    return [die](std::string_view name) {
        return name.find(".flash.ch") != std::string_view::npos &&
               name.ends_with(".busyCycles") &&
               (name.find(".die") != std::string_view::npos) == die;
    };
}

/** Registry differences across the per-layer point. */
class LayerStats
{
  public:
    explicit LayerStats(const PointResult &p)
        : before_(parseStats(p.statsBefore)),
          after_(parseStats(p.statsAfter))
    {
    }

    /** Per-key after - before over the matching keys. */
    std::vector<double> deltas(const NameMatch &match) const
    {
        std::vector<double> out;
        for (const auto &[name, value] : after_) {
            if (!match(name))
                continue;
            const auto it = before_.find(name);
            out.push_back(value - (it == before_.end() ? 0.0 : it->second));
        }
        return out;
    }

    /** Values after the point (gauges that reset with timing). */
    std::vector<double> values(const NameMatch &match) const
    {
        std::vector<double> out;
        for (const auto &[name, value] : after_) {
            if (match(name))
                out.push_back(value);
        }
        return out;
    }

    double sum(const NameMatch &match) const
    {
        double total = 0.0;
        for (const double v : deltas(match))
            total += v;
        return total;
    }

  private:
    Stats before_;
    Stats after_;
};

double
mean(const std::vector<double> &v)
{
    double total = 0.0;
    for (const double x : v)
        total += x;
    return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/** Simulated per-layer metrics, read across the high-rate point. */
std::vector<Metric>
simulatedLayerMetrics(const PassResult &pass)
{
    const PointResult &hi = pass.point(kHi.name);
    const LayerStats s(hi);
    const workload::ServingResult &r = hi.serving;
    const double reqs = static_cast<double>(r.requests);
    const double cycles = static_cast<double>(hi.cycles.raw());
    const auto util = [&](const std::vector<double> &busy) {
        return cycles > 0.0 ? mean(busy) / cycles : 0.0;
    };

    const std::vector<double> issue =
        s.deltas(endsWith(".emb.issueBusyCycles"));
    const double issueMean = mean(issue);
    const double hits = s.sum(endsWith(".emb.cache.hits"));
    const double misses = s.sum(endsWith(".emb.cache.misses"));
    const std::vector<double> dies =
        s.values(flashBusy(true));
    const double dieMean = mean(dies);

    return {
        {"workload.queue_wait_us", r.queueWaitNanos.mean() / 1e3, "us"},
        {"workload.service_us", r.serviceNanos.mean() / 1e3, "us"},
        {"workload.queue_depth_mean", r.meanQueueDepth, "count"},
        {"workload.slo_miss_frac_hi",
         static_cast<double>(hi.sloMisses) / reqs, "fraction"},
        {"cluster.sub_requests_per_req",
         s.sum(endsWith(".subRequests")) / reqs, "count"},
        {"cluster.shard_issue_skew",
         issue.size() > 1 && issueMean > 0.0 ? maxOf(issue) / issueMean
                                             : 0.0,
         "ratio"},
        {"engine.cache.hit_ratio",
         hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "fraction"},
        {"engine.emb.coalesced_per_req",
         s.sum(endsWith(".emb.coalesced")) / reqs, "count"},
        {"engine.emb.flash_reads_per_req",
         s.sum(endsWith(".emb.flashReads")) / reqs, "count"},
        {"engine.emb.issue_util", util(issue), "fraction"},
        {"ftl.ev_requests_per_req", s.sum(endsWith(".ftl.evRequests")) / reqs,
         "count"},
        {"engine.mlp.bottom_util",
         util(s.deltas(endsWith(".mlp.bottomBusyCycles"))), "fraction"},
        {"engine.mlp.top_util", util(s.deltas(endsWith(".mlp.topBusyCycles"))),
         "fraction"},
        {"flash.die_util_mean", util(dies), "fraction"},
        {"flash.die_util_max", cycles > 0.0 ? maxOf(dies) / cycles : 0.0,
         "fraction"},
        {"flash.die_skew", dieMean > 0.0 ? maxOf(dies) / dieMean : 0.0,
         "ratio"},
        {"flash.bus_util_mean",
         util(s.values(flashBusy(false))), "fraction"},
        {"flash.die_conflicts_per_req",
         s.sum(endsWith(".dieConflicts")) / reqs, "count"},
        {"flash.programs_per_req", s.sum(endsWith(".pagePrograms")) / reqs,
         "count"},
        {"ftl.migrated_pages", static_cast<double>(r.migratedPages),
         "count"},
        {"nvme.dma_util", util(s.deltas(endsWith(".dma.busyCycles"))),
         "fraction"},
        {"nvme.dma_bytes_per_req", s.sum(endsWith(".dma.bytes")) / reqs, "B"},
        {"host.tier.hit_ratio", r.tierHitRatio, "fraction"},
        {"host.tier.bytes_per_req", s.sum(endsWith(".host.tier.bytes")) / reqs,
         "B"},
    };
}

/** Host time of one traced pass, summed per span name. */
struct HostSplit
{
    double pointNs = 0.0;   //!< inside simulateServing
    double deviceNs = 0.0;  //!< device calls inside the points
    double submitNs = 0.0;
    double retireNs = 0.0;
    double migrateNs = 0.0;
    double tracegenNs = 0.0;
};

HostSplit
splitHostTime(const Tracer &tracer)
{
    HostSplit split;
    const std::vector<Tracer::Span> &spans = tracer.spans();
    const auto inPoint = [&](const Tracer::Span &span) {
        return span.parent != Tracer::kNoParent &&
               std::strncmp(spans[span.parent].name, "point.", 6) == 0;
    };
    for (const Tracer::Span &span : spans) {
        const auto ns = static_cast<double>(span.endNs - span.startNs);
        const std::string_view name = span.name;
        if (name.starts_with("point."))
            split.pointNs += ns;
        else if (name == "workload.tracegen")
            split.tracegenNs += ns;
        if (!inPoint(span))
            continue;
        split.deviceNs += ns;
        if (name == "engine.submit")
            split.submitNs += ns;
        else if (name == "engine.retire")
            split.retireNs += ns;
        else if (name == "engine.migrate")
            split.migrateNs += ns;
    }
    return split;
}

/** Self time per span name: duration minus the child spans inside it. */
struct SelfTime
{
    std::string layer;
    std::uint64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};

std::vector<SelfTime>
selfTimes(const Tracer &tracer)
{
    const std::vector<Tracer::Span> &spans = tracer.spans();
    std::vector<double> childNs(spans.size(), 0.0);
    for (const Tracer::Span &span : spans) {
        if (span.parent != Tracer::kNoParent)
            childNs[span.parent] +=
                static_cast<double>(span.endNs - span.startNs);
    }
    std::map<std::string, SelfTime> byName;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SelfTime &row = byName[spans[i].name];
        row.layer = spans[i].name;
        const auto ns =
            static_cast<double>(spans[i].endNs - spans[i].startNs);
        ++row.count;
        row.totalMs += ns / 1e6;
        row.selfMs += (ns - childNs[i]) / 1e6;
    }
    std::vector<SelfTime> out;
    for (auto &[name, row] : byName)
        out.push_back(row);
    return out;
}

/** Chrome trace-event JSON (complete events, host microseconds). */
void
writeChromeTrace(const Tracer &tracer, const std::string &path)
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    const std::vector<Tracer::Span> &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        char buf[256];
        std::snprintf(
            buf, sizeof buf,
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
            "\"parent\":\"%s\"}}%s\n",
            s.name, static_cast<double>(s.startNs) / 1e3,
            static_cast<double>(s.endNs - s.startNs) / 1e3,
            static_cast<unsigned long long>(s.id),
            s.parent == Tracer::kNoParent ? "" : spans[s.parent].name,
            i + 1 < spans.size() ? "," : "");
        out << buf;
    }
    out << "]}\n";
}

/**
 * Serve the low-rate point three ways — bare device, proxy untraced,
 * proxy traced — and require identical serving results and
 * byte-identical stats dumps.
 */
bool
selfcheck(const WorkloadSpec &spec, std::uint64_t seed)
{
    std::vector<std::string> results;
    for (int mode = 0; mode < 3; ++mode) {
        Tracer tracer;
        Tracer *traced = mode == 2 ? &tracer : nullptr;
        System system = buildSystem(spec, seed, traced);
        TimedDevice proxy(*system.device);
        proxy.setTracer(traced);
        engine::InferenceDevice &front =
            mode == 0 ? *system.device
                      : static_cast<engine::InferenceDevice &>(proxy);
        warmUp(system, front, traced);
        workload::ServingConfig config = system.serving;
        config.numRequests = spec.numRequests;
        config.arrivalQps =
            exactLoadRate(spec.loQps(), config.seed, config.numRequests);
        const workload::ServingResult r =
            workload::simulateServing(front, *system.gen, config);
        results.push_back(describe(r) + "\n" + dumpStats(front));
    }
    const bool ok = results[0] == results[1] && results[0] == results[2];
    std::fprintf(stderr, "selfcheck %s: bare / proxy / traced proxy %s\n",
                 spec.name.c_str(), ok ? "identical" : "DIFFER");
    return ok;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
quote(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        s += (i ? ", " : "") + quote(metrics[i].name) + ": {\"value\": " +
             num(metrics[i].value) + ", \"unit\": " +
             quote(metrics[i].unit) + "}";
    return s + "}";
}

double
us(Nanos n)
{
    return static_cast<double>(n.raw()) / 1e3;
}

/**
 * Per metric, the median over @p replicas: the same metrics, in the
 * same order, measured on each replica.
 */
std::vector<Metric>
medianOverReplicas(const std::vector<std::vector<Metric>> &replicas)
{
    std::vector<Metric> out = replicas.front();
    for (std::size_t m = 0; m < out.size(); ++m) {
        std::vector<double> values;
        for (const std::vector<Metric> &metrics : replicas)
            values.push_back(metrics[m].value);
        out[m].value = median(values);
    }
    return out;
}

/** Simulated end-to-end metrics of one replica. */
std::vector<Metric>
simulatedEndToEnd(const WorkloadSpec &spec, const PassResult &pass)
{
    const PointResult &lo = pass.point(kLo.name);
    const PointResult &hi = pass.point(kHi.name);
    const PointResult &sat = pass.point(kSat.name);
    return {
        {"lat_lo.p50_us", us(lo.serving.p50), "us"},
        {"lat_lo.p99_us", us(lo.serving.p99), "us"},
        {"lat_hi.p50_us", us(hi.serving.p50), "us"},
        {"lat_hi.p99_us", us(hi.serving.p99), "us"},
        {"slo_met_frac_hi",
         1.0 - static_cast<double>(hi.sloMisses) /
                   static_cast<double>(hi.serving.requests),
         "fraction"},
        {"sat_qps", sat.serving.achievedQps * spec.batchSize, "samples/s"},
    };
}

/**
 * @p replicas are the first untraced pass of each replica. @p peakRssMb
 * is read after the first untraced pass: later passes repeat its kind
 * of work, and traced ones also hold their spans in memory.
 */
std::vector<Metric>
endToEndMetrics(const WorkloadSpec &spec,
                std::span<const PassResult> replicas,
                const std::vector<PassResult> &untraced, double peakRssMb)
{
    std::vector<std::vector<Metric>> perReplica;
    for (const PassResult &pass : replicas)
        perReplica.push_back(simulatedEndToEnd(spec, pass));
    std::vector<Metric> out = medianOverReplicas(perReplica);
    std::vector<double> maxQps;
    for (const PassResult &pass : replicas.first(kBisectReplicas))
        maxQps.push_back(pass.maxQpsSlo);
    out.push_back({"max_qps_slo", median(maxQps), "samples/s"});
    std::vector<double> speeds;
    std::vector<double> setups;
    for (const PassResult &pass : untraced) {
        for (const PointResult &p : pass.points) {
            // Per point, so a burst of host noise skews few samples.
            speeds.push_back(static_cast<double>(p.serving.requests) /
                             p.hostS);
            setups.push_back(p.setup.total());
        }
    }
    out.push_back({"sim_req_per_s", median(speeds), "req/s"});
    out.push_back({"setup_s", median(setups), "s"});
    out.push_back({"peak_rss_mb", peakRssMb, "MB"});
    return out;
}

/** Median host seconds of each set-up phase over the run's systems. */
void
appendSetupMetrics(std::vector<Metric> &out,
                   const std::vector<PassResult> &untraced)
{
    std::vector<double> builds;
    std::vector<double> provisions;
    std::vector<double> warmups;
    for (const PassResult &pass : untraced) {
        for (const PointResult &p : pass.points) {
            builds.push_back(p.setup.buildS);
            provisions.push_back(p.setup.provisionS);
            warmups.push_back(p.setup.warmupS);
        }
    }
    out.push_back({"setup.build_s", median(builds), "s"});
    out.push_back({"setup.provision_s", median(provisions), "s"});
    out.push_back({"setup.warmup_s", median(warmups), "s"});
}

/**
 * Host ns per request per layer, median over traced passes; the trace
 * overhead compares each traced pass with its replica's untraced one.
 */
void
appendHostLayerMetrics(std::vector<Metric> &out,
                       std::span<const PassResult> replicas,
                       const std::vector<PassResult> &traced,
                       const std::vector<Tracer> &tracers)
{
    std::vector<double> loop, gen, submit, retire, migrate, slowdowns;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const HostSplit split = splitHostTime(tracers[i]);
        const double reqs = static_cast<double>(traced[i].requests);
        loop.push_back(
            (split.pointNs - split.deviceNs - split.tracegenNs) / reqs);
        gen.push_back(split.tracegenNs / reqs);
        submit.push_back(split.submitNs / reqs);
        retire.push_back(split.retireNs / reqs);
        migrate.push_back(split.migrateNs / reqs);
        slowdowns.push_back(traced[i].hostS /
                            replicas[traced[i].replica].hostS);
    }
    out.push_back({"workload.loop_host_ns", median(loop), "ns"});
    out.push_back({"workload.tracegen_host_ns", median(gen), "ns"});
    out.push_back({"engine.submit_host_ns", median(submit), "ns"});
    out.push_back({"engine.retire_host_ns", median(retire), "ns"});
    out.push_back({"engine.migrate_host_ns", median(migrate), "ns"});
    out.push_back({"trace.overhead_frac", median(slowdowns) - 1.0,
                   "fraction"});
}

std::string
selfTimeJson(const Tracer &tracer)
{
    const std::vector<SelfTime> rows = selfTimes(tracer);
    std::string s = "[";
    for (std::size_t i = 0; i < rows.size(); ++i)
        s += std::string(i ? ", " : "") + "{\"layer\": " +
             quote(rows[i].layer) +
             ", \"count\": " + std::to_string(rows[i].count) +
             ", \"total_ms\": " + num(rows[i].totalMs) +
             ", \"self_ms\": " + num(rows[i].selfMs) + "}";
    return s + "]";
}

/** The pass's rate points with their sample counts. */
std::string
pointsJson(const PassResult &pass)
{
    std::string s = "[";
    for (std::size_t i = 0; i < pass.points.size(); ++i) {
        const PointResult &p = pass.points[i];
        s += std::string(i ? ", " : "") + "{\"name\": " + quote(p.name) +
             ", \"offered_qps\": " + num(p.offeredQps) +
             ", \"achieved_qps\": " + num(p.serving.achievedQps) +
             ", \"requests\": " + std::to_string(p.serving.requests) +
             ", \"p50_us\": " + num(us(p.serving.p50)) +
             ", \"p99_us\": " + num(us(p.serving.p99)) +
             ", \"host_s\": " + num(p.hostS) + "}";
    }
    return s + "]";
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    bool selfcheck = false;
    std::string traceOut;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: rmssd_perf --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--selfcheck]\n");
    return 2;
}

int
run(const Options &opt)
{
    const WorkloadSpec *spec = findWorkload(opt.workload);
    if (!spec) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    if (opt.selfcheck)
        return selfcheck(*spec, opt.seed) ? 0 : 1;

    // Every replica is served once untraced. The rest of the budget
    // repeats the replicas in turn, traced when tracing (then at least
    // one traced pass runs), while the replica's last pass would still
    // fit: bisecting replicas take twice as long as the others.
    const Clock::time_point runStart = Clock::now();
    std::vector<PassResult> untraced;
    std::vector<PassResult> traced;
    std::vector<Tracer> tracers;
    std::vector<std::vector<float>> referenceCtrs(kReplicas);
    std::vector<double> passSeconds(kReplicas, 0.0);
    double rssMb = 0.0;
    for (std::uint32_t n = 0;; ++n) {
        const std::uint32_t replica = n % kReplicas;
        const bool required = n < kReplicas || (opt.trace && traced.empty());
        if (!required &&
            secondsSince(runStart) + passSeconds[replica] > opt.seconds)
            break;
        const bool tracing = opt.trace && n >= kReplicas;
        const Clock::time_point passStart = Clock::now();
        if (tracing) {
            tracers.emplace_back();
            traced.push_back(runPass(*spec, opt.seed, replica,
                                     &tracers.back(), referenceCtrs[replica]));
        } else {
            untraced.push_back(runPass(*spec, opt.seed, replica, nullptr,
                                       referenceCtrs[replica]));
        }
        if (n == 0)
            rssMb = peakRssMb();
        passSeconds[replica] = secondsSince(passStart);
        std::fprintf(stderr, "%s: pass %u (replica %u%s) took %.2f s\n",
                     spec->name.c_str(), n + 1, replica,
                     tracing ? ", traced" : "", passSeconds[replica]);
    }
    const std::span<const PassResult> replicas(untraced.data(), kReplicas);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;
    const auto audit = [&](const std::vector<PassResult> &passes,
                           const char *what) {
        for (const PassResult &pass : passes) {
            attempted += pass.requests;
            for (const PointResult &p : pass.points) {
                failed += p.failures;
                notes.insert(notes.end(), p.failureNotes.begin(),
                             p.failureNotes.end());
            }
            if (fingerprint(pass) != fingerprint(replicas[pass.replica])) {
                ++failed;
                notes.push_back(std::string("simulated results of a ") +
                                what + " pass of replica " +
                                std::to_string(pass.replica) +
                                " differ from its first pass");
            }
        }
    };
    audit(untraced, "untraced");
    audit(traced, "traced");

    std::vector<std::vector<Metric>> layers;
    for (const PassResult &pass : replicas)
        layers.push_back(simulatedLayerMetrics(pass));
    std::vector<Metric> perLayer = medianOverReplicas(layers);
    appendSetupMetrics(perLayer, untraced);
    if (opt.trace) {
        appendHostLayerMetrics(perLayer, replicas, traced, tracers);
        if (!opt.traceOut.empty())
            writeChromeTrace(tracers.front(), opt.traceOut);
    }
    std::string failures = "[";
    for (std::size_t i = 0; i < notes.size(); ++i)
        failures += (i ? ", " : "") + quote(notes[i]);
    failures += "]";

    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
        "\"replicas\": %u, \"passes\": %zu, \"traced_passes\": %zu, "
        "\"attempted\": %llu, \"failed\": %llu, \"failures\": %s, "
        "\"points\": %s, \"end_to_end\": %s, \"per_layer\": %s, "
        "\"self_time\": %s}\n",
        quote(spec->name).c_str(), static_cast<unsigned long long>(opt.seed),
        opt.trace ? 1 : 0, kReplicas, untraced.size(), traced.size(),
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), failures.c_str(),
        pointsJson(untraced.front()).c_str(),
        metricsJson(endToEndMetrics(*spec, replicas, untraced, rssMb))
            .c_str(),
        metricsJson(perLayer).c_str(),
        opt.trace ? selfTimeJson(tracers.front()).c_str() : "[]");
    return 0;
}

} // namespace

} // namespace rmssd::perf

int
main(int argc, char **argv)
{
    using namespace rmssd::perf;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--selfcheck") {
            opt.selfcheck = true;
        } else if (arg == "--workload" && hasValue) {
            opt.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && hasValue) {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && hasValue) {
            opt.trace = std::strtol(argv[++i], nullptr, 10) != 0;
        } else if (arg == "--trace-out" && hasValue) {
            opt.traceOut = argv[++i];
        } else {
            return usage();
        }
    }
    if (opt.workload.empty())
        return usage();
    return run(opt);
}
