/**
 * @file
 * Shared pieces of the replay-path benchmark: run options, the outcome
 * a workload reports (operation counts, failures, metrics), the span
 * tracer, and the engine-independent access plans the per-layer suite
 * replays on a standalone controller, a 1-shard engine, a trace and a
 * service front end.
 *
 * Every layer is timed from outside, by wrapping calls into the
 * library's public functions; nothing here reaches into src/.
 */

#pragma once

#include <chrono>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/access.h"
#include "common/check.h"
#include "core/controller.h"
#include "engine/engine.h"
#include "workloads/image.h"

namespace buddy {
namespace bench {

using Clock = std::chrono::steady_clock;

/**
 * CPU seconds this process has used, all threads. Throughput is taken
 * against CPU time: on a shared virtual machine the wall time of
 * handoff-heavy or parallel code swings by 2x within a minute, while
 * the CPU time the same work needs holds within a few percent.
 */
inline double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A fault the self-test plants in one expected value. */
enum class Inject : u8 {
    None,
    CorruptEntry, ///< flip one byte of one expected entry
    DropBatch,    ///< leave one batch out of a reference replay
    PerturbTotal, ///< add one to one expected total
};

/** Command-line options shared by every workload. */
struct Options
{
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    Inject inject = Inject::None;
    unsigned threads = 4;   ///< engine worker threads (<= nproc)
    unsigned setupReps = 3; ///< set-ups per run; setup_s is their median
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * What one workload run reports. `attempted` counts the entry
 * operations of the timed phase; a failed check marks the operations
 * whose output it covers as failed (an entry, a batch, a tenant, or
 * every operation for a whole-layout property).
 */
class Outcome
{
  public:
    u64 attempted = 0;

    /** Record (and print) a failed check covering @p ops operations. */
    void fail(u64 ops, const std::string &why);

    /** Failed operations, capped at attempted. */
    u64 failed() const;

    void endToEnd(const std::string &name, double v, const std::string &unit)
    {
        endToEnd_[name] = {v, unit};
    }
    void layer(const std::string &name, double v, const std::string &unit)
    {
        layer_[name] = {v, unit};
    }
    const std::map<std::string, Metric> &endToEndMetrics() const
    {
        return endToEnd_;
    }
    const std::map<std::string, Metric> &layerMetrics() const
    {
        return layer_;
    }

  private:
    u64 failedOps_ = 0;
    std::map<std::string, Metric> endToEnd_;
    std::map<std::string, Metric> layer_;
};

/**
 * In-memory span recorder. Spans nest by scope: a span's parent is the
 * innermost span open when it starts. Disabled tracers record nothing
 * and read no clock.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

    /** RAII span; name must be a string literal. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        std::size_t idx_ = 0;
    };

    /** Write every span as JSON: id, name, parent, start_ns, end_ns. */
    void write(const std::string &path) const;

    /** Print per-name count, total and self time (children excluded). */
    void printSelfTimes() const;

  private:
    struct Span
    {
        const char *name;
        std::size_t parent; ///< index + 1, 0 = root
        i64 startNs;
        i64 endNs;
    };

    i64 nowNs() const;

    bool enabled_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_; ///< indices of open spans
};

/** One allocation of an access plan. */
struct PlanAlloc
{
    std::string name;
    u64 bytes = 0;
    CompressionTarget target = CompressionTarget::None;
};

/** One entry operation of an access plan, by allocation and entry. */
struct PlanOp
{
    u32 alloc = 0;
    u32 entry = 0;
    AccessKind kind = AccessKind::Probe;
    const u8 *src = nullptr; ///< write payload (kEntryBytes), owned elsewhere
};

/**
 * An address-free access plan: allocations plus batches of entry
 * operations. Bound to any target (engine or controller) by allocating
 * the allocations there and translating (alloc, entry) to addresses.
 */
struct Plans
{
    std::vector<PlanAlloc> allocs;
    std::vector<std::vector<PlanOp>> batches;

    u64 ops() const;
};

/** Allocate every plan allocation on @p target; returns base VAs. */
template <typename Target>
std::vector<Addr>
allocateAll(Target &target, const std::vector<PlanAlloc> &allocs,
            const std::string &prefix = "")
{
    std::vector<Addr> bases;
    bases.reserve(allocs.size());
    for (const PlanAlloc &a : allocs) {
        const auto id = target.allocate(prefix + a.name, a.bytes, a.target);
        BUDDY_CHECK(id.has_value(), "benchmark allocation out of memory");
        bases.push_back(target.allocations().at(*id).va);
    }
    return bases;
}

/** Fill @p out with @p ops bound at @p bases; reads land in @p readBuf. */
void buildBatch(const std::vector<PlanOp> &ops,
                const std::vector<Addr> &bases, AccessBatch &out,
                std::vector<u8> &readBuf);

/** Page-rounded logical bytes of an allocation of @p bytes. */
inline u64
pageRounded(u64 bytes)
{
    return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
}

/** Device bytes a layout reserves: page-rounded entries x device slot. */
u64 expectedDeviceBytes(const std::vector<PlanAlloc> &allocs);

/** Buddy bytes a layout reserves: page-rounded entries x (128 - slot). */
u64 expectedBuddyBytes(const std::vector<PlanAlloc> &allocs);

/**
 * Benchmarks of the registry materialised with WorkloadModel at a
 * scaled footprint, their generator seeds mixed with the run's seed so
 * contents change with the seed while their statistics do not.
 */
struct ModelImage
{
    std::deque<BenchmarkSpec> specs; ///< stable addresses for the models
    std::vector<std::unique_ptr<WorkloadModel>> models;
    std::vector<PlanAlloc> allocs;   ///< "<benchmark>/<allocation>"
    std::vector<u64> firstEntry;     ///< global first entry per allocation
    std::vector<std::size_t> modelOf;  ///< model index per allocation
    std::vector<std::size_t> localOf;  ///< allocation index in its model
    u64 entries = 0;

    /** Snapshot @p s of every allocation, back to back, in allocs order. */
    std::vector<u8> snapshot(unsigned s) const;
};

ModelImage makeModelImage(const std::vector<std::string> &names,
                          u64 bytesPerBenchmark, u64 seed);

/**
 * The profiling pass: encode every entry of @p image (allocations back
 * to back), build one AllocationProfile per allocation and let
 * Profiler::decide choose the targets.
 */
std::vector<CompressionTarget>
profileTargets(const std::vector<PlanAlloc> &allocs, const u8 *image,
               const std::string &codec);

/**
 * Per-shard device capacity that holds every allocation of @p allocs on
 * one shard (worst-case placement), carve-out included, plus @p slack.
 */
u64 shardDeviceBytes(const std::vector<PlanAlloc> &allocs,
                     unsigned carveOutRatio, u64 slack);

/** Traffic and serial cycle totals equal (window fields excluded). */
bool trafficEqual(const BatchSummary &a, const BatchSummary &b);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p in [0, 1] of @p v (0 when empty). */
double percentile(std::vector<double> v, double p);

/** Peak resident set of this process in MiB. */
double peakRssMiB();

/**
 * Report the engine layer's placement metrics: shards touched per batch,
 * the idle-shard fraction, and the engine's own WindowImbalanceStats
 * ratio, which averages only the shards a batch touched.
 */
void reportPlacement(const Plans &plans, const ShardedEngine &engine,
                     const std::vector<unsigned> &allocShard,
                     Outcome &out);

/** Declared and reserved store capacity of @p engine, in MiB. */
void reportStores(const ShardedEngine &engine, Outcome &out);

/**
 * Check that @p engine reserved exactly what @p allocs need, device
 * and buddy (the placement arithmetic of paper Section 3.3).
 */
void checkReserved(const ShardedEngine &engine,
                   const std::vector<PlanAlloc> &allocs,
                   const Options &opt, Outcome &out);

/**
 * Inputs of the per-layer suite: one round of the workload's own plans
 * and the shard template its engine runs.
 */
struct LayerInputs
{
    const Plans *plans = nullptr;
    EngineConfig engine;
};

/** compress.*: encode/decode ns per entry and fit ratio on the plans'
 *  own write payloads. */
void measureCompress(const LayerInputs &in, Tracer &tr, Outcome &out);

/**
 * controller.*, metadata.hit_ratio, window.* and engine.overhead_ns:
 * the plans on a standalone BuddyController and a 1-shard engine.
 */
void measureControllerAndWindow(const LayerInputs &in, Tracer &tr,
                                Outcome &out);

/**
 * trace.*: the plans recorded through a TraceRecorderSink, serialized,
 * loaded and bound. Returns the loaded capture image.
 */
std::vector<u8> measureTrace(const LayerInputs &in, Tracer &tr,
                             Outcome &out);

/**
 * service.*: the capture @p image streamed by one trace-backed tenant
 * among synthetic co-tenants through a ServiceScheduler, with per-tenant
 * totals checked against solo replays.
 */
void measureService(const LayerInputs &in, const std::vector<u8> &image,
                    const Options &opt, Tracer &tr, Outcome &out);

/** obs.export_ms: exportJson of @p registry. */
void measureExport(const obs::MetricRegistry &registry, Tracer &tr,
                   Outcome &out);

/** An engine with a layout allocated on it, and what that cost. */
struct EngineSetup
{
    std::unique_ptr<obs::MetricRegistry> registry; ///< outlives engine
    std::unique_ptr<ShardedEngine> engine;
    std::vector<Addr> bases;          ///< per plan allocation
    std::vector<unsigned> allocShard; ///< owning shard per allocation
    double constructMs = 0.0;
    double allocateUs = 0.0; ///< per allocate() call

    /** Destroy the engine, then the registry it reports into. */
    void
    release()
    {
        engine.reset();
        registry.reset();
    }
};

/** Construct an engine (metrics attached) and allocate @p allocs. */
EngineSetup setUpEngine(const EngineConfig &cfg,
                        const std::vector<PlanAlloc> &allocs, Tracer &tr);

/** What the timed rounds of a plan measured. */
struct RoundStats
{
    std::vector<BatchSummary> roundTotals; ///< per round
    std::vector<double> cpuRates;     ///< entries per CPU-second, per round
    std::vector<double> wallRates;    ///< entries per wall second, per round
    std::vector<double> batchSeconds; ///< wall time per executed batch
};

/**
 * Execute whole rounds of @p plans on @p s.engine until @p opt.seconds
 * have elapsed, timing each execute(). After every batch (untimed)
 * @p check sees the batch index, the executed batch and its read
 * buffer. Adds the executed operations to @p out.attempted.
 */
template <typename Check>
RoundStats
runRounds(EngineSetup &s, const Plans &plans, const Options &opt,
          Tracer &tr, Outcome &out, Check &&check)
{
    Tracer::Scope timed(tr, "timed");
    RoundStats st;
    AccessBatch batch;
    std::vector<u8> readBuf;
    const Clock::time_point start = Clock::now();
    do {
        Tracer::Scope round(tr, "round");
        BatchSummary total;
        double wall = 0.0, cpu = 0.0;
        u64 ops = 0;
        for (std::size_t b = 0; b < plans.batches.size(); ++b) {
            buildBatch(plans.batches[b], s.bases, batch, readBuf);
            const Clock::time_point t0 = Clock::now();
            const double c0 = cpuSeconds();
            {
                Tracer::Scope exec(tr, "engine.execute");
                total.accumulate(s.engine->execute(batch));
            }
            cpu += cpuSeconds() - c0;
            const double dt = secondsSince(t0);
            wall += dt;
            ops += batch.size();
            st.batchSeconds.push_back(dt);
            check(b, batch, readBuf);
        }
        out.attempted += ops;
        st.roundTotals.push_back(total);
        st.cpuRates.push_back(static_cast<double>(ops) / cpu);
        st.wallRates.push_back(static_cast<double>(ops) / wall);
    } while (secondsSince(start) < opt.seconds);
    return st;
}

/**
 * Record entries_per_cpu_s, the median over rounds of entry operations
 * per CPU-second of the timed calls, and print the wall-clock rate
 * beside it for reference.
 */
void reportThroughput(const std::vector<double> &cpuRates,
                      const std::vector<double> &wallRates, Outcome &out);

/** Record engine.batch_ms (median) and engine.batch_p99_ms. */
void reportBatchTimes(const std::vector<double> &batchSeconds,
                      Outcome &out);

/** Workload entry points. */
void runHpcFields(const Options &opt, Tracer &tr, Outcome &out);
void runDlProbe(const Options &opt, Tracer &tr, Outcome &out);
void runTenantFleet(const Options &opt, Tracer &tr, Outcome &out);

} // namespace bench
} // namespace buddy
