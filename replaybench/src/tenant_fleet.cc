/**
 * @file
 * tenant-fleet: hundreds of tenants with small batches under continuous
 * admission, seeded Poisson arrivals and weighted-fair QoS. Most
 * tenants are synthetic; every eighth streams one capture, recorded
 * during set-up from a slice of a DL benchmark. Host time goes to
 * per-batch cost (scheduler picks, session plan building, engine
 * submit and merge); set-up goes to capacity-sized stores and the
 * trace record/load.
 *
 * A ServiceScheduler runs once, so each round sets the fleet up anew
 * (set-up is timed per round) and runs it; every round has the same
 * inputs and must produce the same per-tenant totals.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"
#include "common/table.h"
#include "engine/trace.h"
#include "fleet.h"
#include "workloads/benchmark.h"

namespace buddy {
namespace bench {

namespace {

constexpr std::size_t kTenants = 256;
constexpr std::size_t kTraceEvery = 8;
constexpr std::size_t kEntries = 32;
constexpr u64 kBatches = 24;
constexpr unsigned kTraceRepeat = 4; ///< 6 capture batches, 4 times
constexpr unsigned kShards = 4;
constexpr u64 kWindow = 32;
constexpr u64 kMeanGap = 2048;
constexpr const char *kSliceBenchmark = "ResNet50";
constexpr u64 kSliceEntries = 32; ///< per allocation of the slice

EngineConfig
shardTemplate()
{
    EngineConfig cfg;
    cfg.shards = kShards;
    // One worker: with small batches the fleet's cost is the per-batch
    // hand-off between the scheduler and the engine. Four workers add
    // wake-ups of idle vCPUs that made the CPU time per entry swing by
    // 16% between runs on a shared virtual machine; one worker, 11%.
    cfg.threads = 1;
    cfg.shard.linkWindow = kWindow;
    cfg.shard.windowMode = WindowMode::Merged;
    return cfg;
}

/** The DL slice a capture is recorded from. */
struct Slice
{
    ModelImage img;
    std::vector<u8> data; ///< snapshot 0, allocations back to back
    Plans plans;          ///< written in kEntries batches, then read
};

Slice
makeSlice(u64 seed)
{
    Slice s{makeModelImage({kSliceBenchmark}, MiB, seed), {}, {}};
    // Keep the first kSliceEntries entries of every allocation.
    u64 first = 0;
    for (std::size_t a = 0; a < s.img.allocs.size(); ++a) {
        s.img.allocs[a].bytes = kSliceEntries * kEntryBytes;
        s.img.firstEntry[a] = first;
        first += kSliceEntries;
    }
    s.img.entries = first;
    s.data = s.img.snapshot(0);
    s.plans.allocs = s.img.allocs;
    for (AccessKind kind : {AccessKind::Write, AccessKind::Read}) {
        std::vector<PlanOp> b;
        for (std::size_t a = 0; a < s.img.allocs.size(); ++a)
            for (u32 e = 0; e < kSliceEntries; ++e) {
                const u64 g = s.img.firstEntry[a] + e;
                b.push_back({static_cast<u32>(a), e, kind,
                             kind == AccessKind::Write
                                 ? s.data.data() + g * kEntryBytes
                                 : nullptr});
                if (b.size() == kEntries)
                    s.plans.batches.push_back(std::move(b)), b.clear();
            }
        if (!b.empty())
            s.plans.batches.push_back(std::move(b));
    }
    return s;
}

/** Record the slice on a small engine and load the capture back. */
void
capture(const Slice &slice, const EngineConfig &tmpl, TraceReplayer &out,
        Tracer &tr)
{
    Tracer::Scope sp(tr, "trace.capture");
    EngineConfig cfg = tmpl;
    cfg.shards = 1;
    cfg.threads = 1;
    cfg.shard.deviceBytes = MiB;
    ShardedEngine eng(cfg);
    TraceRecorderSink rec;
    const std::vector<Addr> bases = allocateAll(eng, slice.plans.allocs);
    for (Addr va : bases) {
        const EngineAllocation &a = eng.allocationFor(va);
        rec.noteAllocation(a.name, a.va, a.bytes, a.target);
    }
    eng.attachSink(&rec);
    AccessBatch batch;
    std::vector<u8> readBuf;
    for (const auto &b : slice.plans.batches) {
        buildBatch(b, bases, batch, readBuf);
        eng.execute(batch);
    }
    eng.detachSink(&rec);
    out.loadImage(rec.serialize());
}

/**
 * The fleet's streams as one address-free plan, tenant batches
 * interleaved by batch index, allocations in the order the sessions
 * make them (so an engine allocating them places them identically).
 */
Plans
fleetPlans(const Slice &slice, const FleetSpec &spec,
           std::vector<std::vector<u8>> &sets)
{
    Plans p;
    std::vector<std::size_t> firstAlloc;
    for (std::size_t i = 0; i < spec.tenants; ++i) {
        firstAlloc.push_back(p.allocs.size());
        const std::string name = "t" + std::to_string(i) + "/";
        if (spec.traceBacked(i)) {
            for (const PlanAlloc &a : slice.plans.allocs)
                p.allocs.push_back({name + a.name, a.bytes, a.target});
            sets.emplace_back();
        } else {
            p.allocs.push_back({name + "set", spec.entries * kEntryBytes,
                                CompressionTarget::Ratio2});
            sets.push_back(
                syntheticSet(tenantSeed(spec.seed, i), spec.entries));
        }
    }
    const std::size_t traceBatches =
        slice.plans.batches.size() * spec.traceRepeat;
    const std::size_t rounds =
        std::max<std::size_t>(spec.batches, traceBatches);
    for (std::size_t k = 0; k < rounds; ++k)
        for (std::size_t i = 0; i < spec.tenants; ++i) {
            const u32 base = static_cast<u32>(firstAlloc[i]);
            if (spec.traceBacked(i)) {
                if (k >= traceBatches)
                    continue;
                std::vector<PlanOp> b =
                    slice.plans.batches[k % slice.plans.batches.size()];
                for (PlanOp &op : b)
                    op.alloc += base;
                p.batches.push_back(std::move(b));
            } else if (k < spec.batches) {
                // TenantSession alternates writing and reading its set.
                std::vector<PlanOp> b;
                for (u32 e = 0; e < spec.entries; ++e)
                    b.push_back({base, e,
                                 k % 2 == 0 ? AccessKind::Write
                                            : AccessKind::Read,
                                 k % 2 == 0 ? sets[i].data() + e * kEntryBytes
                                            : nullptr});
                p.batches.push_back(std::move(b));
            }
        }
    return p;
}

} // namespace

void
runTenantFleet(const Options &opt, Tracer &tr, Outcome &out)
{
    FleetSpec spec;
    spec.engine = shardTemplate();
    spec.tenants = kTenants;
    spec.traceEvery = kTraceEvery;
    spec.entries = kEntries;
    spec.batches = kBatches;
    spec.traceRepeat = kTraceRepeat;
    spec.seed = opt.seed;
    spec.meanGapCycles = kMeanGap;
    Slice slice = makeSlice(opt.seed);
    std::printf("tenant-fleet: %zu tenants (%zu trace-backed), %zu-entry "
                "batches, Poisson mean gap %llu cycles, weighted-fair "
                "weights 1..4, %u shards merged window W=%llu\n",
                kTenants, kTenants / kTraceEvery, kEntries,
                (unsigned long long)kMeanGap, kShards,
                (unsigned long long)kWindow);

    std::vector<double> setupSeconds, cpuRates, wallRates, profileMs;
    ServiceReport first;
    double firstSolo = 0.0, firstRun = 0.0, firstSessionMs = 0.0;
    double ratio = 0.0;
    EngineConfig fleetCfg;
    const Clock::time_point start = Clock::now();
    std::vector<double> batchSeconds;
    {
        Tracer::Scope timed(tr, "timed");
        do {
            Tracer::Scope round(tr, "round");
            auto replayer = std::make_unique<TraceReplayer>();
            std::unique_ptr<Fleet> fleet;
            {
                Tracer::Scope sp(tr, "setup");
                const Clock::time_point t0 = Clock::now();
                {
                    Tracer::Scope pr(tr, "profile");
                    const auto t = profileTargets(slice.plans.allocs,
                                                  slice.data.data(), "bpc");
                    profileMs.push_back(secondsSince(t0) * 1e3);
                    for (std::size_t a = 0; a < t.size(); ++a)
                        slice.plans.allocs[a].target = t[a];
                }
                capture(slice, spec.engine, *replayer, tr);
                fleet = std::make_unique<Fleet>(spec, replayer.get(), tr);
                setupSeconds.push_back(secondsSince(t0));
            }
            const double c0 = cpuSeconds();
            const ServiceReport &rep = fleet->run(tr);
            const double cpu = cpuSeconds() - c0;
            u64 ops = 0;
            for (const TenantReport &t : rep.tenants)
                ops += t.totals.operations();
            out.attempted += ops;
            cpuRates.push_back(static_cast<double>(ops) / cpu);
            wallRates.push_back(static_cast<double>(ops) /
                                fleet->runSeconds());

            Tracer::Scope checks(tr, "check");
            if (ops != fleet->plannedOps())
                out.fail(fleet->plannedOps(),
                         strfmt("fleet executed %llu ops, its streams "
                                "hold %llu",
                                (unsigned long long)ops,
                                (unsigned long long)fleet->plannedOps()));
            fleet->checkAccounting(opt, out);
            fleet->checkReadBack(opt, out);
            if (setupSeconds.size() == 1) {
                first = rep;
                firstRun = fleet->runSeconds();
                firstSessionMs = fleet->sessionConstructMs();
                firstSolo = fleet->checkSolo(opt, out, &batchSeconds);
                if (opt.trace) {
                    reportService(*fleet, firstSolo, out);
                    measureExport(fleet->registry(), tr, out);
                }
            } else {
                fleet->checkSameAs(first, out);
            }
            ratio = fleet->engine().compressionRatio();
            fleetCfg = fleet->engineConfig();
        } while (secondsSince(start) < opt.seconds);
    }

    reportThroughput(cpuRates, wallRates, out);
    out.endToEnd("setup_s", median(setupSeconds), "s");
    out.endToEnd("compression_ratio", ratio, "x");
    std::printf("tenant-fleet: %zu rounds, setup %.4f s, ratio %.4fx; first "
                "round run %.4f s, solo execute %.4f s, sessions %.2f ms\n",
                setupSeconds.size(), median(setupSeconds),
                ratio, firstRun, firstSolo, firstSessionMs);

    if (opt.trace) {
        // The fleet's layout on an identically configured engine: the
        // same allocation order gives the same placement.
        std::vector<std::vector<u8>> sets;
        const Plans plans = fleetPlans(slice, spec, sets);
        {
            EngineSetup s = setUpEngine(fleetCfg, plans.allocs, tr);
            out.layer("engine.construct_ms", s.constructMs, "ms");
            out.layer("engine.allocate_us", s.allocateUs, "us");
            reportPlacement(plans, *s.engine, s.allocShard, out);
            reportBatchTimes(batchSeconds, out);
            reportStores(*s.engine, out);
            s.release();
        }
        out.layer("profiler.profile_ms", median(profileMs), "ms");
        LayerInputs in;
        in.plans = &plans;
        in.engine = fleetCfg;
        Tracer::Scope layers(tr, "layers");
        measureCompress(in, tr, out);
        measureControllerAndWindow(in, tr, out);
        measureTrace(in, tr, out);
    }
}

} // namespace bench
} // namespace buddy
