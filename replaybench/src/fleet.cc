#include "fleet.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/rng.h"
#include "common/table.h"
#include "workloads/patterns.h"

namespace buddy {
namespace bench {

namespace {

std::vector<PlanAlloc>
captureAllocs(const TraceReplayer &capture)
{
    std::vector<PlanAlloc> out;
    for (const engine::TraceAllocation &a : capture.allocations())
        out.push_back({a.name, a.bytes, a.target});
    return out;
}

PlanAlloc
syntheticAlloc(std::size_t entries)
{
    // TenantSession's synthetic working set is one Ratio2 allocation.
    return {"set", entries * kEntryBytes, CompressionTarget::Ratio2};
}

} // namespace

std::vector<u8>
syntheticSet(u64 seed, std::size_t entries)
{
    std::vector<u8> data(entries * kEntryBytes);
    Rng rng(seed);
    for (std::size_t i = 0; i < entries; ++i)
        fillBucketEntry(rng, static_cast<unsigned>(i % kPatternBuckets),
                        data.data() + i * kEntryBytes);
    return data;
}

Fleet::Fleet(const FleetSpec &spec, const TraceReplayer *capture, Tracer &tr)
    : spec_(spec), capture_(capture), cfg_(spec.engine)
{
    BUDDY_CHECK(spec_.traceEvery == 0 || capture_ != nullptr,
                "trace-backed tenants need a capture");
    // Worst-case placement: any one shard can hold every tenant's set
    // (bench_service_load's sizing, plus its 8 MiB of headroom).
    std::vector<PlanAlloc> all;
    for (std::size_t i = 0; i < spec_.tenants; ++i) {
        if (spec_.traceBacked(i)) {
            const auto c = captureAllocs(*capture_);
            all.insert(all.end(), c.begin(), c.end());
        } else {
            all.push_back(syntheticAlloc(spec_.entries));
        }
    }
    cfg_.shard.deviceBytes =
        shardDeviceBytes(all, cfg_.shard.carveOutRatio, 8 * MiB);

    registry_ = std::make_unique<obs::MetricRegistry>();
    {
        Tracer::Scope sp(tr, "engine.construct");
        engine_ = std::make_unique<ShardedEngine>(cfg_);
    }
    engine_->attachMetrics(*registry_);

    ServiceConfig scfg;
    scfg.seed = spec_.seed;
    scfg.maxInflightPerTenant = spec_.perTenantInflight;
    scfg.maxInflightTotal = spec_.totalInflight;
    scfg.policy = SchedPolicy::WeightedFair;
    scfg.admission = AdmissionMode::Continuous;
    sched_ = std::make_unique<ServiceScheduler>(*engine_, scfg);

    Tracer::Scope sp(tr, "session.construct");
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < spec_.tenants; ++i) {
        const std::string name = "t" + std::to_string(i);
        auto session =
            spec_.traceBacked(i)
                ? std::make_unique<TenantSession>(name, *capture_, *engine_,
                                                  spec_.traceRepeat)
                : std::make_unique<TenantSession>(
                      name, *engine_, tenantSeed(spec_.seed, i),
                      spec_.entries, spec_.batches);
        session->setArrivals(ArrivalSpec::poisson(
            tenantSeed(spec_.seed ^ 0xa221a221ull, i), spec_.meanGapCycles));
        sched_->addSession(std::move(session), 1 + i % 4);
    }
    sched_->attachMetrics(*registry_);
    sessionConstructMs_ = secondsSince(t0) * 1e3;
}

const ServiceReport &
Fleet::run(Tracer &tr)
{
    Tracer::Scope sp(tr, "service.run");
    const Clock::time_point t0 = Clock::now();
    report_ = sched_->run();
    runSeconds_ = secondsSince(t0);
    return report_;
}

u64
Fleet::plannedOps() const
{
    u64 n = 0;
    for (std::size_t i = 0; i < spec_.tenants; ++i)
        n += spec_.traceBacked(i) ? capture_->opCount() * spec_.traceRepeat
                                  : spec_.entries * spec_.batches;
    return n;
}

void
Fleet::checkAccounting(const Options &opt, Outcome &out) const
{
    const bool windowed = cfg_.shard.windowMode == WindowMode::Merged;
    const auto engineTotals = engine_->tenantTotals();
    for (std::size_t i = 0; i < report_.tenants.size(); ++i) {
        const TenantReport &t = report_.tenants[i];
        const u64 ops = std::max<u64>(1, t.totals.operations());
        if (!t.finished) {
            out.fail(ops, "tenant " + t.name + " did not finish");
            continue;
        }
        const auto it = engineTotals.find(t.tenant);
        if (it == engineTotals.end() || it->second.batches != t.batches ||
            !isolationEqual(it->second.summary, t.totals, true))
            out.fail(ops, "tenant " + t.name +
                              ": scheduler totals differ from the "
                              "engine's tenantTotals()");
        if (spec_.traceBacked(i)) {
            TraceTotals want;
            for (unsigned r = 0; r < spec_.traceRepeat; ++r) {
                want.summary.accumulate(capture_->recordedTotals().summary);
                want.batches += capture_->recordedTotals().batches;
            }
            if (opt.inject == Inject::PerturbTotal)
                want.summary.deviceSectors += 1;
            if (t.batches != want.batches ||
                !isolationEqual(t.totals, want.summary, windowed))
                out.fail(ops, "tenant " + t.name +
                                  ": totals differ from the capture's "
                                  "footer");
        }
    }
}

void
Fleet::checkReadBack(const Options &opt, Outcome &out)
{
    std::map<std::string, Addr> vaOf;
    for (const auto &kv : engine_->allocations())
        vaOf[kv.second.name] = kv.second.va;
    AccessBatch batch;
    std::vector<std::size_t> who;
    std::vector<u8> readBuf(spec_.tenants * spec_.entries * kEntryBytes);
    std::size_t r = 0;
    for (std::size_t i = 0; i < spec_.tenants; ++i) {
        if (spec_.traceBacked(i))
            continue;
        const Addr va = vaOf.at("t" + std::to_string(i) + "/set");
        for (std::size_t e = 0; e < spec_.entries; ++e)
            batch.read(va + e * kEntryBytes,
                       readBuf.data() + r++ * kEntryBytes);
        who.push_back(i);
    }
    engine_->execute(batch);
    for (std::size_t k = 0; k < who.size(); ++k) {
        std::vector<u8> want =
            syntheticSet(tenantSeed(spec_.seed, who[k]), spec_.entries);
        if (opt.inject == Inject::CorruptEntry && k == 0)
            want[1] ^= 0x80;
        for (std::size_t e = 0; e < spec_.entries; ++e)
            if (std::memcmp(want.data() + e * kEntryBytes,
                            readBuf.data() +
                                (k * spec_.entries + e) * kEntryBytes,
                            kEntryBytes) != 0)
                out.fail(1, strfmt("tenant t%zu entry %zu read back "
                                   "differs from its seed's bytes",
                                   who[k], e));
    }
}

EngineConfig
Fleet::soloConfig(std::size_t i) const
{
    EngineConfig cfg = cfg_;
    const std::vector<PlanAlloc> own =
        spec_.traceBacked(i) ? captureAllocs(*capture_)
                             : std::vector<PlanAlloc>{
                                   syntheticAlloc(spec_.entries)};
    cfg.shard.deviceBytes =
        shardDeviceBytes(own, cfg.shard.carveOutRatio, 8 * kPageBytes);
    return cfg;
}

double
Fleet::checkSolo(const Options &opt, Outcome &out,
                 std::vector<double> *batchSeconds) const
{
    const bool windowed = cfg_.shard.windowMode == WindowMode::Merged;
    double soloSeconds = 0.0;
    for (std::size_t i = 0; i < report_.tenants.size(); ++i) {
        const TenantReport &t = report_.tenants[i];
        ShardedEngine eng(soloConfig(i));
        const std::string name = "t" + std::to_string(i);
        TenantSession solo =
            spec_.traceBacked(i)
                ? TenantSession(name, *capture_, eng, spec_.traceRepeat)
                : TenantSession(name, eng, tenantSeed(spec_.seed, i),
                                spec_.entries, spec_.batches);
        AccessBatch plan;
        std::vector<u8> readBuf;
        BatchSummary totals;
        u64 built = 0;
        while (solo.next(plan, readBuf)) {
            ++built;
            if (opt.inject == Inject::DropBatch && i == 0 &&
                built == solo.totalBatches())
                continue;
            const Clock::time_point t0 = Clock::now();
            totals.accumulate(eng.execute(plan));
            const double dt = secondsSince(t0);
            soloSeconds += dt;
            if (batchSeconds != nullptr)
                batchSeconds->push_back(dt);
        }
        if (!isolationEqual(t.totals, totals, windowed))
            out.fail(std::max<u64>(1, t.totals.operations()),
                     "tenant " + t.name +
                         ": contended totals differ from its solo replay");
    }
    return soloSeconds;
}

void
Fleet::checkSameAs(const ServiceReport &first, Outcome &out) const
{
    for (std::size_t i = 0; i < report_.tenants.size(); ++i) {
        const TenantReport &t = report_.tenants[i];
        if (i >= first.tenants.size() ||
            !isolationEqual(t.totals, first.tenants[i].totals, true))
            out.fail(std::max<u64>(1, t.totals.operations()),
                     "tenant " + t.name +
                         ": totals differ from the first round's");
    }
}

void
reportService(const Fleet &fleet, double soloSeconds, Outcome &out)
{
    const ServiceReport &rep = fleet.report();
    u64 batches = 0;
    obs::LatencyHistogram queueDelay;
    for (const TenantReport &t : rep.tenants) {
        batches += t.batches;
        queueDelay.merge(t.queueDelay);
    }
    out.layer("service.run_s", fleet.runSeconds(), "s");
    out.layer("service.overhead_us",
              (fleet.runSeconds() - soloSeconds) * 1e6 /
                  static_cast<double>(std::max<u64>(1, batches)),
              "us");
    out.layer("service.session_construct_ms", fleet.sessionConstructMs(),
              "ms");
    out.layer("service.queue_delay_p99_cycles",
              static_cast<double>(queueDelay.percentile(990)), "cycles");
    out.layer("service.sim_mcycles", static_cast<double>(rep.simCycles) / 1e6,
              "Mcycles");
    std::printf("service: %zu tenants, %llu batches, run %.4f s vs solo "
                "execute %.4f s, overhead %.2f us/batch, queue-delay p99 "
                "%llu cycles\n",
                rep.tenants.size(), (unsigned long long)batches,
                fleet.runSeconds(), soloSeconds,
                (fleet.runSeconds() - soloSeconds) * 1e6 /
                    static_cast<double>(std::max<u64>(1, batches)),
                (unsigned long long)queueDelay.percentile(990));
}

} // namespace bench
} // namespace buddy
