#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "api/codec_registry.h"
#include "common/table.h"
#include "core/profiler.h"
#include "obs/json.h"
#include "service/scheduler.h"

namespace buddy {
namespace bench {

// --------------------------------------------------------------- Outcome --

void
Outcome::fail(u64 ops, const std::string &why)
{
    failedOps_ += ops;
    std::printf("CHECK FAILED (%llu ops): %s\n",
                 (unsigned long long)ops, why.c_str());
}

u64
Outcome::failed() const
{
    return std::min(failedOps_, attempted);
}

// ---------------------------------------------------------------- Tracer --

i64
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
}

Tracer::Scope::Scope(Tracer &t, const char *name) : t_(t)
{
    if (!t_.enabled_)
        return;
    const std::size_t parent = t_.open_.empty() ? 0 : t_.open_.back() + 1;
    idx_ = t_.spans_.size();
    t_.spans_.push_back({name, parent, t_.nowNs(), 0});
    t_.open_.push_back(idx_);
}

Tracer::Scope::~Scope()
{
    if (!t_.enabled_)
        return;
    t_.spans_[idx_].endNs = t_.nowNs();
    t_.open_.pop_back();
}

void
Tracer::write(const std::string &path) const
{
    obs::JsonWriter w;
    w.beginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.beginObject()
            .key("id").value(static_cast<u64>(i + 1))
            .key("name").value(s.name)
            .key("parent").value(static_cast<u64>(s.parent))
            .key("start_ns").value(s.startNs)
            .key("end_ns").value(s.endNs)
            .endObject();
    }
    w.endArray();
    obs::writeFile(path, w.str() + "\n");
}

void
Tracer::printSelfTimes() const
{
    std::vector<i64> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent != 0)
            childNs[s.parent - 1] += s.endNs - s.startNs;
    struct Agg
    {
        u64 count = 0;
        i64 totalNs = 0;
        i64 selfNs = 0;
    };
    std::map<std::string, Agg> by;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Agg &a = by[spans_[i].name];
        const i64 d = spans_[i].endNs - spans_[i].startNs;
        ++a.count;
        a.totalNs += d;
        a.selfNs += d - childNs[i];
    }
    std::printf("%-28s %9s %12s %12s\n", "span", "count", "total-ms",
                "self-ms");
    for (const auto &kv : by)
        std::printf("%-28s %9llu %12.3f %12.3f\n", kv.first.c_str(),
                    (unsigned long long)kv.second.count,
                    kv.second.totalNs / 1e6, kv.second.selfNs / 1e6);
}

// ----------------------------------------------------------------- plans --

u64
Plans::ops() const
{
    u64 n = 0;
    for (const auto &b : batches)
        n += b.size();
    return n;
}

void
buildBatch(const std::vector<PlanOp> &ops, const std::vector<Addr> &bases,
           AccessBatch &out, std::vector<u8> &readBuf)
{
    out.clear();
    out.reserve(ops.size());
    std::size_t reads = 0;
    for (const PlanOp &op : ops)
        reads += op.kind == AccessKind::Read;
    if (readBuf.size() < reads * kEntryBytes)
        readBuf.resize(reads * kEntryBytes);
    std::size_t r = 0;
    for (const PlanOp &op : ops) {
        const Addr va = bases[op.alloc] + u64{op.entry} * kEntryBytes;
        switch (op.kind) {
          case AccessKind::Read:
            out.read(va, readBuf.data() + r++ * kEntryBytes);
            break;
          case AccessKind::Write:
            out.write(va, op.src);
            break;
          case AccessKind::Probe:
            out.probe(va);
            break;
        }
    }
}

u64
expectedDeviceBytes(const std::vector<PlanAlloc> &allocs)
{
    u64 n = 0;
    for (const PlanAlloc &a : allocs)
        n += pageRounded(a.bytes) / kEntryBytes *
             deviceBytesPerEntry(a.target);
    return n;
}

u64
expectedBuddyBytes(const std::vector<PlanAlloc> &allocs)
{
    u64 n = 0;
    for (const PlanAlloc &a : allocs)
        n += pageRounded(a.bytes) / kEntryBytes *
             (kEntryBytes - deviceBytesPerEntry(a.target));
    return n;
}

u64
shardDeviceBytes(const std::vector<PlanAlloc> &allocs, unsigned carveOutRatio,
                 u64 slack)
{
    const u64 bud = expectedBuddyBytes(allocs);
    return std::max(expectedDeviceBytes(allocs),
                    (bud + carveOutRatio - 1) / carveOutRatio) +
           slack;
}

std::vector<u8>
ModelImage::snapshot(unsigned s) const
{
    std::vector<u8> out(entries * kEntryBytes);
    for (std::size_t i = 0; i < allocs.size(); ++i) {
        const WorkloadModel &m = *models[modelOf[i]];
        const u64 n = allocs[i].bytes / kEntryBytes;
        for (u64 e = 0; e < n; ++e)
            m.entryData(localOf[i], e, s,
                        out.data() + (firstEntry[i] + e) * kEntryBytes);
    }
    return out;
}

ModelImage
makeModelImage(const std::vector<std::string> &names, u64 bytesPerBenchmark,
               u64 seed)
{
    ModelImage img;
    for (const std::string &name : names) {
        BenchmarkSpec spec = findBenchmark(name);
        spec.seed = engine::splitmix64(spec.seed ^ seed);
        img.specs.push_back(std::move(spec));
        const BenchmarkSpec &stable = img.specs.back();
        img.models.push_back(std::make_unique<WorkloadModel>(
            stable, std::min(bytesPerBenchmark, stable.footprintBytes)));
        const WorkloadModel &m = *img.models.back();
        for (std::size_t a = 0; a < m.allocations().size(); ++a) {
            const ModelAllocation &ma = m.allocations()[a];
            img.allocs.push_back({name + "/" + ma.spec->name,
                                  ma.entries * kEntryBytes,
                                  CompressionTarget::None});
            img.firstEntry.push_back(img.entries);
            img.modelOf.push_back(img.models.size() - 1);
            img.localOf.push_back(a);
            img.entries += ma.entries;
        }
    }
    return img;
}

std::vector<CompressionTarget>
profileTargets(const std::vector<PlanAlloc> &allocs, const u8 *image,
               const std::string &codec)
{
    const auto c = api::CodecRegistry::instance().create(codec);
    CompressionScratch scratch;
    std::vector<AllocationProfile> profiles;
    profiles.reserve(allocs.size());
    const u8 *p = image;
    for (const PlanAlloc &a : allocs) {
        profiles.emplace_back(a.name, a.bytes);
        for (u64 e = 0; e < a.bytes / kEntryBytes; ++e, p += kEntryBytes) {
            const bool zero = entryIsZero(p);
            profiles.back().addEntry(
                zero ? 0 : c->compressInto(p, scratch.encode, scratch),
                zero);
        }
    }
    return Profiler().decide(profiles).targets;
}

bool
trafficEqual(const BatchSummary &a, const BatchSummary &b)
{
    return isolationEqual(a, b, /*windowed=*/false) &&
           a.codecCycles == b.codecCycles;
}

// ----------------------------------------------------------- statistics --

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::max<std::size_t>(1, std::min(rank, v.size()));
    return v[rank - 1];
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ------------------------------------------------------- engine reports --

namespace {

/** Shards each batch of @p plans touches, given each allocation's shard. */
std::vector<unsigned>
shardsTouched(const Plans &plans, const std::vector<unsigned> &allocShard)
{
    std::vector<unsigned> touched;
    touched.reserve(plans.batches.size());
    for (const auto &b : plans.batches) {
        std::set<unsigned> s;
        for (const PlanOp &op : b)
            s.insert(allocShard[op.alloc]);
        touched.push_back(static_cast<unsigned>(s.size()));
    }
    return touched;
}

} // namespace

void
reportPlacement(const Plans &plans, const ShardedEngine &engine,
                const std::vector<unsigned> &allocShard, Outcome &out)
{
    const std::vector<unsigned> touched = shardsTouched(plans, allocShard);
    double sum = 0.0;
    for (unsigned t : touched)
        sum += t;
    const double mean = touched.empty() ? 0.0 : sum / touched.size();
    const double idle = 1.0 - mean / engine.shardCount();
    const WindowImbalanceStats im = engine.windowImbalance();
    out.layer("engine.shards_touched_mean", mean, "shards");
    out.layer("engine.idle_shard_fraction", idle, "ratio");
    out.layer("engine.window_imbalance", im.imbalance(), "ratio");
    std::printf("placement: %.3f of %u shards touched per batch (idle "
                "fraction %.3f); WindowImbalanceStats over %llu batches: "
                "imbalance %.3f%s\n",
                mean, engine.shardCount(), idle,
                (unsigned long long)im.batches, im.imbalance(),
                im.batches ? " (averages only the shards a batch touched)"
                           : " (no per-shard window stats in merged mode)");
}

void
reportStores(const ShardedEngine &engine, Outcome &out)
{
    u64 declared = 0;
    for (unsigned s = 0; s < engine.shardCount(); ++s)
        declared += engine.shard(s).deviceStore().capacity() +
                    engine.shard(s).carveOut().capacity();
    const u64 reserved =
        engine.deviceBytesReserved() + engine.buddyBytesReserved();
    out.layer("store.capacity_mb", static_cast<double>(declared) / MiB,
              "MiB");
    out.layer("store.reserved_mb", static_cast<double>(reserved) / MiB,
              "MiB");
}

void
checkReserved(const ShardedEngine &engine,
              const std::vector<PlanAlloc> &allocs, const Options &opt,
              Outcome &out)
{
    u64 dev = expectedDeviceBytes(allocs);
    const u64 bud = expectedBuddyBytes(allocs);
    if (opt.inject == Inject::PerturbTotal)
        dev += 1;
    if (engine.deviceBytesReserved() != dev)
        out.fail(out.attempted,
                 strfmt("device bytes reserved %llu, expected %llu",
                        (unsigned long long)engine.deviceBytesReserved(),
                        (unsigned long long)dev));
    if (engine.buddyBytesReserved() != bud)
        out.fail(out.attempted,
                 strfmt("buddy bytes reserved %llu, expected %llu",
                        (unsigned long long)engine.buddyBytesReserved(),
                        (unsigned long long)bud));
}

EngineSetup
setUpEngine(const EngineConfig &cfg, const std::vector<PlanAlloc> &allocs,
            Tracer &tr)
{
    EngineSetup s;
    s.registry = std::make_unique<obs::MetricRegistry>();
    {
        Tracer::Scope sp(tr, "engine.construct");
        const Clock::time_point t0 = Clock::now();
        s.engine = std::make_unique<ShardedEngine>(cfg);
        s.constructMs = secondsSince(t0) * 1e3;
    }
    s.engine->attachMetrics(*s.registry);
    {
        Tracer::Scope sp(tr, "engine.allocate");
        const Clock::time_point t0 = Clock::now();
        s.bases = allocateAll(*s.engine, allocs);
        s.allocateUs = secondsSince(t0) * 1e6 /
                       static_cast<double>(std::max<std::size_t>(
                           1, allocs.size()));
    }
    for (Addr va : s.bases)
        s.allocShard.push_back(s.engine->allocationFor(va).shard);
    return s;
}

void
reportThroughput(const std::vector<double> &cpuRates,
                 const std::vector<double> &wallRates, Outcome &out)
{
    out.endToEnd("entries_per_cpu_s", median(cpuRates), "entries/cpu-s");
    std::printf("throughput over %zu rounds: %.0f entries per CPU-second, "
                "%.0f entries per wall second (medians; wall min %.0f, max "
                "%.0f)\n",
                cpuRates.size(), median(cpuRates), median(wallRates),
                *std::min_element(wallRates.begin(), wallRates.end()),
                *std::max_element(wallRates.begin(), wallRates.end()));
}

void
reportBatchTimes(const std::vector<double> &batchSeconds, Outcome &out)
{
    out.layer("engine.batch_ms", median(batchSeconds) * 1e3, "ms");
    out.layer("engine.batch_p99_ms", percentile(batchSeconds, 0.99) * 1e3,
              "ms");
    std::printf("engine batches: %zu timed, median %.4f ms, p99 %.4f ms%s\n",
                batchSeconds.size(), median(batchSeconds) * 1e3,
                percentile(batchSeconds, 0.99) * 1e3,
                batchSeconds.size() >= 1000
                    ? ""
                    : " (fewer than 1000 samples: p99 is no tail)");
}

} // namespace bench
} // namespace buddy
