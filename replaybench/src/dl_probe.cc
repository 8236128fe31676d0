/**
 * @file
 * dl-probe: every DL benchmark's image is loaded during set-up, then
 * probed at length along each benchmark's AccessProfile on a 4-shard
 * engine in merged window mode with a deep window. A probe never runs
 * the codec, so host time goes to address translation, the metadata
 * cache, per-entry state, window scheduling and the engine's serial
 * merged-stream reschedule: a codec speed-up should leave this
 * workload's entries_per_cpu_s unchanged while shortening its set-up.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "common/rng.h"
#include "common/table.h"
#include "workloads/benchmark.h"

namespace buddy {
namespace bench {

namespace {

constexpr u64 kBytesPerBenchmark = 3 * MiB;
constexpr std::size_t kLoadBatchOps = 8192;
constexpr std::size_t kBatchOps = 16384;
constexpr std::size_t kBatchesPerBenchmark = 2;
constexpr unsigned kShards = 4;
constexpr u64 kWindow = 128;
constexpr std::size_t kSampled = 4096;

EngineConfig
engineConfig(const std::vector<PlanAlloc> &allocs, unsigned threads)
{
    EngineConfig cfg;
    cfg.shards = kShards;
    cfg.threads = std::min(kShards, threads);
    cfg.shard.linkWindow = kWindow;
    cfg.shard.windowMode = WindowMode::Merged;
    cfg.shard.deviceBytes =
        shardDeviceBytes(allocs, cfg.shard.carveOutRatio, MiB);
    return cfg;
}

/** The (allocation, entry) holding global entry @p g. */
std::pair<u32, u32>
locate(const ModelImage &img, u64 g)
{
    const auto it =
        std::upper_bound(img.firstEntry.begin(), img.firstEntry.end(), g);
    const std::size_t a =
        static_cast<std::size_t>(it - img.firstEntry.begin()) - 1;
    return {static_cast<u32>(a), static_cast<u32>(g - img.firstEntry[a])};
}

/**
 * Probe batches along each benchmark's AccessProfile: a streaming share
 * walks the footprint sequentially, the random share draws from a hot
 * window of randomWindow x footprint. Batches rotate over benchmarks.
 */
std::vector<std::vector<PlanOp>>
probeBatches(const ModelImage &img, u64 seed)
{
    Rng rng(seed);
    const std::size_t nb = img.models.size();
    std::vector<u64> first(nb, ~0ull), count(nb, 0), cursor(nb), winBase(nb);
    for (std::size_t a = 0; a < img.allocs.size(); ++a) {
        const std::size_t m = img.modelOf[a];
        first[m] = std::min(first[m], img.firstEntry[a]);
        count[m] += img.allocs[a].bytes / kEntryBytes;
    }
    for (std::size_t m = 0; m < nb; ++m) {
        cursor[m] = rng.below(count[m]);
        winBase[m] = rng.below(count[m]);
    }
    std::vector<std::vector<PlanOp>> batches;
    for (std::size_t b = 0; b < nb * kBatchesPerBenchmark; ++b) {
        const std::size_t m = b % nb;
        const AccessProfile &p = img.specs[m].access;
        const double mix = p.streamFraction + p.randomFraction;
        const double pStream = mix > 0.0 ? p.streamFraction / mix : 1.0;
        const u64 window = std::max<u64>(
            1, static_cast<u64>(p.randomWindow *
                                static_cast<double>(count[m])));
        std::vector<PlanOp> ops;
        ops.reserve(kBatchOps);
        for (std::size_t i = 0; i < kBatchOps; ++i) {
            u64 e;
            if (rng.uniform() < pStream) {
                e = cursor[m];
                cursor[m] = (cursor[m] + 1) % count[m];
            } else {
                e = (winBase[m] + rng.below(window)) % count[m];
            }
            const auto loc = locate(img, first[m] + e);
            ops.push_back({loc.first, loc.second, AccessKind::Probe, nullptr});
        }
        batches.push_back(std::move(ops));
    }
    return batches;
}

} // namespace

void
runDlProbe(const Options &opt, Tracer &tr, Outcome &out)
{
    ModelImage img = makeModelImage(dlBenchmarkNames(), kBytesPerBenchmark,
                                    opt.seed);
    const std::vector<u8> image = img.snapshot(0);
    std::printf("dl-probe: %zu benchmarks, %zu allocations, %.1f MiB image, "
                "%zu-probe batches, %u shards merged window W=%llu\n",
                img.models.size(), img.allocs.size(),
                static_cast<double>(img.entries * kEntryBytes) / MiB,
                kBatchOps, kShards, (unsigned long long)kWindow);

    Plans load; // the image load, in allocation order
    auto loadBatches = [&]() {
        load.allocs = img.allocs;
        load.batches.clear();
        std::vector<PlanOp> b;
        for (std::size_t a = 0; a < img.allocs.size(); ++a)
            for (u32 e = 0; e < img.allocs[a].bytes / kEntryBytes; ++e) {
                const u64 g = img.firstEntry[a] + e;
                b.push_back({static_cast<u32>(a), e, AccessKind::Write,
                             image.data() + g * kEntryBytes});
                if (b.size() == kLoadBatchOps)
                    load.batches.push_back(std::move(b)), b.clear();
            }
        if (!b.empty())
            load.batches.push_back(std::move(b));
    };

    // Set-up, repeated: profile, construct, allocate, load the image.
    std::vector<double> setupSeconds;
    std::vector<double> profileMs;
    EngineSetup s;
    std::vector<CompressionTarget> targets;
    for (unsigned rep = 0; rep < opt.setupReps; ++rep) {
        s.release();
        Tracer::Scope sp(tr, "setup");
        const Clock::time_point t0 = Clock::now();
        std::vector<CompressionTarget> t;
        {
            Tracer::Scope pr(tr, "profile");
            t = profileTargets(img.allocs, image.data(), "bpc");
            profileMs.push_back(secondsSince(t0) * 1e3);
        }
        BUDDY_CHECK(targets.empty() || t == targets,
                    "profiling is not deterministic");
        targets = t;
        for (std::size_t a = 0; a < img.allocs.size(); ++a)
            img.allocs[a].target = targets[a];
        loadBatches();
        s = setUpEngine(engineConfig(img.allocs, opt.threads), img.allocs,
                        tr);
        {
            Tracer::Scope il(tr, "image.load");
            AccessBatch batch;
            std::vector<u8> readBuf;
            for (const auto &ops : load.batches) {
                buildBatch(ops, s.bases, batch, readBuf);
                s.engine->execute(batch);
            }
        }
        setupSeconds.push_back(secondsSince(t0));
    }

    Plans probes;
    probes.allocs = img.allocs;
    probes.batches = probeBatches(img, opt.seed ^ 0xd1b0);

    // Timed rounds; every batch's windowed totals must be bracketed.
    const RoundStats st = runRounds(
        s, probes, opt, tr, out,
        [&](std::size_t, const AccessBatch &batch, const std::vector<u8> &) {
            const BatchSummary &m = batch.summary();
            const u64 lo = std::max(m.deviceWindowCycles,
                                    m.buddyWindowCycles);
            const u64 hi = m.deviceWindowCycles + m.buddyWindowCycles;
            if (m.combinedWindowCycles < lo || m.combinedWindowCycles > hi)
                out.fail(batch.size(),
                         strfmt("combined window %llu outside [%llu, %llu]",
                                (unsigned long long)m.combinedWindowCycles,
                                (unsigned long long)lo,
                                (unsigned long long)hi));
            if (m.codecChargedWindowCycles < m.combinedWindowCycles)
                out.fail(batch.size(),
                         strfmt("codec-charged %llu below combined %llu",
                                (unsigned long long)
                                    m.codecChargedWindowCycles,
                                (unsigned long long)m.combinedWindowCycles));
        });

    {
        Tracer::Scope checks(tr, "check");
        checkReserved(*s.engine, img.allocs, opt, out);

        // Sampled entries: a probe moves the same sectors and link cycles
        // as a read, and the read returns the generator's bytes.
        Rng rng(opt.seed ^ 0x5a3b);
        std::vector<PlanOp> pr, rd;
        for (std::size_t i = 0; i < kSampled; ++i) {
            const auto loc = locate(img, rng.below(img.entries));
            pr.push_back({loc.first, loc.second, AccessKind::Probe, nullptr});
            if (!(opt.inject == Inject::DropBatch && i == 0))
                rd.push_back({loc.first, loc.second, AccessKind::Read,
                              nullptr});
        }
        AccessBatch pb, rb;
        std::vector<u8> unused, readBuf;
        buildBatch(pr, s.bases, pb, unused);
        buildBatch(rd, s.bases, rb, readBuf);
        s.engine->execute(pb);
        s.engine->execute(rb);
        if (rb.size() != pb.size()) {
            out.fail(pb.size(), strfmt("sampled read batch has %zu ops, "
                                       "probe batch %zu",
                                       rb.size(), pb.size()));
        } else {
            for (std::size_t i = 0; i < pb.size(); ++i) {
                const AccessInfo &p = pb.result(i), &r = rb.result(i);
                if (p.deviceSectors != r.deviceSectors ||
                    p.buddySectors != r.buddySectors ||
                    p.deviceCycles != r.deviceCycles ||
                    p.buddyCycles != r.buddyCycles)
                    out.fail(1, strfmt("probe of %s entry %u moves other "
                                       "traffic than its read",
                                       img.allocs[pr[i].alloc].name.c_str(),
                                       pr[i].entry));
                u8 want[kEntryBytes];
                const std::size_t a = rd[i].alloc;
                img.models[img.modelOf[a]]->entryData(img.localOf[a],
                                                      rd[i].entry, 0, want);
                if (opt.inject == Inject::CorruptEntry && i == 0)
                    want[3] ^= 0x21;
                if (std::memcmp(want, readBuf.data() + i * kEntryBytes,
                                kEntryBytes) != 0)
                    out.fail(1, strfmt("read of %s entry %u differs from "
                                       "the image",
                                       img.allocs[a].name.c_str(),
                                       rd[i].entry));
            }
        }
    }

    const double ratio = s.engine->compressionRatio();
    reportThroughput(st.cpuRates, st.wallRates, out);
    out.endToEnd("setup_s", median(setupSeconds), "s");
    out.endToEnd("compression_ratio", ratio, "x");
    std::printf("dl-probe: %zu rounds of %llu probes, setup %.4f s, ratio "
                "%.4fx\n",
                st.roundTotals.size(), (unsigned long long)probes.ops(),
                median(setupSeconds), ratio);

    if (opt.trace) {
        reportBatchTimes(st.batchSeconds, out);
        reportPlacement(probes, *s.engine, s.allocShard, out);
        reportStores(*s.engine, out);
        measureExport(*s.registry, tr, out);
        out.layer("engine.construct_ms", s.constructMs, "ms");
        out.layer("engine.allocate_us", s.allocateUs, "us");
        out.layer("profiler.profile_ms", median(profileMs), "ms");
        LayerInputs in;
        in.engine = s.engine->config();
        s.release();
        Plans all = load; // the image load, then one round of probes
        all.batches.insert(all.batches.end(), probes.batches.begin(),
                           probes.batches.end());
        in.plans = &all;
        Tracer::Scope layers(tr, "layers");
        measureCompress(in, tr, out);
        measureControllerAndWindow(in, tr, out);
        const std::vector<u8> capture = measureTrace(in, tr, out);
        measureService(in, capture, opt, tr, out);
    }
}

} // namespace bench
} // namespace buddy
