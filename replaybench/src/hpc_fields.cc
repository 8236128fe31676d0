/**
 * @file
 * hpc-fields: every HPC benchmark's fields written, read back, rewritten
 * with a later snapshot and read again on a 4-shard engine in per-shard
 * window mode. About three quarters of host time is BPC encode/decode,
 * and batches interleave every allocation so all shards work at once.
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

constexpr u64 kBytesPerBenchmark = 2 * MiB;
constexpr unsigned kLaterSnapshot = WorkloadModel::kSnapshots - 1;
constexpr std::size_t kBatchOps = 8192;
constexpr unsigned kShards = 4;
constexpr u64 kWindow = 32;

/**
 * One kernel's access order over the whole layout: every allocation is
 * streamed from a seeded rotation, and the streams are merged by their
 * fractional position so each batch holds entries of every allocation.
 */
std::vector<std::pair<u32, u32>>
interleavedOrder(const ModelImage &img, u64 seed)
{
    Rng rng(seed);
    struct Item
    {
        double key;
        u32 alloc;
        u32 entry;
    };
    std::vector<Item> items;
    items.reserve(img.entries);
    for (std::size_t a = 0; a < img.allocs.size(); ++a) {
        const u64 n = img.allocs[a].bytes / kEntryBytes;
        const u64 rot = rng.below(n);
        for (u64 i = 0; i < n; ++i)
            items.push_back({(static_cast<double>(i) + 0.5) /
                                 static_cast<double>(n),
                             static_cast<u32>(a),
                             static_cast<u32>((i + rot) % n)});
    }
    std::sort(items.begin(), items.end(), [](const Item &x, const Item &y) {
        return x.key != y.key ? x.key < y.key : x.alloc < y.alloc;
    });
    std::vector<std::pair<u32, u32>> order;
    order.reserve(items.size());
    for (const Item &it : items)
        order.emplace_back(it.alloc, it.entry);
    return order;
}

EngineConfig
engineConfig(const std::vector<PlanAlloc> &allocs, unsigned threads)
{
    EngineConfig cfg;
    cfg.shards = kShards;
    cfg.threads = std::min(kShards, threads);
    cfg.shard.linkWindow = kWindow;
    cfg.shard.windowMode = WindowMode::PerShard;
    cfg.shard.deviceBytes =
        shardDeviceBytes(allocs, cfg.shard.carveOutRatio, MiB);
    return cfg;
}

} // namespace

void
runHpcFields(const Options &opt, Tracer &tr, Outcome &out)
{
    const unsigned snaps[2] = {0, kLaterSnapshot};
    ModelImage img = makeModelImage(hpcBenchmarkNames(), kBytesPerBenchmark,
                                    opt.seed);
    const std::vector<u8> source[2] = {img.snapshot(snaps[0]),
                                       img.snapshot(snaps[1])};
    // Generated anew, apart from the write payloads, for the read checks.
    std::vector<u8> expected[2] = {img.snapshot(snaps[0]),
                                   img.snapshot(snaps[1])};
    if (opt.inject == Inject::CorruptEntry)
        expected[0][7] ^= 0x5a;
    const auto order = interleavedOrder(img, opt.seed ^ 0x4f7d);
    std::printf("hpc-fields: %zu benchmarks, %zu allocations, %.1f MiB, "
                "%zu-entry batches, %u shards per-shard window W=%llu\n",
                img.models.size(), img.allocs.size(),
                static_cast<double>(img.entries * kEntryBytes) / MiB,
                kBatchOps, kShards, (unsigned long long)kWindow);

    // Set-up, repeated: profile, construct, allocate.
    std::vector<double> setupSeconds;
    std::vector<double> profileMs;
    EngineSetup s;
    std::vector<CompressionTarget> targets;
    for (unsigned rep = 0; rep < opt.setupReps; ++rep) {
        s.release(); // free the previous set-up first
        Tracer::Scope sp(tr, "setup");
        const Clock::time_point t0 = Clock::now();
        std::vector<CompressionTarget> t;
        {
            Tracer::Scope pr(tr, "profile");
            t = profileTargets(img.allocs, source[0].data(), "bpc");
            profileMs.push_back(secondsSince(t0) * 1e3);
        }
        BUDDY_CHECK(targets.empty() || t == targets,
                    "profiling is not deterministic");
        targets = t;
        for (std::size_t a = 0; a < img.allocs.size(); ++a)
            img.allocs[a].target = targets[a];
        s = setUpEngine(engineConfig(img.allocs, opt.threads),
                        img.allocs, tr);
        setupSeconds.push_back(secondsSince(t0));
    }

    // One round: write snapshot 0, read, write the later snapshot, read.
    Plans plans;
    plans.allocs = img.allocs;
    std::vector<int> batchSnap; // snapshot a read batch must return
    for (int pass = 0; pass < 4; ++pass) {
        const int snap = pass / 2;
        const bool write = pass % 2 == 0;
        for (std::size_t i = 0; i < order.size(); i += kBatchOps) {
            std::vector<PlanOp> b;
            const std::size_t end = std::min(order.size(), i + kBatchOps);
            for (std::size_t k = i; k < end; ++k) {
                const u32 a = order[k].first, e = order[k].second;
                const u64 g = img.firstEntry[a] + e;
                b.push_back({a, e,
                             write ? AccessKind::Write : AccessKind::Read,
                             write ? source[snap].data() + g * kEntryBytes
                                   : nullptr});
            }
            plans.batches.push_back(std::move(b));
            batchSnap.push_back(write ? -1 : snap);
        }
    }

    // Timed rounds; every read is compared with the generator's bytes.
    const RoundStats st = runRounds(
        s, plans, opt, tr, out,
        [&](std::size_t b, const AccessBatch &, const std::vector<u8> &rb) {
            if (batchSnap[b] < 0)
                return;
            const std::vector<u8> &want = expected[batchSnap[b]];
            const auto &ops = plans.batches[b];
            for (std::size_t i = 0; i < ops.size(); ++i) {
                const u64 g = img.firstEntry[ops[i].alloc] + ops[i].entry;
                if (std::memcmp(rb.data() + i * kEntryBytes,
                                want.data() + g * kEntryBytes,
                                kEntryBytes) != 0)
                    out.fail(1, strfmt("read of %s entry %u differs from "
                                       "snapshot %u",
                                       img.allocs[ops[i].alloc].name.c_str(),
                                       ops[i].entry, snaps[batchSnap[b]]));
            }
        });

    const double ratio = s.engine->compressionRatio();
    checkReserved(*s.engine, img.allocs, opt, out);
    if (opt.trace) {
        reportBatchTimes(st.batchSeconds, out);
        reportPlacement(plans, *s.engine, s.allocShard, out);
        reportStores(*s.engine, out);
        measureExport(*s.registry, tr, out);
        out.layer("engine.construct_ms", s.constructMs, "ms");
        out.layer("engine.allocate_us", s.allocateUs, "us");
        out.layer("profiler.profile_ms", median(profileMs), "ms");
    }
    const EngineConfig cfg = s.engine->config();
    s.release();

    // Shard invariance: a 1-shard engine on the same input moves the
    // same traffic and charges the same serial cycles, round by round.
    {
        Tracer::Scope ref(tr, "reference");
        EngineConfig one = cfg;
        one.shards = 1;
        one.threads = 1;
        EngineSetup r = setUpEngine(one, plans.allocs, tr);
        AccessBatch batch;
        std::vector<u8> readBuf;
        BatchSummary want[2];
        for (int round = 0; round < 2; ++round)
            for (std::size_t b = 0; b < plans.batches.size(); ++b) {
                if (opt.inject == Inject::DropBatch && round == 0 && b == 0)
                    continue;
                buildBatch(plans.batches[b], r.bases, batch, readBuf);
                want[round].accumulate(r.engine->execute(batch));
            }
        const u64 roundOps = plans.ops();
        for (std::size_t k = 0; k < st.roundTotals.size(); ++k)
            if (!trafficEqual(st.roundTotals[k], want[k == 0 ? 0 : 1]))
                out.fail(roundOps,
                         strfmt("round %zu traffic/cycle totals differ "
                                "from the 1-shard run",
                                k + 1));
    }

    reportThroughput(st.cpuRates, st.wallRates, out);
    out.endToEnd("setup_s", median(setupSeconds), "s");
    out.endToEnd("compression_ratio", ratio, "x");
    std::printf("hpc-fields: %zu rounds of %llu ops, setup %.4f s, ratio "
                "%.4fx\n",
                st.roundTotals.size(), (unsigned long long)plans.ops(),
                median(setupSeconds), ratio);

    if (opt.trace) {
        Tracer::Scope layers(tr, "layers");
        LayerInputs in;
        in.plans = &plans;
        in.engine = cfg;
        measureCompress(in, tr, out);
        measureControllerAndWindow(in, tr, out);
        const std::vector<u8> image = measureTrace(in, tr, out);
        measureService(in, image, opt, tr, out);
    }
}

} // namespace bench
} // namespace buddy
