/**
 * @file
 * The per-layer suite of the traced run. Each layer is driven through
 * its public functions on the workload's own plans and timed from
 * outside: the codec, a standalone controller, the window scheduler, a
 * 1-shard engine, the trace recorder/loader/cursor, the service front
 * end and the JSON exporter.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "api/codec_registry.h"
#include "bench.h"
#include "common/table.h"
#include "engine/trace.h"
#include "fleet.h"
#include "obs/json.h"

namespace buddy {
namespace bench {

namespace {

constexpr unsigned kReps = 3;
constexpr std::size_t kMaxCodecEntries = 65536;

/** Kind of a homogeneous batch (the workloads build only those). */
AccessKind
kindOf(const std::vector<PlanOp> &ops)
{
    BUDDY_CHECK(!ops.empty(), "empty plan batch");
    for (const PlanOp &op : ops)
        BUDDY_CHECK(op.kind == ops.front().kind, "mixed plan batch");
    return ops.front().kind;
}

/** @p ops with every operation turned into @p kind. */
std::vector<PlanOp>
asKind(std::vector<PlanOp> ops, AccessKind kind)
{
    for (PlanOp &op : ops)
        op.kind = kind;
    return ops;
}

/** Engine-level events, kept compact, for replay into a recorder. */
class CaptureSink : public TrafficSink
{
  public:
    struct Event
    {
        AccessKind kind;
        bool isZero;
        Addr va;
        const u8 *data;
    };

    void
    onAccess(const AccessEvent &e) override
    {
        events.push_back({e.kind, e.isZero, e.va, e.data});
    }

    void
    onBatch(const BatchSummary &s) override
    {
        batches.emplace_back(events.size(), s);
    }

    std::vector<Event> events;
    std::vector<std::pair<std::size_t, BatchSummary>> batches; ///< end, sum
};

EngineConfig
oneShard(EngineConfig cfg)
{
    cfg.shards = 1;
    cfg.threads = 1;
    return cfg;
}

} // namespace

void
measureCompress(const LayerInputs &in, Tracer &tr, Outcome &out)
{
    Tracer::Scope sp(tr, "layer.compress");
    std::set<const u8 *> seen;
    std::vector<const u8 *> src;
    for (const auto &b : in.plans->batches)
        for (const PlanOp &op : b)
            if (op.kind == AccessKind::Write && !entryIsZero(op.src) &&
                src.size() < kMaxCodecEntries && seen.insert(op.src).second)
                src.push_back(op.src);
    BUDDY_CHECK(!src.empty(), "no non-zero write payloads to encode");

    const auto codec =
        api::CodecRegistry::instance().create(in.engine.shard.codec);
    CompressionScratch scratch;
    std::vector<u8> enc(src.size() * kMaxEncodedBytes);
    std::vector<std::size_t> bits(src.size());
    std::vector<double> encNs, decNs;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < src.size(); ++i)
            bits[i] = codec->compressInto(
                src[i], enc.data() + i * kMaxEncodedBytes, scratch);
        encNs.push_back(secondsSince(t0) * 1e9 / src.size());
    }
    std::vector<u8> dec(src.size() * kEntryBytes);
    for (unsigned rep = 0; rep < kReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < src.size(); ++i)
            codec->decompressFrom(enc.data() + i * kMaxEncodedBytes, bits[i],
                                  dec.data() + i * kEntryBytes);
        decNs.push_back(secondsSince(t0) * 1e9 / src.size());
    }
    std::size_t fit = 0;
    for (std::size_t i = 0; i < src.size(); ++i) {
        fit += bits[i] < kEntryBytes * 8;
        if (std::memcmp(src[i], dec.data() + i * kEntryBytes, kEntryBytes))
            out.fail(1, strfmt("codec round trip of payload %zu differs", i));
    }
    out.layer("compress.encode_ns", median(encNs), "ns");
    out.layer("compress.decode_ns", median(decNs), "ns");
    out.layer("compress.fit_ratio",
              static_cast<double>(fit) / static_cast<double>(src.size()),
              "ratio");
    std::printf("compress (%s, %zu non-zero payloads): encode %.1f ns, "
                "decode %.1f ns per entry, %.3f fit below raw\n",
                in.engine.shard.codec.c_str(), src.size(), median(encNs),
                median(decNs),
                static_cast<double>(fit) / static_cast<double>(src.size()));
}

void
measureControllerAndWindow(const LayerInputs &in, Tracer &tr, Outcome &out)
{
    const Plans &plans = *in.plans;
    const BuddyConfig &shardCfg = in.engine.shard;
    struct Op
    {
        AccessKind kind;
        unsigned dev, bud;
        bool codec;
    };
    std::vector<Op> stream;
    stream.reserve(plans.ops());
    double planWall = 0.0;

    // Standalone controller: the plans, then reads/probes of the same
    // entries where a workload has only one of the two kinds.
    {
        Tracer::Scope sp(tr, "layer.controller");
        Clock::time_point t0 = Clock::now();
        BuddyController ctrl(shardCfg);
        out.layer("controller.construct_ms", secondsSince(t0) * 1e3, "ms");
        const std::vector<Addr> bases = allocateAll(ctrl, plans.allocs);

        double wall[3] = {0, 0, 0};
        u64 ops[3] = {0, 0, 0};
        BatchSummary sum;
        AccessBatch batch;
        std::vector<u8> readBuf;
        auto exec = [&](const std::vector<PlanOp> &b, bool record) {
            const AccessKind k = kindOf(b);
            buildBatch(b, bases, batch, readBuf);
            const Clock::time_point t = Clock::now();
            const BatchSummary &s = ctrl.execute(batch);
            const double dt = secondsSince(t);
            wall[static_cast<int>(k)] += dt;
            ops[static_cast<int>(k)] += b.size();
            if (!record)
                return;
            planWall += dt;
            sum.accumulate(s);
            for (const AccessInfo &r : batch.results())
                stream.push_back({k, r.deviceSectors, r.buddySectors,
                                  r.codecCycles > 0});
        };
        bool hasRead = false, hasProbe = false;
        for (const auto &b : plans.batches) {
            hasRead |= kindOf(b) == AccessKind::Read;
            hasProbe |= kindOf(b) == AccessKind::Probe;
            exec(b, true);
        }
        for (const auto &b : plans.batches) {
            if (!hasProbe && kindOf(b) == AccessKind::Read)
                exec(asKind(b, AccessKind::Probe), false);
            if (!hasRead && kindOf(b) == AccessKind::Probe)
                exec(asKind(b, AccessKind::Read), false);
        }
        auto perOp = [&](AccessKind k) {
            const int i = static_cast<int>(k);
            return ops[i] ? wall[i] * 1e9 / static_cast<double>(ops[i]) : 0.0;
        };
        const u64 meta = sum.metadataHits + sum.metadataMisses;
        out.layer("controller.write_ns", perOp(AccessKind::Write), "ns");
        out.layer("controller.read_ns", perOp(AccessKind::Read), "ns");
        out.layer("controller.probe_ns", perOp(AccessKind::Probe), "ns");
        out.layer("metadata.hit_ratio",
                  meta ? static_cast<double>(sum.metadataHits) / meta : 1.0,
                  "ratio");
        out.layer("controller.buddy_access_ratio", sum.buddyAccessFraction(),
                  "ratio");
        std::printf("controller: write %.1f ns, read %.1f ns, probe %.1f ns "
                    "per op; metadata hit %.4f, buddy access %.4f\n",
                    perOp(AccessKind::Write), perOp(AccessKind::Read),
                    perOp(AccessKind::Probe),
                    meta ? static_cast<double>(sum.metadataHits) / meta : 1.0,
                    sum.buddyAccessFraction());

        // Window scheduler over the same per-op sector stream.
        Tracer::Scope ws(tr, "layer.window");
        const u64 w = shardCfg.linkWindow;
        std::vector<double> issueNs;
        double occupancy = 0.0;
        for (unsigned rep = 0; rep < kReps; ++rep) {
            timing::WindowGroup group(ctrl.deviceStore().makeWindow(w),
                                      ctrl.carveOut().store().makeWindow(w),
                                      ctrl.codecTiming());
            u64 occ = 0;
            t0 = Clock::now();
            for (const Op &op : stream) {
                const timing::CodecWork work =
                    !op.codec ? timing::CodecWork::None
                    : op.kind == AccessKind::Write
                        ? timing::CodecWork::Compress
                        : timing::CodecWork::Decompress;
                group.issue(op.kind == AccessKind::Write
                                ? timing::LinkDir::Write
                                : timing::LinkDir::Read,
                            u64{op.dev} * kSectorBytes,
                            u64{op.bud} * kSectorBytes, work);
                occ += group.device().outstanding() +
                       group.buddy().outstanding();
            }
            issueNs.push_back(secondsSince(t0) * 1e9 / stream.size());
            occupancy = static_cast<double>(occ) / stream.size();
        }
        out.layer("window.issue_ns", median(issueNs), "ns");
        out.layer("window.occupancy_mean", occupancy, "requests");
        std::printf("window (W=%llu): %.1f ns per issue, mean occupancy "
                    "%.2f\n",
                    (unsigned long long)w, median(issueNs), occupancy);
    }

    // The same plans on a 1-shard engine: the engine's own overhead.
    Tracer::Scope sp(tr, "layer.engine");
    ShardedEngine eng(oneShard(in.engine));
    const std::vector<Addr> bases = allocateAll(eng, plans.allocs);
    AccessBatch batch;
    std::vector<u8> readBuf;
    double engWall = 0.0;
    for (const auto &b : plans.batches) {
        buildBatch(b, bases, batch, readBuf);
        const Clock::time_point t = Clock::now();
        eng.execute(batch);
        engWall += secondsSince(t);
    }
    const double overhead =
        (engWall - planWall) * 1e9 / static_cast<double>(plans.ops());
    out.layer("engine.overhead_ns", overhead, "ns");
    std::printf("engine: 1-shard engine minus standalone controller: %.1f "
                "ns per op\n",
                overhead);
}

std::vector<u8>
measureTrace(const LayerInputs &in, Tracer &tr, Outcome &out)
{
    Tracer::Scope sp(tr, "layer.trace");
    const Plans &plans = *in.plans;
    const EngineConfig cfg = oneShard(in.engine);

    ShardedEngine eng(cfg);
    const std::vector<Addr> bases = allocateAll(eng, plans.allocs);
    CaptureSink cap;
    eng.attachSink(&cap);
    AccessBatch batch;
    std::vector<u8> readBuf;
    for (const auto &b : plans.batches) {
        buildBatch(b, bases, batch, readBuf);
        eng.execute(batch);
    }
    eng.detachSink(&cap);

    // Feed the captured stream to a recorder, timed.
    TraceRecorderSink rec;
    for (std::size_t a = 0; a < plans.allocs.size(); ++a)
        rec.noteAllocation(plans.allocs[a].name, bases[a],
                           pageRounded(plans.allocs[a].bytes),
                           plans.allocs[a].target);
    Clock::time_point t0 = Clock::now();
    std::size_t next = 0;
    for (const auto &b : cap.batches) {
        for (; next < b.first; ++next) {
            const CaptureSink::Event &c = cap.events[next];
            AccessEvent e;
            e.kind = c.kind;
            e.isZero = c.isZero;
            e.va = c.va;
            e.data = c.data;
            rec.onAccess(e);
        }
        rec.onBatch(b.second);
    }
    const double recordNs =
        secondsSince(t0) * 1e9 / static_cast<double>(cap.events.size());

    t0 = Clock::now();
    std::vector<u8> image = rec.serialize();
    const double serializeMs = secondsSince(t0) * 1e3;

    TraceReplayer replayer;
    std::vector<u8> copy = image;
    t0 = Clock::now();
    replayer.loadImage(std::move(copy));
    const double loadMs = secondsSince(t0) * 1e3;
    if (replayer.opCount() != plans.ops() ||
        replayer.batchCount() != plans.batches.size())
        out.fail(plans.ops(), "loaded capture holds other ops or batches "
                              "than were recorded");

    ShardedEngine target(cfg);
    t0 = Clock::now();
    const TraceCursor cursor(replayer, target);
    const double bindMs = secondsSince(t0) * 1e3;

    out.layer("trace.record_ns", recordNs, "ns");
    out.layer("trace.serialize_ms", serializeMs, "ms");
    out.layer("trace.load_ms", loadMs, "ms");
    out.layer("trace.bytes_per_op",
              static_cast<double>(image.size()) /
                  static_cast<double>(plans.ops()),
              "B");
    out.layer("trace.cursor_bind_ms", bindMs, "ms");
    std::printf("trace: record %.1f ns/op, serialize %.3f ms, load %.3f "
                "ms, %.2f B/op, cursor bind %.3f ms (%u batches)\n",
                recordNs, serializeMs, loadMs,
                static_cast<double>(image.size()) /
                    static_cast<double>(plans.ops()),
                bindMs, (unsigned)cursor.totalBatches());
    return image;
}

void
measureService(const LayerInputs &in, const std::vector<u8> &image,
               const Options &opt, Tracer &tr, Outcome &out)
{
    Tracer::Scope sp(tr, "layer.service");
    TraceReplayer capture;
    capture.loadImage(image);
    FleetSpec spec;
    spec.engine = in.engine;
    spec.tenants = 16;
    spec.traceEvery = 16; // tenant 0 streams the workload's capture
    spec.seed = opt.seed;
    Fleet fleet(spec, &capture, tr);
    fleet.run(tr);
    fleet.checkAccounting(opt, out);
    reportService(fleet, fleet.checkSolo(opt, out), out);
}

void
measureExport(const obs::MetricRegistry &registry, Tracer &tr, Outcome &out)
{
    Tracer::Scope sp(tr, "layer.obs");
    std::vector<double> ms;
    std::size_t bytes = 0;
    for (unsigned rep = 0; rep < kReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        bytes = obs::exportJson(registry).size();
        ms.push_back(secondsSince(t0) * 1e3);
    }
    out.layer("obs.export_ms", median(ms), "ms");
    std::printf("obs: exportJson %.3f ms (%zu bytes, %zu metrics)\n",
                median(ms), bytes, registry.size());
}

} // namespace bench
} // namespace buddy
