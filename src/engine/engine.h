/**
 * @file
 * buddy::engine — the sharded concurrent simulation engine.
 *
 * Buddy Compression's fixed buddy-slot property (paper Section 3.3:
 * a compressibility change never moves any other entry) makes 128 B
 * entries embarrassingly shardable: no access ever needs state owned by
 * another entry's allocation. The ShardedEngine exploits this by
 * partitioning allocations across N shards, each shard owning a complete
 * BuddyController (codec, metadata store + cache, device and buddy
 * backing stores), and executing access plans on a worker thread pool
 * with per-shard work queues.
 *
 * Submission is asynchronous: submit(AccessBatch&) splits the plan by
 * shard, enqueues one sub-plan per participating shard, and returns a
 * std::future<BatchSummary>. Workers execute sub-plans in parallel; the
 * last one to finish merges the per-op AccessInfo back into submission
 * order and folds the per-shard summaries into one BatchSummary.
 *
 * Determinism: a shard is only ever touched by the one worker thread
 * that owns its queue, and each shard sees its sub-plan's operations in
 * submission order, so results are independent of thread scheduling.
 * Shard assignment hashes the allocation ordinal with a fixed salt
 * (EngineConfig::shardSalt) and per-shard RNG seeds derive from
 * EngineConfig::seed, so multi-threaded runs are reproducible
 * run-to-run. Cross-shard traffic totals — including the simulated
 * cycle charges of every shard's LinkModel-timed backing stores, which
 * are pure per-operation functions of the traffic — are bit-identical
 * to a single BuddyController executing the same plan; per-op metadata
 * hit/miss
 * results also match whenever the metadata working set fits the cache
 * (no capacity evictions), which tests/test_engine.cc pins.
 *
 * Thread-safety contract: allocate()/free()/attachSink()/detachSink()
 * and the merged-stat accessors must be called with no batch in flight
 * (between submit() and future completion only workers touch shard
 * state). Multiple batches may be in flight at once; per-shard FIFO
 * order keeps same-entry dependencies correct across batches. Engine
 * sinks are invoked with an internal lock held, in submission order, so
 * they need no locking of their own.
 */

#pragma once

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/access.h"
#include "api/traffic_sink.h"
#include "core/controller.h"
#include "obs/hooks.h"
#include "obs/metrics.h"

namespace buddy {
namespace engine {

/** Configuration of the sharded engine. */
struct EngineConfig
{
    /** Number of shards; each owns a complete BuddyController. */
    unsigned shards = 4;

    /** Worker threads (0 = one per shard; clamped to the shard count). */
    unsigned threads = 0;

    /**
     * Base seed for per-shard RNG streams (shardSeed()). Purely a
     * convenience for deterministic workload drivers — the engine itself
     * draws no randomness.
     */
    u64 seed = 0x9e3779b97f4a7c15ull;

    /**
     * Salt of the allocation-ordinal shard hash. Fixed so the
     * allocation-to-shard map — and therefore every multi-threaded run —
     * is reproducible run-to-run.
     */
    u64 shardSalt = 0xb5297a4d3c2d6ed3ull;

    /**
     * Template for every shard's BuddyController. deviceBytes is the
     * per-shard device capacity (total capacity = shards * deviceBytes).
     */
    BuddyConfig shard;
};

/** One engine-level allocation and its placement. */
struct EngineAllocation
{
    AllocId id = 0;       ///< engine-level allocation id
    unsigned shard = 0;   ///< owning shard
    AllocId shardId = 0;  ///< id within the shard's controller
    std::string name;
    u64 bytes = 0;        ///< logical size, page-rounded
    CompressionTarget target = CompressionTarget::None;
    Addr va = 0;          ///< engine-global virtual base address
    Addr shardVa = 0;     ///< base address within the shard controller

    bool
    contains(Addr addr) const
    {
        return addr >= va && addr < va + bytes;
    }
};

/** Per-tenant accumulated totals (see ShardedEngine::tenantTotals). */
struct TenantTotals
{
    BatchSummary summary; ///< field sums over the tenant's batches
    u64 batches = 0;      ///< batches the tenant submitted
};

/**
 * Cross-shard window-imbalance statistics, accumulated per batch under
 * WindowMode::PerShard: each batch's participating shards report their
 * own combined windowed makespans, and the spread between them is the
 * GPU load-imbalance signal (the barrier waits for the max). All
 * accumulators are order-independent integer sums, so the stats ride
 * the engine's run-to-run reproducibility contract even when batches
 * finish concurrently; derived means/ratios are computed at read time.
 */
struct WindowImbalanceStats
{
    /** Ratio histogram buckets: max/mean in 0.1 steps from 1.0; the
     *  last bucket collects every batch at or above 2.0. */
    static constexpr std::size_t kRatioBuckets = 11;

    u64 batches = 0;   ///< accumulated per-shard-mode batches
    u64 sumMin = 0;    ///< Σ over batches of min-over-shards makespan
    u64 sumMax = 0;    ///< Σ over batches of max-over-shards makespan
    u64 sumAll = 0;    ///< Σ over batches of Σ-over-shards makespans
    u64 sumShards = 0; ///< Σ over batches of participating shard count
    u64 minMin = ~0ull; ///< smallest per-batch min observed
    u64 maxMax = 0;     ///< largest per-batch max observed
    u64 ratioHist[kRatioBuckets] = {}; ///< per-batch max/mean buckets

    // buddy-lint: allow-begin(float-cycle) derived read-out ratios over the integer accumulators above; never fed back into any cycle total
    /** Mean over batches of the min-over-shards makespan. */
    double
    meanMin() const
    {
        return batches ? static_cast<double>(sumMin) /
                             static_cast<double>(batches)
                       : 0.0;
    }

    /** Mean over batches of the max-over-shards (barrier) makespan. */
    double
    meanMax() const
    {
        return batches ? static_cast<double>(sumMax) /
                             static_cast<double>(batches)
                       : 0.0;
    }

    /** Mean per-shard makespan across all batches and shards. */
    double
    meanShard() const
    {
        return sumShards ? static_cast<double>(sumAll) /
                               static_cast<double>(sumShards)
                         : 0.0;
    }

    /**
     * Fleet imbalance ratio: mean barrier makespan over mean per-shard
     * makespan. 1.0 = perfectly balanced shards; the excess is the
     * fraction of N-GPU makespan lost to load imbalance (the signal a
     * load-aware placement policy would drive down).
     */
    double
    imbalance() const
    {
        const double mean = meanShard();
        return mean > 0.0 ? meanMax() / mean : 1.0;
    }
    // buddy-lint: allow-end(float-cycle)
};

/** SplitMix64 — the engine's fixed shard-hash / seed-derivation mix. */
inline u64
splitmix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The sharded concurrent engine (see file header).
 *
 * Owns `shards` BuddyControllers and a worker pool. Addresses handed to
 * submit()/execute() are engine-global virtual addresses returned by
 * allocate(); the engine translates them to shard-local addresses when
 * splitting a plan.
 */
class ShardedEngine
{
  public:
    explicit ShardedEngine(const EngineConfig &cfg);
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    /**
     * Create a compressed allocation on the shard selected by the fixed
     * ordinal hash (falling back to the next shard with capacity).
     * @return the engine-level allocation id, or std::nullopt if every
     *         shard is out of device or buddy memory.
     */
    std::optional<AllocId> allocate(const std::string &name, u64 bytes,
                                    CompressionTarget target);

    /** Release an engine allocation. */
    void free(AllocId id);

    /**
     * Submit a batched access plan for parallel execution.
     *
     * The plan is split by shard and executed concurrently; when the
     * future becomes ready, batch.results() holds one AccessInfo per
     * operation in submission order and batch.summary() the merged
     * cross-shard totals (also the future's value). The batch and every
     * src/dst buffer it references must stay alive and untouched until
     * the future is ready.
     *
     * Windowed timing (BuddyConfig::windowMode): under the default
     * Merged mode, after the serial merge the batch's windowed replay
     * (BuddyConfig::linkWindow) is rescheduled over the merged
     * submission-order traffic through one WindowGroup — the single-GPU
     * equivalent of the plan — so the per-op and summary *WindowCycles
     * fields do not depend on the shard count or thread scheduling,
     * exactly like the serial cycle totals (tests/test_engine.cc pins
     * this). Under PerShard mode each shard's own windows stand (N GPUs,
     * one MSHR pool each) and the summary window fields carry the max
     * over the participating shards — the N-GPU makespan behind a
     * cross-shard barrier; still reproducible run-to-run, and
     * bit-identical to Merged at one shard.
     */
    std::future<BatchSummary> submit(AccessBatch &batch);

    /** Submit and wait: the synchronous convenience wrapper. */
    const BatchSummary &execute(AccessBatch &batch);

    /**
     * Execute the plan on the calling thread, one shard's sub-plan
     * after another, with no hand-off to the worker pool: the results,
     * totals, metrics and sink events are those execute() gives. For a
     * caller that would only block while a worker runs the plan, it
     * saves two thread wake-ups per batch. Every submitted batch must
     * have completed (checked), so no worker holds one of the shards.
     */
    const BatchSummary &executeOnCaller(AccessBatch &batch);

    /** Subscribe @p sink to the engine-level traffic event stream. */
    void attachSink(TrafficSink *sink) { hub_.attach(sink); }

    /** Unsubscribe @p sink. */
    void detachSink(TrafficSink *sink) { hub_.detach(sink); }

    /**
     * Register the engine's metrics in @p registry and update them on
     * every completed batch. Subtree discipline (obs/metrics.h):
     *
     *   sim/engine/    merged per-batch totals that are pure functions
     *                  of the plans — bit-identical across shard counts
     *                  (under WindowMode::Merged this includes the
     *                  windowed makespans, occupancy and stall);
     *   shard/...      reproducible run-to-run but sharding-dependent:
     *                  each shard controller's own metrics under
     *                  shard/s<k>/ (including metadata hit/miss — per-
     *                  shard cache state) and, under PerShard mode,
     *                  the engine's N-GPU window totals;
     *   wall/engine/   thread-timing-dependent (queue depth) —
     *                  excluded from every determinism check.
     *
     * Call with no batch in flight; the registry must outlive the
     * engine. Metric folds happen under the accounting lock, so
     * concurrent batch completions accumulate order-independently.
     */
    void attachMetrics(obs::MetricRegistry &registry);

    /**
     * Register @p observer to receive one BatchRecord per completed
     * batch (obs/hooks.h), called under the accounting lock in
     * completion order with submission-time seq numbers. Pass nullptr
     * to detach; call with no batch in flight.
     */
    void setBatchObserver(obs::BatchObserver *observer)
    {
        observer_ = observer;
    }

    unsigned shardCount() const { return static_cast<unsigned>(shards_.size()); }
    unsigned threadCount() const { return static_cast<unsigned>(workers_.size()); }

    /** Shard @p s's controller (tests / per-shard introspection). */
    const BuddyController &shard(unsigned s) const { return *shards_[s]; }

    /**
     * Peer shard the buddy carve-out of shard @p s spills into, -1 when
     * the buddy backend is not "peer". The engine wires a ring
     * ((s + 1) mod shards) unless the shard template pins an ordinal.
     */
    int
    buddyPeerOf(unsigned s) const
    {
        return shards_[s]->carveOut().store().peerOrdinal();
    }

    /**
     * Deterministic per-shard RNG seed: splitmix64 over
     * EngineConfig::seed and the shard index. Identical across runs and
     * engines with the same config.
     */
    u64 shardSeed(unsigned s) const;

    /** All live engine allocations, keyed by engine-level id. */
    const std::map<AllocId, EngineAllocation> &allocations() const
    {
        return allocs_;
    }

    /** The allocation covering @p va (panics if none). */
    const EngineAllocation &allocationFor(Addr va) const;

    /**
     * Merged controller statistics across all shards. The serial
     * traffic/cycle fields are sums over the per-shard controllers; the
     * *WindowCycles fields are the engine's own per-batch windowed
     * totals — the merged submission-order stream's makespans under
     * WindowMode::Merged, the max-over-shards (N-GPU) makespans under
     * WindowMode::PerShard — NOT the sum of the shard controllers'
     * sub-stream windows.
     */
    BuddyStats stats() const;

    /** Clear every shard's statistics. */
    void clearStats();

    /**
     * Per-tenant accumulated batch totals, keyed by the tenant id each
     * submitted batch was tagged with (AccessBatch::setTenant; untagged
     * batches land under tenant 0). A tenant's totals are field sums
     * over exactly its own batches, so — per-batch results being pure
     * functions of the plan under WindowMode::Merged — they are
     * bit-identical to the same stream executed alone on a private
     * engine, regardless of contention (the service isolation
     * contract; metadata hit/miss totals are per-shard cache state and
     * are accounted here but excluded from that contract). Cleared by
     * clearStats(). Safe to call with batches in flight (snapshot
     * under the accounting lock).
     */
    std::map<u32, TenantTotals> tenantTotals() const;

    /**
     * Cross-shard window-imbalance statistics (see
     * WindowImbalanceStats). Accumulated only under
     * WindowMode::PerShard — under Merged there is one window group,
     * hence no per-shard spread. Cleared by clearStats().
     */
    WindowImbalanceStats windowImbalance() const;

    /** Device bytes reserved across all shards. */
    u64 deviceBytesReserved() const;

    /** Buddy-carve-out bytes reserved across all shards. */
    u64 buddyBytesReserved() const;

    /** Achieved capacity compression ratio across all shards. */
    // buddy-lint: allow(float-cycle) derived read-out ratio, not a cycle accumulator
    double compressionRatio() const;

    /** Merged metadata-cache accesses / misses across all shards. */
    u64 metadataAccesses() const;
    u64 metadataMisses() const;

    const EngineConfig &config() const { return cfg_; }

  private:
    /** One shard's slice of an in-flight batch. */
    struct SubPlan
    {
        unsigned shard = 0;
        AccessBatch plan;           ///< shard-local (translated) ops
        std::vector<u32> origIdx;   ///< submission index of each op
        std::vector<AccessEvent> events; ///< captured when sinks attached
    };

    /** One in-flight batch: sub-plans plus completion bookkeeping. */
    struct BatchJob
    {
        AccessBatch *batch = nullptr;
        u64 seq = 0; ///< submission sequence (obs::BatchRecord sort key)
        std::vector<SubPlan> subs;
        std::vector<u32> opSub;     ///< sub index of each submission op
        std::vector<AllocId> opAlloc; ///< engine alloc id of each op
        std::atomic<unsigned> remaining{0};
        std::promise<BatchSummary> done;
    };

    /**
     * Stable-address metric objects resolved once by attachMetrics();
     * folded into under accountMutex_ on batch completion. Window
     * histogram pointers stay null under WindowMode::PerShard (the
     * shards' own controller metrics carry those there).
     */
    struct EngineProbes
    {
        bool active = false;
        obs::Counter *batches = nullptr;
        obs::Counter *reads = nullptr;
        obs::Counter *writes = nullptr;
        obs::Counter *probes = nullptr;
        obs::Counter *deviceSectors = nullptr;
        obs::Counter *buddySectors = nullptr;
        obs::Counter *buddyAccesses = nullptr;
        obs::Counter *deviceCycles = nullptr;
        obs::Counter *buddyCycles = nullptr;
        obs::Counter *metadataHits = nullptr;   // shard/ subtree
        obs::Counter *metadataMisses = nullptr; // shard/ subtree
        obs::Counter *deviceWindowCycles = nullptr;
        obs::Counter *buddyWindowCycles = nullptr;
        obs::Counter *combinedWindowCycles = nullptr;
        obs::Counter *codecCycles = nullptr; // sim/ subtree (serial sum)
        obs::Counter *codecChargedWindowCycles = nullptr;
        obs::LatencyHistogram *batchMakespan = nullptr;
        obs::LatencyHistogram *batchOps = nullptr;
        obs::LatencyHistogram *windowOccupancy = nullptr; // Merged only
        obs::LatencyHistogram *windowStall = nullptr;     // Merged only
        obs::LatencyHistogram *wallQueueDepth = nullptr;  // wall/ subtree
    };

    struct Worker;

    unsigned workerOf(unsigned shard) const;
    void workerMain(Worker &w);
    /** Split @p batch into per-shard sub-plans; an empty plan's job
     *  completes here. */
    std::shared_ptr<BatchJob> split(AccessBatch &batch);
    void runTask(const std::shared_ptr<BatchJob> &job, unsigned sub);
    void finish(BatchJob &job);

    EngineConfig cfg_;
    std::vector<std::unique_ptr<BuddyController>> shards_;
    std::vector<std::unique_ptr<Worker>> workers_;
    TrafficHub hub_;
    std::mutex emitMutex_; ///< serializes engine-level sink emission

    /** Engine-level windowed-replay totals, accumulated per batch in
     *  finish(): merged-stream makespans under WindowMode::Merged,
     *  max-over-shards (N-GPU) makespans under WindowMode::PerShard.
     *  Atomic because batches may finish concurrently — the sums are
     *  order-independent. Reset by clearStats() symmetrically with the
     *  stats() merge. */
    std::atomic<u64> deviceWindowCycles_{0};
    std::atomic<u64> buddyWindowCycles_{0};
    std::atomic<u64> combinedWindowCycles_{0};
    std::atomic<u64> codecChargedWindowCycles_{0};

    /** Guards tenantTotals_ and imbalance_ — finish() runs on worker
     *  threads, so concurrent batch completions race without it. The
     *  accumulations are integer sums (and per-batch maxima folded with
     *  max/min), so the result is completion-order-independent. */
    mutable std::mutex accountMutex_;
    std::map<u32, TenantTotals> tenantTotals_;
    WindowImbalanceStats imbalance_;
    EngineProbes probes_;
    obs::BatchObserver *observer_ = nullptr;

    /** Submission sequence of the next batch (BatchJob::seq). */
    std::atomic<u64> nextSeq_{0};

    /** Non-empty batches split but not yet finished. */
    std::atomic<u64> inflight_{0};

    std::map<AllocId, EngineAllocation> allocs_;
    std::map<Addr, AllocId> byVa_; // engine base VA -> id
    AllocId nextId_ = 1;
    u64 nextOrdinal_ = 0; ///< shard-hash input, counts all allocates
    Addr nextVa_ = 0x10000000ull;
    u64 logicalUsed_ = 0;
};

} // namespace engine

using engine::EngineAllocation;
using engine::EngineConfig;
using engine::ShardedEngine;
using engine::TenantTotals;
using engine::WindowImbalanceStats;

} // namespace buddy
