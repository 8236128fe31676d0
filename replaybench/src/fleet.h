/**
 * @file
 * A multi-tenant fleet on one sharded engine behind a ServiceScheduler:
 * synthetic tenants with private working sets, and trace-backed tenants
 * streaming one capture. Continuous admission, seeded Poisson arrivals,
 * weighted-fair QoS with unequal weights. Used by tenant-fleet and by
 * the service layer measurement of the other workloads.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/trace.h"
#include "service/scheduler.h"

namespace buddy {
namespace bench {

struct FleetSpec
{
    EngineConfig engine;       ///< shard template; capacity set by Fleet
    std::size_t tenants = 16;
    std::size_t traceEvery = 0; ///< tenant i streams the capture when
                                ///< i % traceEvery == 0 (0 = none)
    unsigned traceRepeat = 1;  ///< times a tenant streams the capture
    std::size_t entries = 16;  ///< synthetic working set, entries
    u64 batches = 8;           ///< synthetic batches per tenant
    u64 seed = 1;
    u64 meanGapCycles = 4096;  ///< Poisson mean inter-arrival gap
    unsigned perTenantInflight = 2;
    unsigned totalInflight = 32;

    bool traceBacked(std::size_t i) const
    {
        return traceEvery != 0 && i % traceEvery == 0;
    }
};

/** Deterministic per-tenant workload seed. */
inline u64
tenantSeed(u64 seed, std::size_t i)
{
    return engine::splitmix64(seed + i);
}

/** A synthetic tenant's working set, generated anew from its seed. */
std::vector<u8> syntheticSet(u64 seed, std::size_t entries);

class Fleet
{
  public:
    /** Set-up: engine, sessions, arrivals and scheduler. */
    Fleet(const FleetSpec &spec, const TraceReplayer *capture, Tracer &tr);

    /** Run the scheduler to completion; timed into runSeconds(). */
    const ServiceReport &run(Tracer &tr);

    double sessionConstructMs() const { return sessionConstructMs_; }
    double runSeconds() const { return runSeconds_; }
    const ServiceReport &report() const { return report_; }
    ShardedEngine &engine() { return *engine_; }
    const obs::MetricRegistry &registry() const { return *registry_; }
    const EngineConfig &engineConfig() const { return cfg_; }

    /** Entry operations the fleet's streams hold in total. */
    u64 plannedOps() const;

    /**
     * Every tenant finished; scheduler totals equal the engine's
     * tenantTotals(); trace-backed tenants reproduce the capture's
     * footer totals.
     */
    void checkAccounting(const Options &opt, Outcome &out) const;

    /** Each synthetic tenant's set, read back, equals its seed's bytes. */
    void checkReadBack(const Options &opt, Outcome &out);

    /**
     * Replay every tenant alone on a private engine and compare its
     * totals with the contended run. @return the summed wall time of
     * the solo execute() calls, each of which is also appended to
     * @p batchSeconds when given.
     */
    double checkSolo(const Options &opt, Outcome &out,
                     std::vector<double> *batchSeconds = nullptr) const;

    /** Per-tenant totals equal those of @p first (same inputs). */
    void checkSameAs(const ServiceReport &first, Outcome &out) const;

  private:
    EngineConfig soloConfig(std::size_t i) const;

    FleetSpec spec_;
    const TraceReplayer *capture_;
    EngineConfig cfg_;
    std::unique_ptr<obs::MetricRegistry> registry_;
    std::unique_ptr<ShardedEngine> engine_;
    std::unique_ptr<ServiceScheduler> sched_;
    ServiceReport report_;
    double sessionConstructMs_ = 0.0;
    double runSeconds_ = 0.0;
};

/** Record the service.* layer metrics of a fleet run. */
void reportService(const Fleet &fleet, double soloSeconds, Outcome &out);

} // namespace bench
} // namespace buddy
